"""StreamService end to end over real HTTP (loopback, ephemeral port)."""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro._util.fsio import atomic_write_json
from repro._util.retry import RetryPolicy
from repro.mpe.clocksync import SyncPoint
from repro.mpe.records import BareEvent, EventDef, MsgEvent, RankName, StateDef
from repro.mpe.salvage import AppendPartialWriter, partial_path
from repro.stream.follow import exit_path
from repro.stream.service import StreamService

FAST = RetryPolicy(deadline=10.0, initial=0.001, max_delay=0.01, jitter=0.0)


def write_run(base: str, *, ranks: int = 2, n: int = 6) -> None:
    """A small finished run: one append partial per rank."""
    for rank in range(ranks):
        defs = [StateDef(1, 2, "work", "RoyalBlue"),
                EventDef(9, "tick", "red"),
                RankName(rank, f"P{rank}")]
        records: list = []
        for i in range(n):
            t = 1e-4 * (rank + 1) * (i + 1)
            records.append(BareEvent(t, rank, 9, f"r{rank}.{i}"))
        records.append(MsgEvent(1e-2 + rank * 1e-4, rank, rank % 2,
                                (rank + 1) % ranks, 3, 32))
        log = SimpleNamespace(definitions=defs,
                              sync_points=[SyncPoint(0.0, 0.0)],
                              records=records)
        AppendPartialWriter(partial_path(base, rank), rank,
                            1e-6).checkpoint(log)


def finish_run(base: str, *, ok: bool = True, reason: str = "",
               crashed: dict | None = None) -> None:
    atomic_write_json(exit_path(base), {
        "finished": True, "ok": ok, "reason": reason,
        "crashed_ranks": crashed or {}})


def merge_and_clean(base: str) -> None:
    """What a clean engine finalize does: merge, then drop partials."""
    import os

    from repro.mpe.salvage import find_partials, merge_partial_logs

    partials = find_partials(base)
    merge_partial_logs(base, out_path=base, errors="salvage")
    for path in partials:
        os.remove(path)


@pytest.fixture
def service(tmp_path):
    import time

    base = str(tmp_path / "run.clog2")
    write_run(base)
    svc = StreamService(base, policy=FAST, expected_ranks=2).start()
    # Let the live phase attach to both partials before the engine's
    # clean finalize merges them away.
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if sum(c.records for c in svc.follower.cursors.ranks.values()) == 14:
            break
        time.sleep(0.002)
    else:
        pytest.fail("follower never attached to the partials")
    merge_and_clean(base)
    finish_run(base)
    assert svc.wait_finalized(30.0)
    yield svc
    svc.stop()


def get(svc: StreamService, path: str):
    with urllib.request.urlopen(svc.url + path.lstrip("/"),
                                timeout=10.0) as resp:
        return resp.status, dict(resp.headers), resp.read()


def get_json(svc: StreamService, path: str) -> dict:
    status, _headers, body = get(svc, path)
    assert status == 200
    return json.loads(body)


def test_viewer_page_is_served(service):
    status, headers, body = get(service, "/")
    assert status == 200
    assert headers["Content-Type"].startswith("text/html")
    assert b"<canvas" in body


def test_status_reports_a_clean_final_run(service):
    status = get_json(service, "/status")
    assert status["state"] == "final"
    assert status["final"] and not status["degraded"]
    assert status["banner"] == ""
    assert status["epoch"] == 2  # provisional epoch 1, bumped at swap
    assert status["num_ranks"] == 2
    assert status["markers"] == []
    assert {c["name"] for c in status["categories"]} >= {"work", "tick"}


def test_ranks_carry_names_and_cursors(service):
    ranks = get_json(service, "/ranks")["ranks"]
    assert [r["rank"] for r in ranks] == [0, 1]
    assert [r["name"] for r in ranks] == ["P0", "P1"]
    for r in ranks:
        assert r["records"] == 7
        assert r["torn_bytes"] == 0
        assert not r["crashed"]


def test_tiles_match_the_direct_render_and_carry_epoch_headers(service):
    status, headers, body = get(service, "/tiles/0/0")
    assert status == 200
    assert headers["X-Epoch"] == "2"
    assert headers["X-Final"] == "1"
    direct, epoch, final = service.tile(0, 0)
    assert (body, int(headers["X-Epoch"]), final) == (direct, epoch, True)
    # A second fetch is a cache hit serving identical bytes.
    _status, headers2, body2 = get(service, "/tiles/0/0")
    assert body2 == body and headers2["X-Epoch"] == headers["X-Epoch"]
    assert service.cache.hits >= 1


def test_tile_error_codes(service):
    for path, want in [("/tiles/0/5", 400),  # frame outside level 0
                       ("/tiles/99/0", 400),  # level beyond MAX
                       ("/tiles/a/b", 400),  # non-numeric
                       ("/tiles/0", 404),  # malformed address
                       ("/definitely/not", 404)]:
        with pytest.raises(urllib.error.HTTPError) as info:
            get(service, path)
        assert info.value.code == want, path


def test_crashed_run_is_degraded_with_banner_and_marker(tmp_path):
    base = str(tmp_path / "run.clog2")
    write_run(base, ranks=3)
    finish_run(base, ok=False, reason="rank 1 exploded",
               crashed={"1": 0.004})
    svc = StreamService(base, policy=FAST, expected_ranks=3).start()
    try:
        assert svc.wait_finalized(30.0)
        status = get_json(svc, "/status")
        assert status["state"] == "degraded"
        assert status["banner"]  # the salvage banner, viewer-visible
        assert any(m["rank"] == 1 and m["kind"] == "crashed"
                   for m in status["markers"])
        ranks = get_json(svc, "/ranks")["ranks"]
        assert [r["crashed"] for r in ranks] == [False, True, False]
    finally:
        svc.stop()


def test_tile_before_any_fold_is_404(tmp_path):
    base = str(tmp_path / "empty.clog2")
    svc = StreamService(base, policy=FAST)
    # Not started: no records were ever folded, so there is no tree.
    with pytest.raises(LookupError):
        svc.tile(0, 0)
    svc._httpd.server_close()


def test_sse_clients_see_the_finalized_event(tmp_path):
    base = str(tmp_path / "run.clog2")
    write_run(base)
    svc = StreamService(base, policy=FAST, expected_ranks=2).start()
    try:
        resp = urllib.request.urlopen(svc.url + "events", timeout=10.0)
        assert resp.headers["Content-Type"] == "text/event-stream"
        # Only now does the writer end: the subscriber must be told.
        finish_run(base)
        saw = []
        while True:
            line = resp.readline().decode("utf-8").strip()
            if line.startswith("event: "):
                saw.append(line[len("event: "):])
            if "finalized" in saw:
                break
        resp.close()
        assert "finalized" in saw
    finally:
        svc.stop()


def test_live_tiles_are_not_served_stale_from_the_cache(tmp_path):
    import time

    from repro.mpe.salvage import AppendPartialWriter

    base = str(tmp_path / "run.clog2")
    log = SimpleNamespace(
        definitions=[EventDef(9, "tick", "red")],
        sync_points=[SyncPoint(0.0, 0.0)],
        records=[BareEvent(1e-4 * (i + 1), 0, 9, f"r{i}")
                 for i in range(4)])
    writer = AppendPartialWriter(partial_path(base, 0), 0, 1e-6)
    writer.checkpoint(log)
    svc = StreamService(base, policy=FAST).start()
    try:
        def folded() -> int:
            return svc.fold.records_folded

        deadline = time.monotonic() + 30.0
        while folded() < 3 and time.monotonic() < deadline:
            time.sleep(0.002)
        assert folded() >= 3
        first = svc.tile(0, 0)[0]
        assert svc.tile(0, 0)[0] == first  # cached while nothing folds

        log.records.extend(BareEvent(1e-3 + 1e-4 * i, 0, 9, f"n{i}")
                           for i in range(4))
        writer.checkpoint(log)
        count = folded()
        while folded() <= count and time.monotonic() < deadline:
            time.sleep(0.002)
        # New folds invalidated the live cache: the tile grew.
        assert svc.tile(0, 0)[0] != first
    finally:
        svc.stop()


def test_slow_sse_client_drops_events_instead_of_blocking(tmp_path):
    from repro.stream.service import _CLIENT_QUEUE_EVENTS

    base = str(tmp_path / "run.clog2")
    svc = StreamService(base, policy=FAST)
    q = svc.subscribe()
    for i in range(_CLIENT_QUEUE_EVENTS * 2):
        svc._broadcast("watermark", {"i": i})  # must never block
    assert q.qsize() == _CLIENT_QUEUE_EVENTS
    svc.unsubscribe(q)
    svc._broadcast("watermark", {"i": -1})  # no subscribers: no-op
    svc._httpd.server_close()


def test_discover_base_and_cli_parser(tmp_path):
    from repro.stream.__main__ import build_parser, discover_base

    base = str(tmp_path / "run.clog2")
    write_run(base)
    assert discover_base(str(tmp_path)) == base
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(SystemExit):
        discover_base(str(empty))
    # A non-directory path is taken as the base path verbatim.
    assert discover_base(base) == base

    args = build_parser().parse_args(
        ["serve", str(tmp_path), "--port", "0", "--deadline", "2.5"])
    assert args.deadline == 2.5
    assert args.path == str(tmp_path)


def test_keep_alive_status_is_one_segment(tmp_path):
    """Ten ``GET /status`` on one HTTP/1.1 connection to an idle service.
    With the headers and body in separate segments, Nagle plus the
    client's delayed ACK held every response back ~40 ms."""
    import http.client
    import statistics
    import time

    svc = StreamService(str(tmp_path / "idle.clog2"), policy=FAST).start()
    conn = http.client.HTTPConnection("127.0.0.1", svc.port, timeout=10.0)
    try:
        took = []
        for _ in range(10):
            t0 = time.perf_counter()
            conn.request("GET", "/status")
            resp = conn.getresponse()
            assert resp.status == 200
            json.loads(resp.read())
            took.append(time.perf_counter() - t0)
    finally:
        conn.close()
        svc.stop()
    assert statistics.median(took) < 0.020, took


def test_served_requests_are_timed(tmp_path):
    from repro.perf import PerfRecorder

    perf = PerfRecorder()
    svc = StreamService(str(tmp_path / "idle.clog2"), policy=FAST,
                        perf=perf).start()
    try:
        sizes = [len(get(svc, path)[2]) for path in ("/status", "/ranks")]
    finally:
        svc.stop()
    serve = perf.stages["stream-serve"]
    assert serve.calls == 2
    assert serve.bytes == sum(sizes)
    assert serve.seconds > 0


def test_polls_race_new_ranks_and_a_crash(tmp_path):
    """Handlers serve published snapshots, so clients polling hard while
    the follower attaches new ranks and records a crash never see a
    dropped connection or a 5xx, and every request is timed once."""
    import http.client
    import sys
    import threading
    import time

    from repro.perf import PerfRecorder

    base = str(tmp_path / "run.clog2")
    perf = PerfRecorder()
    svc = StreamService(base, policy=FAST, expected_ranks=6,
                        perf=perf).start()
    stop = threading.Event()
    failures: list[str] = []
    served = [0] * 8

    def poll(me: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", svc.port,
                                          timeout=10.0)
        try:
            while not stop.is_set():
                for path in ("/status", "/ranks"):
                    conn.request("GET", path)
                    resp = conn.getresponse()
                    json.loads(resp.read())
                    if resp.status != 200:
                        failures.append(f"{path}: HTTP {resp.status}")
                    served[me] += 1
        except (OSError, http.client.HTTPException, ValueError) as exc:
            failures.append(repr(exc))
        finally:
            conn.close()

    pollers = [threading.Thread(target=poll, args=(me,))
               for me in range(len(served))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in pollers:
            thread.start()
        logs: dict = {}
        writers: dict = {}
        for step in range(6):
            # Rank ``step`` brings up its partial; the others grow.
            logs[step] = SimpleNamespace(
                definitions=[EventDef(9, "tick", "red"),
                             RankName(step, f"P{step}")],
                sync_points=[SyncPoint(0.0, 0.0)], records=[])
            writers[step] = AppendPartialWriter(partial_path(base, step),
                                                step, 1e-6)
            for rank, log in logs.items():
                log.records.extend(
                    BareEvent(1e-4 * (step * 8 + i + 1), rank, 9, "x")
                    for i in range(8))
                writers[rank].checkpoint(log)
            time.sleep(0.02)
        finish_run(base, ok=False, reason="rank 2 crashed",
                   crashed={"2": 0.003})
        assert svc.wait_finalized(30.0)
        time.sleep(0.05)  # keep polling the final snapshot too
    finally:
        stop.set()
        for thread in pollers:
            thread.join(30.0)
        sys.setswitchinterval(interval)
        # A handler records its request just after sending the reply.
        deadline = time.monotonic() + 10.0
        while (perf.stages["stream-serve"].calls < sum(served)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        status = svc.status()
        ranks = svc.ranks()["ranks"]
        svc.stop()
    assert not any(thread.is_alive() for thread in pollers)
    assert failures == [], failures[:5]
    assert sum(served) > 16
    assert perf.stages["stream-serve"].calls == sum(served)
    assert status["state"] == "degraded"
    assert [r["rank"] for r in ranks] == list(range(6))
    assert [r["crashed"] for r in ranks] == [r == 2 for r in range(6)]


def test_empty_poll_leaves_the_cursor_sidecar_untouched(tmp_path):
    import os

    from repro.stream.cursors import cursors_path

    base = str(tmp_path / "run.clog2")
    write_run(base)
    svc = StreamService(base, policy=FAST)  # polled by hand, not started
    try:
        svc._poll_once()
        sidecar = cursors_path(base)
        before = os.stat(sidecar)
        assert svc._poll_once() is False  # nothing new on disk
        after = os.stat(sidecar)
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino,
                                                     before.st_mtime_ns)
        # A pass that does move a cursor still persists it.
        write_run(base, ranks=3)
        assert svc._poll_once() is True
        assert os.stat(sidecar).st_ino != before.st_ino
    finally:
        svc._httpd.server_close()
