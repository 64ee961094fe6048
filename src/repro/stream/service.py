"""The live trace streaming service.

:class:`StreamService` glues the follower (:mod:`repro.stream.follow`),
the watermark fold (:mod:`repro.stream.fold`) and the tile renderer
(:mod:`repro.stream.tiles`) behind a stdlib HTTP server:

* ``GET /``        — the built-in viewer page;
* ``GET /status``  — run state, watermark, categories, markers, banner;
* ``GET /ranks``   — per-rank follow cursors and names;
* ``GET /tiles/<level>/<frame>`` — one canonical frame tile (cached);
* ``GET /events``  — Server-Sent Events: ``watermark`` / ``ranks`` /
  ``degraded`` / ``finalized``.

The follower thread runs one pass whenever it is woken: at once when
a writer in the same process (a ``-pisvc=v`` run's salvage checkpoints
and its exit sidecar) writes one of the exact files the follower
reads (:func:`repro._util.fsio.notify_written`), and otherwise on a
timer under the service's :class:`~repro._util.retry.RetryPolicy`,
which backs off while the files are quiet and snaps back when a timed
pass finds growth.  A writer in another process raises no signal, so
it is followed by the timed polls alone, as is every change the
signal does not cover.  Each pass folds eligible records into a
*provisional* frame tree and persists resume cursors if it moved
them.  It is the only thread that touches the follower
and the fold: after each pass that changed something it publishes an
immutable ``/status`` + ``/ranks`` snapshot, and the handlers serve
copies of that, never the live state.  When the writer ends — cleanly
or not — the service rebuilds the **canonical** tree through the exact
batch pipeline (strict read of the merged log, or a salvage merge of
the partials with the crash banner attached), atomically swaps it in,
bumps the tile epoch and clears the cache: from that moment every tile
served is byte-identical to one rendered straight off the batch
pipeline.

Slow or dead clients cannot wedge the service: the HTTP server is
threading with daemon threads, every client socket carries a send
timeout, and each SSE subscriber owns a bounded queue whose overflow
drops events (the client resyncs from ``/status``; it never blocks the
follower).
"""

from __future__ import annotations

import json
import queue
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING

from repro._util.fsio import unwatch_writes, watch_writes
from repro._util.retry import RetryPolicy
from repro.jumpshot.markers import rank_markers
from repro.mpe.salvage import find_partials, merge_partial_logs, partial_path
from repro.perf import NO_PERF, PerfRecorder
from repro.slog2.convert import convert_with_tree
from repro.stream.follow import DEFAULT_POLICY, LogFollower, exit_path
from repro.stream.tiles import (
    DEFAULT_CACHE_TILES,
    MAX_TILE_LEVEL,
    TileCache,
    render_tile,
)
from repro.stream.viewer import VIEWER_HTML

if TYPE_CHECKING:  # pragma: no cover
    from repro.slog2.frames import FrameTree
    from repro.slog2.model import Slog2Doc

#: Suffix of the salvage-merged CLOG2 the finalize step writes when the
#: run did not finalize itself (kept separate from the base path so the
#: service never clobbers a file other tooling owns).
STREAM_MERGE_SUFFIX = ".stream.clog2"

_CLIENT_QUEUE_EVENTS = 64


class StreamService:
    """Follow one run's logs and serve its timeline live."""

    def __init__(self, base_path: str, *,
                 host: str = "127.0.0.1", port: int = 0,
                 policy: RetryPolicy | None = None,
                 cursors_file: str | None = None,
                 journal_dir: str | None = None,
                 expected_ranks: int | None = None,
                 frame_size: int | None = None,
                 cache_tiles: int = DEFAULT_CACHE_TILES,
                 client_timeout: float = 5.0,
                 perf: PerfRecorder = NO_PERF) -> None:
        self.base_path = base_path
        self.host = host
        self.policy = policy or DEFAULT_POLICY
        self.expected_ranks = expected_ranks
        self.client_timeout = client_timeout
        self.perf = perf
        self.follower = LogFollower(base_path, policy=self.policy,
                                    cursors_file=cursors_file,
                                    journal_dir=journal_dir, perf=perf,
                                    on_new_rank=self._watch_rank)
        from repro.stream.fold import LiveFold

        self.fold = LiveFold(frame_size=frame_size, perf=perf)
        self.cache = TileCache(cache_tiles)
        self.epoch = 1
        self.final = False
        self.degraded = False
        self.reason = ""
        self.banner = ""
        self._doc: "Slog2Doc | None" = None
        self._tree: "FrameTree | None" = None
        # Guards what handler threads read: the tree, epoch and final
        # flag tiles render from, and the published snapshots.
        self._lock = threading.Lock()
        self._status: dict = {}
        self._ranks: dict = {}
        self._publish()
        self._clients: list[queue.Queue] = []
        self._clients_lock = threading.Lock()
        self._stop = threading.Event()
        # Set by an in-process write to a followed file, and by stop().
        self._wake = threading.Event()
        self._finalized = threading.Event()
        self._httpd = _Server((host, port), _make_handler(self))
        self._http_thread: threading.Thread | None = None
        self._follow_thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/"

    def start(self) -> "StreamService":
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="stream-http",
            daemon=True)
        self._http_thread.start()
        self._follow_thread = threading.Thread(
            target=self._follow_loop, name="stream-follow", daemon=True)
        self._follow_thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._wake.set()
        self._broadcast("shutdown", {})
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._follow_thread is not None:
            self._follow_thread.join(timeout=5.0)
        if self._http_thread is not None:
            self._http_thread.join(timeout=5.0)

    def wait_finalized(self, timeout: float | None = None) -> bool:
        return self._finalized.wait(timeout)

    # -- follower loop -----------------------------------------------------

    def _follow_loop(self) -> None:
        delays = self.policy.delays(random.Random(0))
        base = self.base_path
        # The exact files the follower reads; the cursor sidecar is not
        # one of them, so the follower's own saves never wake it.
        watch_writes(self._wake, [
            exit_path(base),
            *(partial_path(base, r)
              for r in {*range(self.expected_ranks or 0),
                        *self.follower.cursors.ranks})])
        woken = False
        try:
            while not self._stop.is_set():
                grew = self._poll_once()
                if self.follower.finished:
                    self._finalize()
                    return
                if grew and not woken:
                    # Timed growth resets the backoff schedule: a
                    # foreign writer is re-polled eagerly, a quiet one
                    # ever more lazily (bounded by the policy's
                    # max_delay).  Passes an in-process writer woke
                    # leave it alone, so the timer drifts to max_delay
                    # while that writer drives the polls.
                    delays = self.policy.delays(random.Random(0))
                woken = self._wake.wait(next(delays))
                self._wake.clear()
        except Exception as exc:  # pragma: no cover - last-resort guard
            self.degraded = True
            self.reason = f"stream service internal error: {exc!r}"
            self._publish()
            self._broadcast("degraded", {"reason": self.reason})
            self._finalized.set()
        finally:
            unwatch_writes(self._wake)

    def _watch_rank(self, rank: int) -> None:
        watch_writes(self._wake, [partial_path(self.base_path, rank)])

    def _poll_once(self) -> bool:
        perf = self.perf
        with perf.stage("stream-tail"):
            update = self.follower.poll()
        self.fold.absorb(update)
        for rank in update.refused_ranks:
            self.fold.mark_rank_finished(rank)
        if update.finished:
            for rank in self.follower.cursors.ranks:
                self.fold.mark_rank_finished(rank)
        # Before the fold, so the tree a fold builds is published the
        # moment it exists, not one fsync later.
        moved = self.follower.save_cursors()
        with perf.stage("stream-fold"):
            folded = self.fold.advance()
        newly_degraded = update.degraded and not self.degraded
        if newly_degraded:
            self.degraded = True
            self.reason = update.reason
        if folded or moved:
            self._publish(self.fold.tree if folded else None)
        if update.new_ranks:
            self._broadcast("ranks", {"new_ranks": update.new_ranks})
        if folded:
            self._broadcast("watermark", {
                "watermark": self.fold.watermark,
                "records_folded": self.fold.records_folded,
                "epoch": self.epoch})
        if newly_degraded:
            self._broadcast("degraded", {
                "reason": update.reason,
                "crashed_ranks": {str(r): at for r, at
                                  in update.crashed_ranks.items()}})
        return update.grew

    def _publish(self, tree: "FrameTree | None" = None, *,
                 final: bool = False) -> None:
        """Show handlers the follower's latest state: the tree tiles
        render from (when ``tree`` is given), then fresh ``/status`` and
        ``/ranks`` snapshots.  Follower thread only (and the
        constructor), so the fold and follower state read here cannot
        change underneath it."""
        if tree is not None or final:
            with self._lock:
                if tree is not None:
                    self._tree = tree
                if final:
                    self.final = True
                    self.epoch += 1
                # Tiles cached from the old tree are stale now.  The
                # live phase keeps one epoch; finalize bumps it, so
                # final tiles stay cached forever.
                self.cache.clear()
        status = self._status_snapshot()
        ranks = self._ranks_snapshot()
        with self._lock:
            self._status = status
            self._ranks = ranks

    # -- finalize: swap in the canonical batch tree ------------------------

    def _finalize(self) -> None:
        import os

        try:
            partials = find_partials(self.base_path)
        except OSError:
            partials = []
        doc = tree = None
        try:
            if partials:
                # The writer died before merging: salvage-merge exactly
                # as the batch pipeline would, into a sidecar output.
                result = merge_partial_logs(
                    self.base_path,
                    out_path=self.base_path + STREAM_MERGE_SUFFIX,
                    errors="salvage",
                    expected_ranks=self.expected_ranks,
                    crashed_ranks=self.follower.crashed_ranks,
                    perf=self.perf)
                log, recovery = result.log, result.recovery
            elif os.path.exists(self.base_path):
                # Clean finalize already merged (and removed) the
                # partials; read the merged log the strict way first —
                # tolerating damage there would hide a writer bug.
                from repro.mpe.clog2 import Clog2FormatError, read_log

                try:
                    log, recovery = read_log(self.base_path)
                except Clog2FormatError:
                    log, recovery = read_log(self.base_path,
                                             errors="salvage")
            else:
                # Nothing on disk at all: the writer died before its
                # first flush.  The provisional fold is all there is.
                self._drain_provisional()
                return
            doc, _report, tree = convert_with_tree(
                log, recovery=recovery,
                crashed_ranks=self.follower.crashed_ranks or None,
                perf=self.perf)
        except Exception as exc:
            self.degraded = True
            self.reason = (self.reason
                           or f"batch finalize failed: {exc!r}")
            self._drain_provisional()
            return
        # Same rule as the Jumpshot viewers: any non-empty recovery
        # report (drops, missing ranks, crash annotations) is bannered.
        if doc.salvaged is not None and not doc.salvaged.empty:
            self.banner = doc.salvaged.banner()
        self.degraded = self.degraded or bool(self.banner)
        self._doc = doc
        self._finish(tree)

    def _drain_provisional(self) -> None:
        """Last resort: no batch input exists, so promote whatever the
        provisional fold holds (watermark lifted)."""
        self.fold.advance(drain=True)
        self.banner = self.reason
        self._finish(self.fold.tree)

    def _finish(self, tree: "FrameTree | None") -> None:
        self._publish(tree, final=True)
        self._finalized.set()
        self._broadcast("finalized", {
            "epoch": self.epoch, "degraded": self.degraded,
            "banner": self.banner, "reason": self.reason})

    # -- views the handler serves ------------------------------------------

    def tile(self, level: int, frame: int) -> tuple[bytes, int, bool]:
        """(body, epoch, final) for one tile address; raises
        :class:`ValueError` on a bad address, :class:`LookupError` when
        there is no tree yet."""
        with self._lock:
            tree = self._tree
            epoch = self.epoch
            final = self.final
        if tree is None:
            raise LookupError("no records folded yet")
        cached = self.cache.get(epoch, level, frame)
        if cached is not None:
            return cached, epoch, final
        body = render_tile(tree, level, frame)
        self.cache.put(epoch, level, frame, body)
        return body, epoch, final

    def status(self) -> dict:
        """The last published status plus the tile cache's counters."""
        with self._lock:
            status = dict(self._status)
        status["cache"] = {"tiles": len(self.cache),
                           "hits": self.cache.hits,
                           "misses": self.cache.misses}
        return status

    def ranks(self) -> dict:
        """The last published per-rank cursors."""
        with self._lock:
            return dict(self._ranks)

    def record_request(self, seconds: float, nbytes: int) -> None:
        """Account one served request to the ``stream-serve`` stage."""
        self.perf.record("stream-serve", seconds)
        self.perf.count("stream-serve", bytes=nbytes)

    def _status_snapshot(self) -> dict:
        doc = self._doc
        final = self.final
        if final:
            state = "degraded" if self.degraded else "final"
        else:
            state = "live"
        if doc is not None:
            categories = doc.categories
            markers = rank_markers(doc)
            num_ranks = doc.num_ranks
        else:
            categories = self.fold.categories()
            markers = [  # provisional: crashes known before finalize
                _ProvisionalMarker(rank, at)
                for rank, at in sorted(
                    self.follower.crashed_ranks.items())]
            num_ranks = self.fold.num_ranks
        tree = self._tree
        span = ((tree.root.t0, tree.root.t1) if tree is not None
                else self.fold.span())
        return {
            "state": state,
            "final": final,
            "degraded": self.degraded,
            "reason": self.reason,
            "banner": self.banner,
            "epoch": self.epoch,
            "watermark": self.fold.watermark,
            "records_folded": self.fold.records_folded,
            "records_buffered": self.fold.buffered_records(),
            "num_ranks": num_ranks,
            "span": list(span),
            "resumed": self.follower.resumed,
            "categories": [{"index": c.index, "name": c.name,
                            "color": c.color, "shape": c.shape}
                           for c in categories],
            "markers": [{"rank": m.rank, "kind": m.kind, "at": m.at,
                         "label": m.label} for m in markers],
        }

    def _ranks_snapshot(self) -> dict:
        names = self.fold.rank_names()
        out = []
        for rank, cur in sorted(self.follower.cursors.ranks.items()):
            out.append({
                "rank": rank,
                "name": names.get(rank, f"rank {rank}"),
                "offset": cur.offset,
                "records": cur.records,
                "torn_bytes": cur.torn_bytes,
                "frontier": cur.frontier,
                "crashed": rank in self.follower.crashed_ranks,
            })
        return {"ranks": out}

    # -- SSE plumbing ------------------------------------------------------

    def subscribe(self) -> queue.Queue:
        q: queue.Queue = queue.Queue(maxsize=_CLIENT_QUEUE_EVENTS)
        with self._clients_lock:
            self._clients.append(q)
        return q

    def unsubscribe(self, q: queue.Queue) -> None:
        with self._clients_lock:
            try:
                self._clients.remove(q)
            except ValueError:
                pass

    def _broadcast(self, event: str, data: dict) -> None:
        payload = (event, json.dumps(data, sort_keys=True))
        with self._clients_lock:
            clients = list(self._clients)
        for q in clients:
            try:
                q.put_nowait(payload)
            except queue.Full:
                pass  # slow client: it resyncs from /status


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # socketserver listens with a backlog of 5.  A burst of clients
    # connecting at once overflows it, and the kernel retries each
    # dropped connect only after 1, 3, 7, 15... s.
    request_queue_size = 128


class _ProvisionalMarker:
    """Crash marker shape before the batch doc exists (duck-typed to
    :class:`repro.jumpshot.markers.RankMarker` for /status)."""

    __slots__ = ("rank", "kind", "at", "label")

    def __init__(self, rank: int, at: float | None) -> None:
        self.rank = rank
        self.kind = "crashed"
        self.at = at
        self.label = (f"rank {rank} crashed"
                      + (f" at {at:.9f}" if at is not None else ""))


def _make_handler(service: StreamService) -> type:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # A response goes out as two writes (headers, then body).  On a
        # keep-alive socket Nagle's algorithm would hold the body until
        # the client ACKs the headers, which a delayed ACK puts off by
        # ~40 ms; TCP_NODELAY sends both at once.
        disable_nagle_algorithm = True

        # The service's logs go through its own channel; per-request
        # stderr noise would swamp a chaos run.
        def log_message(self, fmt: str, *args: object) -> None:
            pass

        def setup(self) -> None:
            super().setup()
            self.connection.settimeout(service.client_timeout)

        def do_GET(self) -> None:  # noqa: N802  (stdlib naming)
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            started = time.perf_counter()
            self._sent = 0
            try:
                if path == "/events":
                    self._events()  # unbounded: not a timed request
                    return
                self._route(path)
            except OSError:
                return  # slow/dead client: drop it, never the service
            service.record_request(time.perf_counter() - started,
                                   self._sent)

        def _route(self, path: str) -> None:
            if path == "/":
                self._send(200, VIEWER_HTML.encode("utf-8"),
                           "text/html; charset=utf-8")
            elif path == "/status":
                self._json(200, service.status())
            elif path == "/ranks":
                self._json(200, service.ranks())
            elif path.startswith("/tiles/"):
                self._tile(path)
            else:
                self._json(404, {"error": f"no such endpoint: {path}"})

        def _tile(self, path: str) -> None:
            parts = path.split("/")
            if len(parts) != 4:
                self._json(404, {"error": "tile address is "
                                          "/tiles/<level>/<frame>"})
                return
            try:
                level, frame = int(parts[2]), int(parts[3])
            except ValueError:
                self._json(400, {"error": "tile address must be numeric"})
                return
            if not 0 <= level <= MAX_TILE_LEVEL:
                self._json(400, {"error": f"level out of range: {level}"})
                return
            try:
                body, epoch, final = service.tile(level, frame)
            except ValueError as exc:
                self._json(400, {"error": str(exc)})
                return
            except LookupError as exc:
                self._json(404, {"error": str(exc)})
                return
            self._send(200, body, "application/json",
                       extra={"X-Epoch": str(epoch),
                              "X-Final": "1" if final else "0"})

        def _events(self) -> None:
            q = service.subscribe()
            try:
                self.send_response(200)
                self.send_header("Content-Type", "text/event-stream")
                self.send_header("Cache-Control", "no-store")
                # SSE is an unbounded response; HTTP/1.1 keep-alive
                # framing does not apply.
                self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(b": stream attached\n\n")
                self.wfile.flush()
                while not service._stop.is_set():
                    try:
                        event, data = q.get(timeout=1.0)
                    except queue.Empty:
                        self.wfile.write(b": keepalive\n\n")
                        self.wfile.flush()
                        continue
                    if event == "shutdown":
                        break
                    msg = f"event: {event}\ndata: {data}\n\n"
                    self.wfile.write(msg.encode("utf-8"))
                    self.wfile.flush()
            finally:
                service.unsubscribe(q)

        def _json(self, code: int, data: dict) -> None:
            self._send(code, json.dumps(data, sort_keys=True).encode(
                "utf-8"), "application/json")

        def _send(self, code: int, body: bytes, ctype: str, *,
                  extra: dict[str, str] | None = None) -> None:
            self.send_response(code)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(body)))
            for key, value in (extra or {}).items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(body)
            self._sent += len(body)

    return Handler


def serve_until_final(base_path: str, *, host: str = "127.0.0.1",
                      port: int = 0, timeout: float | None = None,
                      **kw: object) -> StreamService:
    """Start a service and block until the run finalizes (used by
    ``python -m repro.stream serve --until-final`` and the tests)."""
    service = StreamService(base_path, host=host, port=port,
                            **kw)  # type: ignore[arg-type]
    service.start()
    service.wait_finalized(timeout)
    return service
