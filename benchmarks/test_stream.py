"""Stream service — tail-to-tile latency and RSS under client load.

The live streaming service's promise is "the timeline you see is at
most a poll interval behind the writer".  This benchmark drives a
scripted writer appending batches to per-rank partials while a real
:class:`~repro.stream.service.StreamService` follows them, and
measures, per batch, the **tail-to-tile latency**: the wall time from
the append landing on disk to a freshly rendered tile reflecting the
fold that consumed it.  While the stream runs, ``CLIENTS`` concurrent
HTTP clients hammer ``/status`` and the level-0 tile, so the p50/p95
include lock contention from a realistically busy server, and
steady-state RSS is recorded under that same load.

Results land in ``benchmarks/out/BENCH_stream.json``.  CI runners are
noisy, so the gates are overridable: ``STREAM_MAX_P50_MS``,
``STREAM_MAX_P95_MS``, ``STREAM_MAX_RSS_MB``.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
import urllib.request
from types import SimpleNamespace

import pytest

from repro._util.fsio import atomic_write_json
from repro._util.retry import RetryPolicy
from repro.mpe.clocksync import SyncPoint
from repro.mpe.records import BareEvent, EventDef
from repro.mpe.salvage import (
    AppendPartialWriter,
    find_partials,
    merge_partial_logs,
    partial_path,
)
from repro.perf import PerfRecorder, peak_rss_bytes
from repro.stream.follow import exit_path
from repro.stream.service import StreamService

RANKS = 4
BATCHES = 25
BATCH_RECORDS = 100  # per rank per batch -> 10k records total
CLIENTS = 64
CLIENT_REQUESTS = 4

MAX_P50_MS = float(os.environ.get("STREAM_MAX_P50_MS", "250"))
MAX_P95_MS = float(os.environ.get("STREAM_MAX_P95_MS", "1500"))
MAX_RSS_MB = float(os.environ.get("STREAM_MAX_RSS_MB", "2048"))

POLICY = RetryPolicy(deadline=30.0, initial=0.002, max_delay=0.01,
                     jitter=0.0)


def _percentiles(samples: list[float]) -> tuple[float, float]:
    ordered = sorted(samples)
    mid = ordered[len(ordered) // 2]
    p95 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.95))]
    return mid, p95


def _client_load(service: StreamService, stop: threading.Event,
                 errors: list[str]) -> None:
    for _ in range(CLIENT_REQUESTS):
        if stop.is_set():
            return
        for endpoint in ("status", "tiles/0/0"):
            try:
                with urllib.request.urlopen(service.url + endpoint,
                                            timeout=30.0) as resp:
                    resp.read()
            except Exception as exc:  # noqa: BLE001 - recorded, asserted
                if "404" not in str(exc):  # no tree yet is fine
                    errors.append(f"{endpoint}: {exc}")
                    return


def test_stream_tail_to_tile_latency(comparison, tmp_path, artifacts_dir):
    base = str(tmp_path / "bench.clog2")
    logs = {}
    writers = {}
    for rank in range(RANKS):
        logs[rank] = SimpleNamespace(
            definitions=[EventDef(9, "tick", "red")],
            sync_points=[SyncPoint(0.0, 0.0)],
            records=[])
        writers[rank] = AppendPartialWriter(partial_path(base, rank),
                                            rank, 1e-6)

    perf = PerfRecorder()
    service = StreamService(base, policy=POLICY, expected_ranks=RANKS,
                            perf=perf).start()
    stop = threading.Event()
    client_errors: list[str] = []
    clients = [threading.Thread(target=_client_load,
                                args=(service, stop, client_errors),
                                daemon=True)
               for _ in range(CLIENTS)]

    fold_latencies: list[float] = []
    tile_latencies: list[float] = []
    total = 0
    try:
        for thread in clients:
            thread.start()
        for batch in range(BATCHES):
            for rank in range(RANKS):
                start = len(logs[rank].records)
                logs[rank].records.extend(
                    BareEvent((batch * BATCH_RECORDS + i + 1) * 1e-5
                              + rank * 1e-8, rank, 9, f"b{batch}")
                    for i in range(BATCH_RECORDS))
                writers[rank].checkpoint(logs[rank])
                assert len(logs[rank].records) == start + BATCH_RECORDS
            total += RANKS * BATCH_RECORDS
            # The strict watermark keeps each rank's frontier record
            # buffered; everything else from this batch must fold.
            target = total - RANKS
            appended = time.perf_counter()
            deadline = appended + 30.0
            while (service.fold.records_folded < target
                   and time.perf_counter() < deadline):
                time.sleep(0.0005)
            folded = time.perf_counter()
            assert service.fold.records_folded >= target, (
                f"batch {batch}: fold stuck at "
                f"{service.fold.records_folded}/{target}")
            body, _epoch, _final = service.tile(0, 0)
            served = time.perf_counter()
            assert body
            fold_latencies.append(folded - appended)
            tile_latencies.append(served - appended)
    finally:
        stop.set()
        for thread in clients:
            thread.join(timeout=30.0)

    rss_mb = peak_rss_bytes() / (1024 * 1024)
    # End the run the way a clean engine finalize does: merge the
    # partials into the base CLOG2, remove them, then write the exit
    # sidecar.  (Left on disk, they would send the service down its
    # salvage path, whose banner makes the run "degraded".)
    partials = find_partials(base)
    merge_partial_logs(base, out_path=base)
    for path in partials:
        os.remove(path)
    atomic_write_json(exit_path(base), {"finished": True, "ok": True,
                                        "crashed_ranks": {}})
    assert service.wait_finalized(30.0)
    final_status = service.status()
    service.stop()

    assert client_errors == [], client_errors[:5]
    assert final_status["records_folded"] >= total - RANKS
    assert final_status["state"] == "final", final_status["banner"]

    fold_p50, fold_p95 = _percentiles([s * 1e3 for s in fold_latencies])
    tile_p50, tile_p95 = _percentiles([s * 1e3 for s in tile_latencies])
    stages = {name: st for name, st in perf.snapshot()["stages"].items()
              if name.startswith("stream-")}

    table = comparison(
        f"stream tail-to-tile ({RANKS} ranks x {BATCHES} batches x "
        f"{BATCH_RECORDS} records, {CLIENTS} clients)")
    table.add("fold latency p50/p95", "—",
              f"{fold_p50:.1f}ms / {fold_p95:.1f}ms")
    table.add("tail-to-tile p50/p95",
              f"≤ {MAX_P50_MS:.0f}ms / ≤ {MAX_P95_MS:.0f}ms",
              f"{tile_p50:.1f}ms / {tile_p95:.1f}ms")
    table.add("steady-state RSS", f"≤ {MAX_RSS_MB:.0f} MiB",
              f"{rss_mb:.1f} MiB")
    table.add("records folded live", "—",
              str(final_status["records_folded"]))

    out = {
        "ranks": RANKS,
        "batches": BATCHES,
        "batch_records": BATCH_RECORDS,
        "records_total": total,
        "clients": CLIENTS,
        "fold_latency_ms": {"p50": fold_p50, "p95": fold_p95},
        "tail_to_tile_ms": {"p50": tile_p50, "p95": tile_p95},
        "rss_mb": rss_mb,
        "gates": {"max_p50_ms": MAX_P50_MS, "max_p95_ms": MAX_P95_MS,
                  "max_rss_mb": MAX_RSS_MB},
        "mean_fold_ms": statistics.fmean(s * 1e3 for s in fold_latencies),
        "perf_stages": stages,
        "final_state": final_status["state"],
        "cache": final_status["cache"],
    }
    path = os.path.join(artifacts_dir, "BENCH_stream.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)

    assert tile_p50 <= MAX_P50_MS, (
        f"tail-to-tile p50 {tile_p50:.1f}ms exceeds {MAX_P50_MS:.0f}ms")
    assert tile_p95 <= MAX_P95_MS, (
        f"tail-to-tile p95 {tile_p95:.1f}ms exceeds {MAX_P95_MS:.0f}ms")
    assert rss_mb <= MAX_RSS_MB, (
        f"steady-state RSS {rss_mb:.1f} MiB exceeds {MAX_RSS_MB:.0f} MiB")


if __name__ == "__main__":  # pragma: no cover - ad-hoc profiling entry
    pytest.main([__file__, "-q", "-s"])
