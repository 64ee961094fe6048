"""P1 — the streaming log pipeline against its pre-streaming ancestor.

The ROADMAP's performance north star says the vmpi → mpe → slog2 path
should run "as fast as the hardware allows".  This benchmark pins that
down: it runs the two paper applications (thumbnail, collisions) at
several scales, then times each pipeline stage twice — once with the
frozen pre-streaming implementation (:mod:`benchmarks._legacy`) and
once with the live streaming one — and writes the results to
``benchmarks/out/BENCH_pipeline.json`` (records/sec per stage, peak
RSS, end-to-end wall time).

Two properties are contractual, and asserted here at every scale:

* **Byte identity.**  The streaming writer, the fused merge→write, and
  the streaming converter must produce bit-for-bit the same CLOG2 and
  SLOG2 files as the legacy code.  A divergence fails the test (and
  the CI benchmark job).
* **Speed.**  At the largest scale the write + merge + convert path
  must be at least 1.5x faster in records/sec than the legacy path.

Timing uses best-of-``ROUNDS`` (the floor is the least noise-sensitive
estimator on a shared machine); the merge memory comparison runs
separately under ``tracemalloc`` so allocation tracking never pollutes
the timings.
"""

import json
import os
import time
import tracemalloc

import pytest

from benchmarks._legacy import (
    legacy_convert,
    legacy_merge_partial_objects,
    legacy_read_clog2,
    legacy_write_clog2,
)
from repro.apps import GOOD, CollisionConfig, ThumbnailConfig, collisions_main, thumbnail_main
from repro.mpe import read_log
from repro.mpe.clog2 import write_clog2, write_clog2_to
from repro.mpe.clocksync import SyncPoint
from repro.mpe.merge import dedup_definitions, merge_rank_streams, rank_stream
from repro.mpe.salvage import Partial
from repro.perf import peak_rss_bytes
from repro.pilot import PilotConfig, run_pilot
from repro.slog2 import convert, write_slog2

ROUNDS = 5

#: (name, main, nprocs) — ordered smallest to largest record count.
SCALES = [
    ("collisions-10k",
     lambda argv: collisions_main(argv, GOOD, CollisionConfig(nrecords=10_000)), 6),
    ("collisions-60k",
     lambda argv: collisions_main(argv, GOOD, CollisionConfig(nrecords=60_000)), 6),
    ("thumbnail-150",
     lambda argv: thumbnail_main(argv, ThumbnailConfig(nfiles=150)), 11),
    ("thumbnail-400",
     lambda argv: thumbnail_main(argv, ThumbnailConfig(nfiles=400)), 11),
    ("thumbnail-1058",
     lambda argv: thumbnail_main(argv, ThumbnailConfig(nfiles=1058)), 11),
]
LARGEST = "thumbnail-1058"
# The speed bar for the write + merge + convert path at the largest
# scale.  CI's shared runners are noisy, so the smoke job lowers the
# bar via this env var — byte identity stays a hard gate everywhere.
MIN_PATH_RATIO = float(os.environ.get("P1_MIN_PATH_RATIO", "1.5"))


def _best(fn) -> float:
    floor = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        fn()
        floor = min(floor, time.perf_counter() - t0)
    return floor


def _partials_from(log) -> list[Partial]:
    """Per-rank partials reconstructed from a merged log, with two
    synthetic sync points per rank so the merge exercises the piecewise
    clock-correction walk the way a real multi-sync run does.  Both
    merge implementations get the same partials, so the skew cancels
    out of the equivalence check."""
    by_rank: dict[int, list] = {}
    for rec in log.records:
        by_rank.setdefault(rec.rank, []).append(rec)
    partials = []
    for rank in sorted(by_rank):
        recs = by_rank[rank]
        sync = [SyncPoint(recs[0].timestamp, rank * 1.5e-5),
                SyncPoint(recs[-1].timestamp, rank * 0.7e-5)]
        partials.append(Partial(rank, sync,
                                log.definitions if rank == 0 else [],
                                recs, log.clock_resolution))
    return partials


def _stage(legacy_s: float, streaming_s: float, records: int) -> dict:
    return {
        "legacy_s": legacy_s,
        "streaming_s": streaming_s,
        "ratio": legacy_s / streaming_s,
        "records_per_s": {"legacy": records / legacy_s,
                          "streaming": records / streaming_s},
    }


def _measure_scale(name, main, nprocs, tmp_path):
    clog_path = str(tmp_path / f"{name}.clog2")
    t0 = time.perf_counter()
    run_pilot(main, nprocs, argv=("-pisvc=j",),
              config=PilotConfig(mpe_log_path=clog_path))
    run_wall = time.perf_counter() - t0
    log = read_log(clog_path).log
    records = len(log.records)

    # Stage: eager CLOG2 write of the same parsed log.
    legacy_clog = str(tmp_path / f"{name}-legacy.clog2")
    new_clog = str(tmp_path / f"{name}-new.clog2")
    t_wl = _best(lambda: legacy_write_clog2(legacy_clog, log))
    t_wn = _best(lambda: write_clog2(new_clog, log))
    with open(legacy_clog, "rb") as a, open(new_clog, "rb") as b:
        assert a.read() == b.read(), f"{name}: CLOG2 writer output diverged"

    # Stage: CLOG2 read.
    t_rl = _best(lambda: legacy_read_clog2(clog_path))
    t_rn = _best(lambda: read_log(clog_path))
    assert legacy_read_clog2(clog_path) == read_log(clog_path).log, \
        f"{name}: CLOG2 reader output diverged"

    # Stage: merge + write.  Legacy materialises corrected record
    # objects and sorts globally before an eager write; streaming
    # corrects per-rank streams, heap-merges them lazily, and packs the
    # corrected timestamps straight into the file.
    partials = _partials_from(log)

    def merge_legacy():
        merged = legacy_merge_partial_objects(partials)
        legacy_write_clog2(legacy_clog, merged)

    def merge_streaming():
        streams = [rank_stream(p.rank, p.records, p.sync_points)
                   for p in partials]
        defs = dedup_definitions(p.definitions for p in partials)
        with open(new_clog, "wb") as fh:
            write_clog2_to(fh, log.clock_resolution, len(partials), defs,
                           merge_rank_streams(streams))

    t_ml = _best(merge_legacy)
    t_mn = _best(merge_streaming)
    with open(legacy_clog, "rb") as a, open(new_clog, "rb") as b:
        assert a.read() == b.read(), f"{name}: merged CLOG2 diverged"

    # Stage: CLOG2 → SLOG2 conversion of the merged (skew-corrected) log.
    merged = legacy_merge_partial_objects(partials)
    t_cl = _best(lambda: legacy_convert(merged))
    t_cn = _best(lambda: convert(merged))
    legacy_doc, legacy_report = legacy_convert(merged)
    doc, report = convert(merged)
    legacy_slog = str(tmp_path / f"{name}-legacy.slog2")
    new_slog = str(tmp_path / f"{name}-new.slog2")
    write_slog2(legacy_slog, legacy_doc)
    write_slog2(new_slog, doc)
    with open(legacy_slog, "rb") as a, open(new_slog, "rb") as b:
        assert a.read() == b.read(), f"{name}: SLOG2 output diverged"
    assert (legacy_report.equal_drawables, legacy_report.causality_violations,
            legacy_report.unmatched_sends, legacy_report.unmatched_receives) \
        == (report.equal_drawables, report.causality_violations,
            report.unmatched_sends, report.unmatched_receives), \
        f"{name}: conversion reports diverged"

    return {
        "name": name,
        "nranks": nprocs,
        "records": records,
        "clog2_bytes": os.path.getsize(clog_path),
        "run_wall_s": run_wall,
        "stages": {
            "clog2-write": _stage(t_wl, t_wn, records),
            "clog2-read": _stage(t_rl, t_rn, records),
            "merge+clog2-write": _stage(t_ml, t_mn, records),
            "slog2-convert": _stage(t_cl, t_cn, records),
        },
        # The acceptance path: write + merge + convert.  The streaming
        # side's write is fused into the merge, so the path is the
        # merge+write stage plus conversion on both sides.
        "path_write_merge_convert": _stage(t_ml + t_cl, t_mn + t_cn, records),
        "end_to_end_wall_s": run_wall + t_rn + t_mn + t_cn,
        "byte_identical": True,
    }


def _merge_peak_alloc(partials, log) -> dict:
    """Peak Python allocation of each merge implementation (tracked
    separately from the timed runs — tracemalloc costs ~2x)."""
    out = {}
    sink = os.devnull

    def legacy():
        legacy_write_clog2(sink, legacy_merge_partial_objects(partials))

    def streaming():
        streams = [rank_stream(p.rank, p.records, p.sync_points)
                   for p in partials]
        with open(sink, "wb") as fh:
            write_clog2_to(fh, log.clock_resolution, len(partials),
                           dedup_definitions(p.definitions for p in partials),
                           merge_rank_streams(streams))

    for key, fn in (("legacy", legacy), ("streaming", streaming)):
        tracemalloc.start()
        fn()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        out[key] = peak
    return out


@pytest.mark.benchmark(group="pipeline")
def test_p1_streaming_pipeline(comparison, tmp_path, artifacts_dir):
    table = comparison("P1: streaming pipeline, legacy vs streaming "
                       f"(best of {ROUNDS})")
    results = []
    for name, main, nprocs in SCALES:
        entry = _measure_scale(name, main, nprocs, tmp_path)
        results.append(entry)
        path = entry["path_write_merge_convert"]
        table.add(f"{name} ({entry['records']} rec) w+m+c",
                  ">=1.5x @ largest",
                  f"{path['ratio']:.2f}x "
                  f"({path['records_per_s']['streaming']:,.0f} rec/s)")

    largest = next(e for e in results if e["name"] == LARGEST)
    assert largest["records"] == max(e["records"] for e in results)
    log = read_log(str(tmp_path / f"{LARGEST}.clog2")).log

    bench = {
        "benchmark": "P1 streaming pipeline",
        "rounds": ROUNDS,
        "scales": results,
        "largest_scale": LARGEST,
        "largest_path_ratio": largest["path_write_merge_convert"]["ratio"],
        "merge_peak_alloc_bytes": _merge_peak_alloc(_partials_from(log), log),
        "peak_rss_bytes": peak_rss_bytes(),
    }
    out = os.path.join(artifacts_dir, "BENCH_pipeline.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=2)
    print(f"\nwrote {out}")

    # The tentpole's bar: >=1.5x records/sec on the write + merge +
    # convert path at the largest scale, with byte-identical output
    # (asserted stage by stage above).
    assert bench["largest_path_ratio"] >= MIN_PATH_RATIO, (
        f"streaming pipeline only {bench['largest_path_ratio']:.2f}x "
        f"faster on the w+m+c path at {LARGEST}; contract is "
        f">={MIN_PATH_RATIO}x")


@pytest.mark.benchmark(group="pipeline")
def test_p1_pipeline_with_crc_framing(comparison, tmp_path, artifacts_dir):
    """The speed gate must survive durability: with version-2 CRC block
    framing enabled on the streaming side, the write + merge + convert
    path still beats the (un-framed) legacy path by the same ratio bar.
    CRC32 over ~256 KiB flush slabs is nearly free; this pins that down
    so the checksum option never silently becomes a perf regression."""
    name, main, nprocs = next(s for s in SCALES if s[0] == LARGEST)
    clog_path = str(tmp_path / f"{name}.clog2")
    run_pilot(main, nprocs, argv=("-pisvc=j",),
              config=PilotConfig(mpe_log_path=clog_path))
    log = read_log(clog_path).log
    records = len(log.records)
    partials = _partials_from(log)

    legacy_clog = str(tmp_path / f"{name}-legacy.clog2")
    crc_clog = str(tmp_path / f"{name}-crc.clog2")

    def merge_legacy():
        legacy_write_clog2(legacy_clog, legacy_merge_partial_objects(partials))

    def merge_streaming_crc():
        streams = [rank_stream(p.rank, p.records, p.sync_points)
                   for p in partials]
        defs = dedup_definitions(p.definitions for p in partials)
        with open(crc_clog, "wb") as fh:
            write_clog2_to(fh, log.clock_resolution, len(partials), defs,
                           merge_rank_streams(streams), checksum=True)

    t_ml = _best(merge_legacy)
    t_mn = _best(merge_streaming_crc)
    merged = legacy_merge_partial_objects(partials)
    t_cl = _best(lambda: legacy_convert(merged))
    t_cn = _best(lambda: convert(merged))

    # Byte identity cannot hold across format versions; the contract is
    # record identity: the CRC-framed file de-frames to the same items
    # the legacy merge produced.
    framed = read_log(crc_clog).log
    assert framed.definitions == merged.definitions
    assert framed.records == merged.records

    path = _stage(t_ml + t_cl, t_mn + t_cn, records)
    table = comparison("P1-crc: w+m+c with CRC framing vs legacy "
                       f"(best of {ROUNDS})")
    table.add(f"{name} ({records} rec) w+m+c crc",
              f">={MIN_PATH_RATIO}x",
              f"{path['ratio']:.2f}x "
              f"({path['records_per_s']['streaming']:,.0f} rec/s)")

    out = os.path.join(artifacts_dir, "BENCH_pipeline_crc.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"benchmark": "P1 streaming pipeline, CRC framing",
                   "rounds": ROUNDS, "scale": name, "records": records,
                   "framed_bytes": os.path.getsize(crc_clog),
                   "plain_bytes": os.path.getsize(legacy_clog),
                   "path_write_merge_convert": path}, fh, indent=2)
    print(f"\nwrote {out}")

    assert path["ratio"] >= MIN_PATH_RATIO, (
        f"CRC-framed streaming path only {path['ratio']:.2f}x faster at "
        f"{name}; contract is >={MIN_PATH_RATIO}x")
