"""Streaming pipeline == frozen pre-streaming pipeline, byte for byte.

The PR that introduced batched CLOG2 I/O, the heap k-way merge and the
StreamConverter promised byte-identical outputs.  These tests hold it
to that: every path is compared against the frozen reference
implementations in ``benchmarks/_legacy.py`` on a real Pilot-generated
log, on synthetic multi-rank partials, and on a chaos-corrupted log
after salvage.
"""

from __future__ import annotations

import random

import pytest

from benchmarks._legacy import (
    legacy_convert,
    legacy_merge_partial_objects,
    legacy_read_clog2,
    legacy_write_clog2,
)
from repro.mpe.clocksync import SyncPoint
from repro.mpe.clog2 import (
    Clog2File,
    Clog2Writer,
    read_header,
    read_log,
    write_clog2,
)
from repro.mpe.records import (
    RECV,
    SEND,
    BareEvent,
    EventDef,
    MsgEvent,
    RankName,
    StateDef,
)
from repro.mpe.salvage import Partial, _merge_partial_objects
from repro.pilot import (
    PI_MAIN,
    PI_Configure,
    PI_CreateChannel,
    PI_CreateProcess,
    PI_Read,
    PI_StartAll,
    PI_StopMain,
    PI_Write,
    PilotConfig,
    run_pilot,
)
from repro.slog2.convert import StreamConverter, convert, convert_with_tree
from repro.slog2.file import write_slog2


@pytest.fixture(scope="module")
def real_clog2(tmp_path_factory) -> str:
    """One real multi-rank log out of an actual Pilot run."""
    tmp = tmp_path_factory.mktemp("equiv")
    path = str(tmp / "run.clog2")

    def main(argv):
        def worker(index, arg2):
            for k in range(20):
                PI_Write(chans[index], "%d", index * 100 + k)
            return 0

        PI_Configure(argv)
        procs = [PI_CreateProcess(worker, i) for i in range(3)]
        chans = [PI_CreateChannel(p, PI_MAIN) for p in procs]
        PI_StartAll()
        for _ in range(20):
            for c in chans:
                PI_Read(c, "%d")
        PI_StopMain(0)

    run_pilot(main, 4, argv=("-pisvc=j",),
              config=PilotConfig(mpe_log_path=path))
    return path


def _synthetic_log(seed: int = 11, nrecords: int = 500) -> Clog2File:
    """A log exercising every record type, string lengths and nesting."""
    rng = random.Random(seed)
    definitions = [
        StateDef(1, 2, "Compute", "gray"),
        StateDef(3, 4, "PI_Write", "LawnGreen"),
        EventDef(5, "bubble", "yellow"),
        RankName(0, "main"),
        RankName(1, "worker α"),  # non-ASCII survives the round trip
    ]
    records: list = []
    t = 0.0
    for _ in range(nrecords):
        t += rng.random() * 1e-3
        rank = rng.randrange(3)
        pick = rng.random()
        if pick < 0.5:
            records.append(BareEvent(t, rank, rng.choice((1, 2, 3, 4, 5)),
                                     "x" * rng.randrange(0, 40)))
        elif pick < 0.75:
            records.append(MsgEvent(t, rank, SEND, (rank + 1) % 3, 7, 128))
        else:
            records.append(MsgEvent(t, rank, RECV, (rank + 1) % 3, 7, 128))
    return Clog2File(1e-6, 3, definitions, records)


# -- CLOG2 write/read --------------------------------------------------------


def test_batched_writer_byte_identical_real(real_clog2, tmp_path):
    log = read_log(real_clog2).log
    old, new = str(tmp_path / "old.clog2"), str(tmp_path / "new.clog2")
    legacy_write_clog2(old, log)
    write_clog2(new, log)
    assert open(old, "rb").read() == open(new, "rb").read()


def test_batched_writer_byte_identical_synthetic(tmp_path):
    log = _synthetic_log()
    old, new = str(tmp_path / "old.clog2"), str(tmp_path / "new.clog2")
    legacy_write_clog2(old, log)
    write_clog2(new, log)
    assert open(old, "rb").read() == open(new, "rb").read()


def test_incremental_clog2writer_byte_identical(tmp_path):
    log = _synthetic_log()
    old, new = str(tmp_path / "old.clog2"), str(tmp_path / "new.clog2")
    legacy_write_clog2(old, log)
    # One item per call: the header record count is patched on close.
    with Clog2Writer(new, num_ranks=log.num_ranks,
                     clock_resolution=log.clock_resolution) as w:
        for d in log.definitions:
            w.write_definition(d)
        for r in log.records:
            w.write_record(r)
    assert open(old, "rb").read() == open(new, "rb").read()


def test_streaming_reader_matches_legacy(real_clog2):
    eager = legacy_read_clog2(real_clog2)
    streamed = read_log(real_clog2).log
    assert streamed == eager
    with open(real_clog2, "rb") as fh:
        header = read_header(fh)
    assert header.num_ranks == eager.num_ranks
    assert header.clock_resolution == eager.clock_resolution
    assert header.num_records == len(eager.records)


def test_salvaged_log_rewrites_identically(real_clog2, tmp_path):
    """Chaos case: corrupt mid-file, salvage, re-emit with both writers."""
    data = bytearray(open(real_clog2, "rb").read())
    mid = len(data) // 2
    data[mid:mid + 40] = b"\xff" * 40
    torn = str(tmp_path / "torn.clog2")
    open(torn, "wb").write(bytes(data))
    log, recovery = read_log(torn, errors="salvage")
    assert recovery is not None and not recovery.clean
    old, new = str(tmp_path / "old.clog2"), str(tmp_path / "new.clog2")
    legacy_write_clog2(old, log)
    write_clog2(new, log)
    assert open(old, "rb").read() == open(new, "rb").read()


# -- k-way merge -------------------------------------------------------------


def _synthetic_partials(nranks: int = 5, per_rank: int = 400,
                        seed: int = 23) -> list[Partial]:
    rng = random.Random(seed)
    partials = []
    for rank in range(nranks):
        t = 0.0
        records: list = []
        for k in range(per_rank):
            # Coarse quantisation forces equal timestamps across ranks,
            # the case where merge order depends on the tie-break rule.
            t += rng.randrange(0, 3) * 1e-4
            if k % 7 == 0:
                records.append(MsgEvent(t, rank, SEND, (rank + 1) % nranks,
                                        9, 64))
            else:
                records.append(BareEvent(t, rank, 1 + (k % 4), f"r{rank}k{k}"))
        sync = [SyncPoint(0.0, rank * 1e-5),
                SyncPoint(t / 2, rank * 1.5e-5)] if rank % 2 else []
        partials.append(Partial(
            rank=rank, sync_points=sync,
            definitions=[StateDef(1, 2, "Compute", "gray"),
                         EventDef(3, "bubble", "yellow"),
                         EventDef(4, "solo", "red")],
            records=records, clock_resolution=1e-6))
    return partials


def test_kway_merge_matches_global_sort():
    partials = _synthetic_partials()
    old = legacy_merge_partial_objects(partials)
    new = _merge_partial_objects(partials)
    assert new.definitions == old.definitions
    assert new.records == old.records
    assert new == old


def test_kway_merge_matches_global_sort_no_sync_points():
    """Identity correction path: records must be reused verbatim."""
    partials = [Partial(rank=p.rank, sync_points=[],
                        definitions=p.definitions, records=p.records,
                        clock_resolution=p.clock_resolution)
                for p in _synthetic_partials(nranks=3)]
    old = legacy_merge_partial_objects(partials)
    new = _merge_partial_objects(partials)
    assert new == old


def test_fused_merge_write_byte_identical(tmp_path):
    """The merge-consuming writer (write_retimed_records) produces the
    same file as merging into objects and writing those — the in-run
    finish_log path versus the legacy materialise-then-write one."""
    from repro.mpe.merge import merge_rank_streams, rank_stream

    partials = _synthetic_partials()
    merged = legacy_merge_partial_objects(partials)
    old, new = str(tmp_path / "old.clog2"), str(tmp_path / "new.clog2")
    legacy_write_clog2(old, merged)
    streams = [rank_stream(p.rank, p.records, p.sync_points)
               for p in partials]
    with Clog2Writer(new, num_ranks=merged.num_ranks,
                     clock_resolution=merged.clock_resolution) as w:
        w.write_definitions(merged.definitions)
        w.write_retimed_records(merge_rank_streams(streams))
    assert open(old, "rb").read() == open(new, "rb").read()


def test_fused_merge_write_many_sync_points(tmp_path):
    """Segment walk across >2 sync points (including a duplicate
    local time, the span<=0 edge) stays bit-identical to
    CorrectionModel.correct."""
    partials = _synthetic_partials(nranks=4)
    t_end = max(r.timestamp for p in partials for r in p.records)
    for p in partials:
        p.sync_points[:] = [
            SyncPoint(0.0, p.rank * 1e-5),
            SyncPoint(t_end / 4, p.rank * 1.1e-5),
            SyncPoint(t_end / 2, p.rank * 1.2e-5),
            SyncPoint(t_end / 2, p.rank * 1.25e-5),  # span == 0 edge
            SyncPoint(t_end, p.rank * 1.4e-5),
        ]
    old = legacy_merge_partial_objects(partials)
    new = _merge_partial_objects(partials)
    assert new == old
    old_p, new_p = str(tmp_path / "old.clog2"), str(tmp_path / "new.clog2")
    legacy_write_clog2(old_p, old)
    write_clog2(new_p, new)
    assert open(old_p, "rb").read() == open(new_p, "rb").read()


def test_kway_merge_unsorted_input_matches():
    """A rank whose clock correction breaks monotonicity still merges
    into exactly the order the global sort produced."""
    partials = _synthetic_partials(nranks=3)
    # A correction model that pulls late samples backwards.
    partials[0].sync_points[:] = [SyncPoint(0.0, 0.0),
                                  SyncPoint(0.01, 5e-3)]
    old = legacy_merge_partial_objects(partials)
    new = _merge_partial_objects(partials)
    assert new == old


# -- conversion --------------------------------------------------------------


def _docs_equal(a, b) -> bool:
    return (a.categories == b.categories and a.states == b.states
            and a.events == b.events and a.arrows == b.arrows
            and a.num_ranks == b.num_ranks
            and a.rank_names == b.rank_names
            and a.clock_resolution == b.clock_resolution)


def _reports_equal(a, b) -> bool:
    return (a.equal_drawables == b.equal_drawables
            and a.causality_violations == b.causality_violations
            and a.unmatched_sends == b.unmatched_sends
            and a.unmatched_receives == b.unmatched_receives
            and a.dangling_states == b.dangling_states
            and a.improper_nesting == b.improper_nesting
            and a.unknown_event_ids == b.unknown_event_ids)


def test_stream_converter_matches_legacy_convert(real_clog2, tmp_path):
    log = read_log(real_clog2).log
    old_doc, old_report = legacy_convert(log)
    new_doc, new_report = convert(log)
    assert _docs_equal(old_doc, new_doc)
    assert _reports_equal(old_report, new_report)
    # And the serialized SLOG2 containers match byte for byte.
    old_path, new_path = str(tmp_path / "old.slog2"), str(tmp_path / "new.slog2")
    write_slog2(old_path, old_doc)
    write_slog2(new_path, new_doc)
    assert open(old_path, "rb").read() == open(new_path, "rb").read()


def test_stream_converter_one_record_at_a_time(real_clog2):
    """Feeding item by item equals the one-shot conversion."""
    log = read_log(real_clog2).log
    conv = StreamConverter(num_ranks=log.num_ranks,
                           clock_resolution=log.clock_resolution)
    for d in log.definitions:
        conv.feed(d)
    for r in log.records:
        conv.feed(r)
    doc, report = conv.finish()
    old_doc, old_report = legacy_convert(log)
    assert _docs_equal(old_doc, doc)
    assert _reports_equal(old_report, report)


def test_convert_with_tree_doc_matches(real_clog2, tmp_path):
    log = read_log(real_clog2).log
    old_doc, _ = legacy_convert(log)
    doc, _, tree = convert_with_tree(log)
    assert _docs_equal(old_doc, doc)
    # The incrementally built tree holds every drawable exactly once.
    def count(node) -> int:
        return len(node.drawables) + sum(count(c) for c in node.children)

    assert count(tree.root) == (len(doc.states) + len(doc.events)
                                + len(doc.arrows))


def test_synthetic_convert_matches():
    log = _synthetic_log(seed=5, nrecords=800)
    old_doc, old_report = legacy_convert(log)
    new_doc, new_report = convert(log)
    assert _docs_equal(old_doc, new_doc)
    assert _reports_equal(old_report, new_report)
