"""Abort-surviving MPE logs (the paper's future work, Section V)."""

import os

import pytest

from repro.mpe.api import RankLog
from repro.mpe.clocksync import SyncPoint
from repro.mpe.clog2 import Clog2FormatError
from repro.mpe.records import BareEvent, EventDef, StateDef
from repro.mpe.salvage import (
    cleanup_partials,
    find_partials,
    merge_partial_logs,
    partial_path,
    read_partial_log,
    write_partial,
)
from repro.pilot import PilotConfig, run_pilot
from repro.pilot.api import (
    PI_MAIN,
    PI_Abort,
    PI_Configure,
    PI_CreateChannel,
    PI_CreateProcess,
    PI_Read,
    PI_StartAll,
    PI_StopMain,
    PI_Write,
)
from repro.pilotlog import JumpshotOptions
from repro.slog2 import convert


def make_rank_log(rank, nrecords):
    log = RankLog()
    log.definitions.append(StateDef(1, 2, "S", "red"))
    log.definitions.append(EventDef(3, "E", "yellow"))
    for i in range(nrecords):
        log.records.append(BareEvent(0.001 * i, rank, 3, f"rec{i}"))
    log.sync_points.append(SyncPoint(0.0, 0.0))
    return log


class TestPartialFiles:
    def test_write_read_roundtrip(self, tmp_path):
        base = str(tmp_path / "run.clog2")
        log = make_rank_log(2, 5)
        path = partial_path(base, 2)
        write_partial(path, 2, log, 1e-8)
        part = read_partial_log(path).partial
        assert part.rank == 2
        assert part.records == log.records
        assert part.definitions == log.definitions
        assert part.sync_points == log.sync_points

    def test_find_partials_sorted(self, tmp_path):
        base = str(tmp_path / "run.clog2")
        for rank in (3, 0, 11):
            write_partial(partial_path(base, rank), rank,
                          make_rank_log(rank, 1), 1e-8)
        found = find_partials(base)
        assert len(found) == 3
        assert found == sorted(found)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "x.part")
        with open(path, "wb") as fh:
            fh.write(b"NOTAPART" + b"\0" * 20)
        with pytest.raises(Clog2FormatError):
            read_partial_log(path)

    def test_merge_produces_sorted_clog2(self, tmp_path):
        base = str(tmp_path / "run.clog2")
        for rank in range(3):
            write_partial(partial_path(base, rank), rank,
                          make_rank_log(rank, 4), 1e-8)
        merged = merge_partial_logs(base).log
        assert os.path.exists(base)
        stamps = [r.timestamp for r in merged.records]
        assert stamps == sorted(stamps)
        assert len(merged.records) == 12
        assert merged.num_ranks == 3
        assert len(merged.definitions) == 2  # deduplicated

    def test_merge_applies_sync_correction(self, tmp_path):
        base = str(tmp_path / "run.clog2")
        skewed = make_rank_log(1, 1)
        skewed.sync_points = [SyncPoint(0.0, 1.0)]  # 1s fast
        skewed.records = [BareEvent(1.5, 1, 3, "")]
        write_partial(partial_path(base, 1), 1, skewed, 1e-8)
        merged = merge_partial_logs(base).log
        assert merged.records[0].timestamp == pytest.approx(0.5)

    def test_merge_without_partials_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            merge_partial_logs(str(tmp_path / "none.clog2"))

    def test_cleanup(self, tmp_path):
        base = str(tmp_path / "run.clog2")
        for rank in range(2):
            write_partial(partial_path(base, rank), rank,
                          make_rank_log(rank, 1), 1e-8)
        assert cleanup_partials(base) == 2
        assert find_partials(base) == []


def aborting_program(rounds_before_abort, ending="abort"):
    def main(argv):
        chans = {}

        def work(i, _a):
            while True:
                v = PI_Read(chans["to"], "%d")
                PI_Write(chans["back"], "%d", int(v))
            return 0

        PI_Configure(argv)
        p = PI_CreateProcess(work, 0)
        chans["to"] = PI_CreateChannel(PI_MAIN, p)
        chans["back"] = PI_CreateChannel(p, PI_MAIN)
        PI_StartAll()
        for r in range(rounds_before_abort):
            PI_Write(chans["to"], "%d", r)
            PI_Read(chans["back"], "%d")
        if ending == "abort":
            PI_Abort(2, "fatal problem detected")
        PI_CreateChannel(PI_MAIN, p)  # WRONG_PHASE: a failed check

    return main


class TestEndToEndSalvage:
    def _run(self, tmp_path, salvage, rounds=200):
        base = str(tmp_path / "run.clog2")
        jopts = JumpshotOptions(salvage=salvage, salvage_interval=64)
        res = run_pilot(aborting_program(rounds), 2, argv=("-pisvc=j",),
                        config=PilotConfig(mpe_log_path=base, mpe=jopts))
        assert res.aborted is not None
        return base

    def test_without_salvage_log_lost(self, tmp_path):
        base = self._run(tmp_path, salvage=False)
        assert not os.path.exists(base)
        assert find_partials(base) == []

    def test_with_salvage_log_recovered(self, tmp_path):
        base = self._run(tmp_path, salvage=True)
        assert not os.path.exists(base)  # the normal merge never ran...
        assert find_partials(base)  # ...but the partials survived
        merged = merge_partial_logs(base).log
        # The recovered log converts and contains the pre-abort traffic.
        doc, report = convert(merged)
        assert len(doc.states_of("PI_Write")) > 50
        assert len(doc.arrows) > 50
        assert report.causality_violations == []

    def test_salvaged_log_is_a_prefix(self, tmp_path):
        """Salvage recovers events up to the last checkpoint, never
        events that did not happen."""
        base = self._run(tmp_path, salvage=True, rounds=100)
        merged = merge_partial_logs(base).log
        doc, _ = convert(merged)
        # 100 rounds = 100 writes per side; recovered <= that.
        for rank in (0, 1):
            writes = [s for s in doc.states_of("PI_Write") if s.rank == rank]
            assert 0 < len(writes) <= 100

    @pytest.mark.parametrize("scheduler", ["threads", "coroutine"])
    @pytest.mark.parametrize("ending", ["abort", "failed-check"])
    def test_aborting_rank_flushes_every_record(self, tmp_path, scheduler,
                                                ending):
        """The interval is never reached: only the abort-time flush
        writes rank 0's partial, and it holds everything rank 0 logged
        (the engine's abort hook flushes the aborting rank too)."""
        base = str(tmp_path / "run.clog2")
        jopts = JumpshotOptions(salvage=True, salvage_interval=100_000)
        res = run_pilot(aborting_program(20, ending), 2, argv=("-pisvc=j",),
                        config=PilotConfig(mpe_log_path=base, mpe=jopts,
                                           scheduler=scheduler))
        assert res.aborted is not None and res.aborted.origin_rank == 0
        if ending == "failed-check":
            assert res.diagnostics.codes == ["WRONG_PHASE"]
        logged = res.run.engine.tasks[0].locals["mpe"].records
        assert len(logged) > 20
        partial = read_partial_log(partial_path(base, 0)).partial
        assert partial.records == logged

    def test_normal_run_cleans_partials(self, tmp_path):
        base = str(tmp_path / "ok.clog2")

        def main(argv):
            PI_Configure(argv)
            PI_StartAll()
            PI_StopMain(0)

        jopts = JumpshotOptions(salvage=True, salvage_interval=1)
        res = run_pilot(main, 2, argv=("-pisvc=j",),
                        config=PilotConfig(mpe_log_path=base, mpe=jopts))
        assert res.ok
        assert os.path.exists(base)  # the real merged log
        assert find_partials(base) == []  # partials cleaned up
