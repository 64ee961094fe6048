"""The MpeLogger: id allocation, buffering, merge, wrap-up cost,
cross-rank timestamp correction."""

import pytest

from repro import vmpi
from repro.mpe import MpeLogger, MpeOptions, read_log
from repro.mpe.records import RECV, SEND, BareEvent, MsgEvent
from repro.vmpi.clock import ClockSkew


def run_logged(body, nprocs, path, options=None, **kw):
    logger_box = {}

    def main(comm):
        logger = logger_box.setdefault("logger", MpeLogger(comm, options))
        body(comm, logger)
        logger.log_sync_clocks()
        return logger.finish_log(path)

    res = vmpi.mpirun(main, nprocs, **kw)
    return res, logger_box["logger"]


class TestIdAllocation:
    def test_state_ids_paired_and_consistent(self, tmp_path):
        path = str(tmp_path / "ids.clog2")
        ids = {}

        def body(comm, mpe):
            mpe.init_log()
            pair = mpe.get_state_eventIDs()
            solo = mpe.get_solo_eventID()
            ids[comm.rank] = (pair, solo)
            mpe.describe_state(*pair, "S", "red")
            mpe.describe_event(solo, "E", "yellow")

        run_logged(body, 3, path)
        # Same allocation sequence -> same ids on every rank (the MPE
        # property the integration relies on).
        assert len(set(ids.values())) == 1
        (start, end), solo = ids[0]
        assert end == start + 1
        assert solo == end + 1


class TestMergeAndWrite:
    def test_records_merged_sorted_across_ranks(self, tmp_path):
        path = str(tmp_path / "merge.clog2")

        def body(comm, mpe):
            mpe.init_log()
            pair = mpe.get_state_eventIDs()
            mpe.describe_state(*pair, "S", "red")
            # Stagger ranks so the merged order interleaves.
            comm.engine.advance(0.001 * comm.rank, "stagger")
            for i in range(3):
                mpe.log_event(pair[0], f"r{comm.rank}i{i}")
                comm.engine.advance(0.005, "work")
                mpe.log_event(pair[1])

        run_logged(body, 3, path)
        log = read_log(path).log
        stamps = [r.timestamp for r in log.records]
        assert stamps == sorted(stamps)
        assert sum(isinstance(r, BareEvent) for r in log.records) == 18

    def test_definitions_deduplicated(self, tmp_path):
        path = str(tmp_path / "defs.clog2")

        def body(comm, mpe):
            mpe.init_log()
            pair = mpe.get_state_eventIDs()
            mpe.describe_state(*pair, "S", "red")
            mpe.log_event(pair[0])
            mpe.log_event(pair[1])

        run_logged(body, 4, path)
        log = read_log(path).log
        assert len(log.definitions) == 1  # not 4 copies

    def test_merge_report(self, tmp_path):
        path = str(tmp_path / "rep.clog2")

        def body(comm, mpe):
            mpe.init_log()
            eid = mpe.get_solo_eventID()
            mpe.describe_event(eid, "E", "yellow")
            mpe.log_event(eid, "hello")

        res, _ = run_logged(body, 2, path)
        report = res.results[0]
        assert report.ranks_merged == 2
        assert report.total_records == 2
        assert report.wrapup_seconds > 0
        assert res.results[1] is None  # only rank 0 writes

    def test_send_receive_records_roundtrip(self, tmp_path):
        path = str(tmp_path / "msg.clog2")

        def body(comm, mpe):
            mpe.init_log()
            if comm.rank == 0:
                mpe.log_send(1, 42, 1024)
                comm.send(b"x" * 1024, 1, 42)
            else:
                comm.recv(0, 42)
                mpe.log_receive(0, 42, 1024)

        run_logged(body, 2, path)
        log = read_log(path).log
        msgs = [r for r in log.records if isinstance(r, MsgEvent)]
        assert [m.kind for m in msgs] == [SEND, RECV]
        assert all(m.tag == 42 and m.size == 1024 for m in msgs)

    def test_wrapup_cost_scales_with_records(self, tmp_path):
        def body_n(n):
            def body(comm, mpe):
                mpe.init_log()
                eid = mpe.get_solo_eventID()
                mpe.describe_event(eid, "E", "yellow")
                for _ in range(n):
                    mpe.log_event(eid)
            return body

        res_small, _ = run_logged(body_n(10), 2, "/tmp/_w1.clog2")
        res_big, _ = run_logged(body_n(1000), 2, "/tmp/_w2.clog2")
        assert (res_big.results[0].wrapup_seconds
                > res_small.results[0].wrapup_seconds)


class TestClockCorrection:
    def test_skewed_rank_corrected_in_merged_log(self, tmp_path):
        """A rank whose clock is 1 s ahead logs raw timestamps 1 s in
        the future; after sync + merge its events line up with true
        time."""
        path = str(tmp_path / "skew.clog2")

        def body(comm, mpe):
            mpe.init_log()
            eid = mpe.get_solo_eventID()
            mpe.describe_event(eid, "E", "yellow")
            comm.engine.advance(0.5, "get past sync-point extrapolation")
            mpe.log_event(eid, f"rank{comm.rank}")

        run_logged(body, 2, path, skews={1: ClockSkew(offset=1.0)},
                   clock_resolution=1e-9)
        log = read_log(path).log
        events = [r for r in log.records if isinstance(r, BareEvent)]
        t0 = next(e.timestamp for e in events if e.rank == 0)
        t1 = next(e.timestamp for e in events if e.rank == 1)
        assert abs(t1 - t0) < 0.01  # without correction: ~1.0

    def test_uncorrected_log_keeps_skew(self, tmp_path):
        path = str(tmp_path / "noskewfix.clog2")

        def main(comm):
            mpe = logger_box.setdefault("l", MpeLogger(comm))
            mpe.init_log()
            eid = mpe.get_solo_eventID()
            mpe.describe_event(eid, "E", "yellow")
            mpe.log_event(eid)
            return mpe.finish_log(path)  # NO sync_clocks

        logger_box = {}
        vmpi.mpirun(main, 2, skews={1: ClockSkew(offset=1.0)},
                    clock_resolution=1e-9)
        log = read_log(path).log
        events = [r for r in log.records if isinstance(r, BareEvent)]
        t = {e.rank: e.timestamp for e in events}
        assert t[1] - t[0] > 0.9  # skew survives un-synced


class TestOptions:
    def test_per_record_cost_charged(self):
        def run(cost):
            def main(comm):
                mpe = MpeLogger(comm, MpeOptions(per_record_cost=cost))
                mpe.init_log()
                eid = mpe.get_solo_eventID()
                for _ in range(100):
                    mpe.log_event(eid)

            res = vmpi.mpirun(main, 1)
            return res.finished_at

        assert run(1e-3) > run(1e-8)
