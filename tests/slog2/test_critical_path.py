"""Critical-path analysis over converted logs."""

import pytest

from repro.mpe import read_log
from repro.pilot import PilotConfig, run_pilot
from repro.slog2 import convert
from repro.slog2.critical_path import CriticalPath, PathSegment, critical_path
from repro.slog2.model import Arrow, SlogCategory, Slog2Doc, State

CATS = [SlogCategory(0, "Compute", "gray", "state"),
        SlogCategory(1, "PI_Read", "red", "state"),
        SlogCategory(2, "message", "white", "arrow")]


def doc_of(states, arrows, num_ranks=2):
    return Slog2Doc(categories=list(CATS), states=list(states),
                    arrows=list(arrows), events=[], num_ranks=num_ranks,
                    clock_resolution=1e-9)


class TestSyntheticPaths:
    def test_single_rank_path_spans_run(self):
        doc = doc_of([State(0, 0, 0.0, 5.0, 0)], [])
        path = critical_path(doc)
        assert path.makespan == pytest.approx(5.0)
        assert all(s.rank == 0 for s in path.segments)

    def test_path_follows_messages_across_ranks(self):
        # Rank 0 works 0-3, sends; rank 1 receives at 3.5, works to 10.
        doc = doc_of(
            [State(0, 0, 0.0, 3.0, 0), State(0, 1, 3.5, 10.0, 0)],
            [Arrow(2, 0, 1, 3.0, 3.5, 1, 8)])
        path = critical_path(doc)
        assert path.makespan == pytest.approx(10.0)
        kinds = [s.kind for s in path.segments]
        assert "message" in kinds
        hop = next(s for s in path.segments if s.kind == "message")
        assert (hop.rank, hop.dst_rank) == (0, 1)
        assert hop.duration == pytest.approx(0.5)

    def test_longest_branch_wins(self):
        # Two receivers; rank 2 works much longer after its message.
        doc = doc_of(
            [State(0, 0, 0.0, 1.0, 0),
             State(0, 1, 1.1, 2.0, 0),
             State(0, 2, 1.1, 9.0, 0)],
            [Arrow(2, 0, 1, 1.0, 1.1, 1, 8),
             Arrow(2, 0, 2, 1.0, 1.1, 2, 8)],
            num_ranks=3)
        path = critical_path(doc)
        assert path.dominant_rank() == 2

    def test_time_by_rank_partitions_path(self):
        doc = doc_of(
            [State(0, 0, 0.0, 3.0, 0), State(0, 1, 3.5, 6.0, 0)],
            [Arrow(2, 0, 1, 3.0, 3.5, 1, 8)])
        path = critical_path(doc)
        by_rank = path.time_by_rank()
        assert by_rank[0] == pytest.approx(3.0)
        assert by_rank[1] == pytest.approx(2.5)

    def test_causality_violating_arrow_ignored(self):
        doc = doc_of([State(0, 0, 0.0, 2.0, 0)],
                     [Arrow(2, 1, 0, 5.0, 1.0, 1, 8)])  # backwards
        path = critical_path(doc)  # must not crash or loop
        assert path.makespan >= 2.0

    def test_empty_doc(self):
        doc = doc_of([], [], num_ranks=1)
        assert critical_path(doc).segments == []

    def test_labels_use_deepest_state(self):
        doc = doc_of([State(0, 0, 0.0, 10.0, 0),
                      State(1, 0, 4.0, 6.0, 1)], [])
        path = critical_path(doc)
        labels = {(round(s.start, 6), round(s.end, 6)): s.label
                  for s in path.segments}
        assert labels[(4.0, 6.0)] == "PI_Read"
        assert labels[(0.0, 4.0)] == "Compute"


class TestRealPrograms:
    def _path_for(self, main, nprocs, tmp_path, name):
        clog = str(tmp_path / f"{name}.clog2")
        res = run_pilot(main, nprocs, argv=("-pisvc=j",),
                        config=PilotConfig(mpe_log_path=clog))
        assert res.ok
        doc, _ = convert(read_log(clog).log)
        return res, doc, critical_path(doc)

    def test_instance_b_path_dominated_by_main(self, tmp_path):
        from repro.apps import INSTANCE_B, CollisionConfig, collisions_main

        cfg = CollisionConfig(nrecords=2000)
        res, doc, path = self._path_for(
            lambda argv: collisions_main(argv, INSTANCE_B, cfg), 4,
            tmp_path, "b")
        # The ~11s single-process init owns the critical path.
        assert path.dominant_rank() == 0
        assert path.time_by_rank()[0] > 10.0
        assert "PI_MAIN" in path.summary(doc)

    def test_lab2_path_consistent_with_runtime(self, tmp_path):
        from repro.apps import lab2_main

        res, doc, path = self._path_for(lab2_main, 6, tmp_path, "lab2")
        t0, t1 = doc.time_range
        # The path ends at the last state end and reaches back to (or
        # very near) the start of the run.
        assert path.segments[-1].end == pytest.approx(t1, rel=1e-9)
        assert path.makespan > 0.9 * (t1 - t0)
        # The path is contiguous: each segment starts where the
        # previous one ended, with no time unaccounted.
        for a, b in zip(path.segments, path.segments[1:]):
            assert b.start == pytest.approx(a.end, abs=1e-12)
        # lab2's tail is MAIN collecting subtotals, so the path must
        # cross between ranks at least once per worker dependency.
        assert any(s.kind == "message" for s in path.segments)
