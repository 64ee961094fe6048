"""Log diffing: before/after comparisons."""

import pytest

from repro.slog2.diff import diff_logs
from repro.slog2.model import SlogCategory, Slog2Doc, State

CATS_A = [SlogCategory(0, "Compute", "gray", "state"),
          SlogCategory(1, "PI_Read", "red", "state")]
CATS_B = [SlogCategory(0, "Compute", "gray", "state"),
          SlogCategory(1, "PI_Read", "red", "state"),
          SlogCategory(2, "PI_Select", "OrangeRed", "state")]


def doc(cats, states):
    return Slog2Doc(categories=list(cats), states=list(states), events=[],
                    arrows=[], num_ranks=2, clock_resolution=1e-9)


def make_pair():
    before = doc(CATS_A, [State(0, 0, 0.0, 10.0, 0),
                          State(1, 1, 0.0, 8.0, 0),
                          State(1, 1, 8.0, 9.0, 0)])
    after = doc(CATS_B, [State(0, 0, 0.0, 5.0, 0),
                         State(1, 1, 0.0, 1.0, 0),
                         State(2, 0, 1.0, 1.5, 0)])
    return before, after


class TestDiff:
    def test_makespan_and_speedup(self):
        before, after = make_pair()
        d = diff_logs(before, after)
        assert d.makespan_a == pytest.approx(10.0)
        assert d.makespan_b == pytest.approx(5.0)
        assert d.speedup == pytest.approx(2.0)

    def test_category_deltas(self):
        before, after = make_pair()
        d = diff_logs(before, after)
        read = d.categories["PI_Read"]
        assert read.count_a == 2 and read.count_b == 1
        assert read.incl_delta == pytest.approx(-8.0)
        assert read.count_delta == -1

    def test_new_category_reported(self):
        before, after = make_pair()
        d = diff_logs(before, after)
        assert "PI_Select" in d.only_in_b
        assert d.only_in_a == []

    def test_biggest_movers_sorted_by_abs_delta(self):
        before, after = make_pair()
        movers = diff_logs(before, after).biggest_movers()
        assert movers[0].name == "PI_Read"  # |-8| beats |-5|

    def test_summary_readable(self):
        before, after = make_pair()
        text = diff_logs(before, after, label_a="instance A",
                         label_b="fixed").summary()
        assert "instance A" in text and "fixed" in text
        assert "2.00x" in text
        assert "PI_Read" in text
        assert "only in fixed" in text

    def test_labels_default(self):
        before, after = make_pair()
        assert "before" in diff_logs(before, after).summary()


class TestRealComparison:
    def test_instance_a_vs_good(self, tmp_path):
        """The F4 comparison through the diff tool: fixing the
        serialization shrinks makespan and blocked-read time."""
        from repro.apps import GOOD, INSTANCE_A, CollisionConfig, collisions_main
        from repro.mpe import read_log
        from repro.pilot import PilotConfig, run_pilot
        from repro.slog2 import convert

        cfg = CollisionConfig(nrecords=2000)
        docs = {}
        for variant in (INSTANCE_A, GOOD):
            path = str(tmp_path / f"{variant}.clog2")
            run_pilot(lambda argv: collisions_main(argv, variant, cfg), 5,
                      argv=("-pisvc=j",),
                      config=PilotConfig(mpe_log_path=path))
            docs[variant], _ = convert(read_log(path).log)
        d = diff_logs(docs[INSTANCE_A], docs[GOOD],
                      label_a="instance A", label_b="intended")
        assert d.speedup > 1.2
        assert d.categories["PI_Read"].incl_delta < 0  # less blocking
        # Same amount of real communication either way.
        assert d.categories["PI_Write"].count_delta == 0
