"""Chaos harness: seeded fault plans driven through the whole pipeline.

Each scenario launches a real Pilot program under a :class:`FaultPlan`
and then walks the full log path the tool chain promises to keep
working — pilot app -> (abort) -> salvage partials -> tolerant merge ->
``clog2TOslog2`` -> Jumpshot render — asserting at the end that the
artifact a user would actually look at (the SVG / ASCII timeline)
exists, is annotated, and tells the truth about what was lost.

Run with ``make chaos`` or ``pytest tests/chaos``.
"""

import os

import pytest

from repro.jumpshot.ascii import render_ascii
from repro.jumpshot.svg import render_svg
from repro.jumpshot.viewer import View
from repro.mpe.salvage import find_partials, merge_partial_logs, partial_path
from repro.pilot import PilotConfig, run_pilot
from repro.pilot.api import (
    PI_MAIN,
    PI_Compute,
    PI_Configure,
    PI_CreateChannel,
    PI_CreateProcess,
    PI_Read,
    PI_StartAll,
    PI_StopMain,
    PI_Write,
)
from repro.pilotcheck import lint_clog2, lint_recovery
from repro.pilotlog.integration import JumpshotOptions
from repro.slog2.convert import convert
from repro.vmpi.errors import SimulationDeadlock
from repro.vmpi.faults import ClockFault, CrashFault, FaultPlan, MessageFault


def pipeline_app(workers=2, rounds=12):
    """A master/worker round-trip app exercising channels both ways."""

    def main(argv):
        chans = {}

        def work(i, _a):
            for _ in range(rounds):
                v = PI_Read(chans[f"to{i}"], "%d")
                PI_Compute(1e-4)
                PI_Write(chans[f"back{i}"], "%d", int(v) + 1)
            return 0

        PI_Configure(argv)
        procs = [PI_CreateProcess(work, i) for i in range(workers)]
        for i, p in enumerate(procs):
            chans[f"to{i}"] = PI_CreateChannel(PI_MAIN, p)
            chans[f"back{i}"] = PI_CreateChannel(p, PI_MAIN)
        PI_StartAll()
        for r in range(rounds):
            for i in range(workers):
                PI_Write(chans[f"to{i}"], "%d", r)
            for i in range(workers):
                PI_Read(chans[f"back{i}"], "%d")
        PI_StopMain(0)

    return main


def launch(tmp_path, plan, *, salvage=True, interval=8, name="chaos",
           workers=2, rounds=12):
    base = str(tmp_path / f"{name}.clog2")
    cfg = PilotConfig(services="j", mpe_log_path=base, faults=plan,
                      mpe=JumpshotOptions(salvage=salvage,
                                          salvage_interval=interval))
    res = run_pilot(pipeline_app(workers, rounds), workers + 1, config=cfg)
    return base, res


class TestDeterminism:
    def test_same_seed_byte_identical_clog2(self, tmp_path):
        plan = lambda: FaultPlan(seed=11, rules=(
            MessageFault("delay", probability=0.4, delay=2e-4, jitter=1e-4),
            MessageFault("duplicate", probability=0.1, delay=1e-5,
                         max_count=2),
            ClockFault(rank=1, offset_jitter=1e-4, drift_jitter=1e-6),
        ))
        base_a, res_a = launch(tmp_path, plan(), name="a")
        base_b, res_b = launch(tmp_path, plan(), name="b")
        assert res_a.aborted is None and res_b.aborted is None
        with open(base_a, "rb") as fa, open(base_b, "rb") as fb:
            assert fa.read() == fb.read()
        inj_a = res_a.vmpi.engine.fault_injector.injections
        inj_b = res_b.vmpi.engine.fault_injector.injections
        assert [str(i) for i in inj_a] == [str(i) for i in inj_b]
        assert inj_a  # the plan actually did something

    def test_different_seed_diverges(self, tmp_path):
        mk = lambda seed: FaultPlan(seed=seed, rules=(
            MessageFault("delay", probability=0.5, delay=2e-4, jitter=2e-4),))
        _, res_a = launch(tmp_path, mk(1), name="s1")
        _, res_b = launch(tmp_path, mk(2), name="s2")
        inj_a = [str(i) for i in res_a.vmpi.engine.fault_injector.injections]
        inj_b = [str(i) for i in res_b.vmpi.engine.fault_injector.injections]
        assert inj_a != inj_b


class TestCrashSalvagePipeline:
    def test_abort_interrupted_run_yields_viewable_svg(self, tmp_path):
        plan = FaultPlan(seed=7, rules=(
            CrashFault(rank=1, at=4e-3, reason="injected rank failure"),))
        base, res = launch(tmp_path, plan, rounds=20)
        assert res.aborted is not None
        # The abort-time flush must have run cleanly on every rank.
        assert res.vmpi.engine.abort_hook_errors == []
        assert find_partials(base)

        log, report = merge_partial_logs(
            base, errors="salvage", expected_ranks=3,
            crashed_ranks=plan.crashed_ranks())
        assert log.records, "salvage recovered nothing"
        assert not report.empty
        assert report.crashed_ranks == {1: 4e-3}

        # The trace linter agrees the salvage told the truth: the
        # recovery report must be consistent with the merged records
        # (no TR006), even though the torn run leaves dangling states.
        assert [f for f in lint_recovery(log, report)
                if f.code == "TR006"] == []

        doc, conv = convert(log, recovery=report)
        assert doc.salvaged is report
        assert doc.crashed_ranks == {1: 4e-3}
        view = View(doc)
        assert view.salvage_banner is not None

        svg_path = str(tmp_path / "chaos.svg")
        svg = render_svg(view, svg_path)
        assert os.path.exists(svg_path)
        assert "salvaged" in svg
        assert "crashed" in svg

        text = render_ascii(view, width=80)
        assert "salvaged" in text
        assert "X" in text  # the crashed rank's timeline marker

    def test_torn_partial_reports_dropped_records(self, tmp_path):
        plan = FaultPlan(seed=7, rules=(
            CrashFault(rank=1, at=4e-3, reason="injected"),))
        base, res = launch(tmp_path, plan, rounds=20)
        assert res.aborted is not None
        # Simulate the abort landing mid-write: tear the final chunk of
        # one rank's partial.
        victim = partial_path(base, 2)
        with open(victim, "r+b") as fh:
            fh.truncate(os.path.getsize(victim) - 9)

        log, report = merge_partial_logs(
            base, errors="salvage", expected_ranks=3,
            crashed_ranks=plan.crashed_ranks())
        assert report.records_dropped > 0
        assert not report.clean
        # The linter surfaces the torn tail as TR005 and still finds
        # the report consistent with what survived.
        lint = lint_recovery(log, report)
        assert "TR005" in {f.code for f in lint}
        assert not [f for f in lint if f.code == "TR006"]
        doc, _ = convert(log, recovery=report)
        svg = render_svg(View(doc))
        assert "records dropped" in svg

    def test_salvage_off_loses_the_log(self, tmp_path):
        # The paper's baseline behaviour: no salvage, no partials, the
        # CLOG2 never exists after an abort.
        plan = FaultPlan(seed=7, rules=(CrashFault(rank=1, at=4e-3),))
        base, res = launch(tmp_path, plan, salvage=False, rounds=20)
        assert res.aborted is not None
        assert not os.path.exists(base)
        assert not find_partials(base)

    def test_clean_run_cleans_up_partials(self, tmp_path):
        base, res = launch(tmp_path, FaultPlan(seed=1), rounds=6)
        assert res.aborted is None
        assert os.path.exists(base)
        assert not find_partials(base)
        # A fault plan that never fired leaves a log the trace linter
        # considers pristine.
        assert lint_clog2(base) == []
        log, report = (merge_partial_logs(base, errors="salvage")
                       if find_partials(base) else (None, None))
        # Nothing to salvage: the normal finalize path owned the log.


class TestDegradedRuns:
    def test_drop_plan_reports_blocked_ranks(self, tmp_path):
        plan = FaultPlan(seed=3, rules=(MessageFault("drop", max_count=1),))
        with pytest.raises(SimulationDeadlock) as ei:
            launch(tmp_path, plan, salvage=False, rounds=4)
        msg = str(ei.value)
        # Satellite: the deadlock diagnosis names each blocked rank and
        # its reason, so a chaos run that starves is explainable.
        assert "blocked" in msg
        assert "rank" in msg
        assert ei.value.details

    def test_skewed_clocks_still_convert(self, tmp_path):
        plan = FaultPlan(seed=5, rules=(
            ClockFault(rank=1, offset=-2e-3, drift=5e-4),))
        base, res = launch(tmp_path, plan, rounds=6)
        assert res.aborted is None
        from repro.mpe.clog2 import read_log

        doc, conv = convert(read_log(base).log)
        assert doc.states  # a usable timeline came out the other end
