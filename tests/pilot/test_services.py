"""Service options: the single -pisvc parser, the p service, fault plans."""

from __future__ import annotations

import json
import os

import pytest

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
    PilotError,
    load_fault_plan,
    run_pilot,
)
from repro.pilot.config import parse_service_letters
from repro.vmpi.faults import (
    ClockFault,
    CrashFault,
    FaultPlanError,
    MessageFault,
)


def ping_main(argv):
    def worker(index, arg2):
        PI_Write(chan, "%d", index)
        return 0

    PI_Configure(argv)
    w = PI_CreateProcess(worker, 0)
    chan = PI_CreateChannel(w, PI_MAIN)
    PI_StartAll()
    PI_Read(chan, "%d")
    PI_StopMain(0)


class TestServiceOptions:
    def test_needs_service_rank(self):
        assert PilotConfig(services="c").needs_service_rank
        assert PilotConfig(services="d").needs_service_rank
        assert not PilotConfig(services="jp").needs_service_rank

    def test_unknown_letter_is_the_one_error(self):
        with pytest.raises(PilotError) as exc:
            parse_service_letters("jz")
        assert "unknown -pisvc letters ['z']" in str(exc.value)

    def test_parse_argv_uses_shared_parser(self):
        with pytest.raises(PilotError) as exc:
            PilotConfig.from_argv(["-pisvc=q"])
        assert "unknown -pisvc letters ['q']" in str(exc.value)


class TestPerfService:
    def test_pisvc_p_dumps_snapshot(self, tmp_path):
        clog = str(tmp_path / "run.clog2")
        res = run_pilot(ping_main, 2, argv=("-pisvc=jp",),
                        config=PilotConfig(mpe_log_path=clog))
        assert res.perf is not None
        snap_path = clog + ".perf.json"
        assert os.path.exists(snap_path)
        snap = json.load(open(snap_path))
        assert "clog2-write" in snap["stages"]
        assert "merge" in snap["stages"]
        assert snap["meta"]["nprocs"] == 2

    def test_without_p_no_recorder(self, tmp_path):
        clog = str(tmp_path / "run.clog2")
        res = run_pilot(ping_main, 2, argv=("-pisvc=j",),
                        config=PilotConfig(mpe_log_path=clog))
        assert res.perf is None
        assert not os.path.exists(clog + ".perf.json")


class TestFaultPlanLoading:
    def _write(self, tmp_path, payload) -> str:
        path = str(tmp_path / "plan.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return path

    def test_loads_all_rule_kinds(self, tmp_path):
        path = self._write(tmp_path, {"seed": 5, "rules": [
            {"kind": "message", "action": "drop", "src": 0, "dest": 1},
            {"kind": "crash", "rank": 2, "at": 0.25},
            {"kind": "clock", "rank": 1, "offset": 1e-4, "drift": 1e-6},
        ]})
        plan = load_fault_plan(path)
        assert plan.seed == 5
        assert [type(r) for r in plan.rules] == [MessageFault, CrashFault,
                                                 ClockFault]
        assert plan.crashed_ranks() == {2: 0.25}

    def test_bad_kind_rejected(self, tmp_path):
        path = self._write(tmp_path, {"rules": [{"kind": "meteor"}]})
        with pytest.raises(FaultPlanError, match="unknown kind 'meteor'"):
            load_fault_plan(path)

    def test_bad_field_rejected(self, tmp_path):
        path = self._write(tmp_path, {"rules": [
            {"kind": "crash", "rank": 0, "frequency": 2}]})
        with pytest.raises(FaultPlanError, match="rule #0"):
            load_fault_plan(path)

    def test_not_json_rejected(self, tmp_path):
        path = str(tmp_path / "plan.json")
        open(path, "w").write("not json {")
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            load_fault_plan(path)

    def test_pifault_plan_argv_drives_the_run(self, tmp_path):
        plan_path = self._write(tmp_path, {"seed": 1, "rules": [
            {"kind": "clock", "rank": 1, "offset": 2e-3}]})
        clog = str(tmp_path / "run.clog2")
        res = run_pilot(ping_main, 2,
                        argv=(f"-pifault-plan={plan_path}", "-pisvc=j"),
                        config=PilotConfig(mpe_log_path=clog))
        assert res.ok
        assert res.run.options.fault_plan_path == plan_path

    def test_explicit_faults_win_over_argv(self, tmp_path):
        """A FaultPlan in the config wins over a -pifault-plan path."""
        from repro.vmpi.faults import FaultPlan

        plan_path = self._write(tmp_path, {"rules": [
            {"kind": "crash", "rank": 0, "at": 0.0}]})
        clog = str(tmp_path / "run.clog2")
        res = run_pilot(ping_main, 2,
                        argv=(f"-pifault-plan={plan_path}",),
                        config=PilotConfig(mpe_log_path=clog,
                                           faults=FaultPlan(seed=0, rules=[])))
        assert res.ok  # the argv plan would have crashed rank 0
