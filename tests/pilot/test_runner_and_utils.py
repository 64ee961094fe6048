"""run_pilot results, PI_Abort, the MPE-unavailable warning, timing
utilities (PI_StartTime/PI_EndTime), PI_Log and PI_IsLogging."""

import pytest

from repro.pilot import PilotCosts, PilotConfig, run_pilot
from repro.pilot.api import (
    PI_Abort,
    PI_Compute,
    PI_Configure,
    PI_EndTime,
    PI_IsLogging,
    PI_Log,
    PI_StartAll,
    PI_StartTime,
    PI_StopMain,
)
from repro.pilot.errors import PilotError
from repro.pilot.program import current_run

from tests.pilot.helpers import expect_abort_with


def trivial(argv):
    PI_Configure(argv)
    PI_StartAll()
    PI_StopMain(0)
    return "main-return"


class TestRunner:
    def test_result_fields(self):
        res = run_pilot(trivial, 3)
        assert res.ok
        assert res.aborted is None
        assert res.total_time >= 0
        assert res.vmpi.results[0] == "main-return"

    def test_api_outside_program_raises(self):
        with pytest.raises(PilotError):
            PI_Configure(())

    def test_deterministic_across_runs(self):
        r1 = run_pilot(trivial, 4, config=PilotConfig(seed=3))
        r2 = run_pilot(trivial, 4, config=PilotConfig(seed=3))
        assert r1.total_time == r2.total_time

    def test_costs_scale_run_time(self):
        cheap = run_pilot(trivial, 3, config=PilotConfig(
            costs=PilotCosts(config_call=1e-7)))
        pricey = run_pilot(trivial, 3, config=PilotConfig(
            costs=PilotCosts(config_call=1e-3)))
        assert pricey.total_time > cheap.total_time

    def test_mpe_unavailable_warns_not_fails(self, capsys):
        opts = PilotConfig(mpe_available=False)
        res = run_pilot(trivial, 3, argv=("-pisvc=j",), config=opts)
        assert res.ok
        err = capsys.readouterr().err
        assert "not available" in err

    def test_app_argv_passed_through(self):
        seen = []

        def main(argv):
            seen.append(list(argv))
            PI_Configure(argv)
            PI_StartAll()
            PI_StopMain(0)

        run_pilot(main, 2, argv=("-pisvc=c", "input.csv", "-picheck=2", "-v"))
        assert seen[0] == ["input.csv", "-v"]


class TestAbort:
    def test_abort_tears_down(self):
        def main(argv):
            PI_Configure(argv)
            PI_StartAll()
            PI_Abort(3, "bailing out")
            raise AssertionError("unreachable")

        res = run_pilot(main, 3)
        assert res.aborted is not None
        assert res.aborted.errorcode == 3

    def test_abort_from_worker(self):
        from repro.pilot.api import PI_CreateProcess, PI_Read, PI_CreateChannel, PI_MAIN

        def main(argv):
            def work(i, _a):
                PI_Abort(9, "worker detected trouble")
                return 0

            PI_Configure(argv)
            p = PI_CreateProcess(work, 0)
            c = PI_CreateChannel(p, PI_MAIN)
            PI_StartAll()
            PI_Read(c, "%d")  # will be unwound by the abort
            PI_StopMain(0)

        res = run_pilot(main, 3)
        assert res.aborted is not None
        assert res.aborted.errorcode == 9
        assert res.aborted.origin_rank == 1


class TestUtilities:
    def test_start_end_time_measures_compute(self):
        measured = []

        def main(argv):
            PI_Configure(argv)
            PI_StartAll()
            PI_StartTime()
            PI_Compute(0.25)
            measured.append(PI_EndTime())
            PI_StopMain(0)

        res = run_pilot(main, 2)
        assert res.ok
        assert measured[0] == pytest.approx(0.25, abs=1e-3)

    def test_endtime_without_starttime(self):
        def main(argv):
            PI_Configure(argv)
            PI_StartAll()
            PI_EndTime()
            PI_StopMain(0)

        res = run_pilot(main, 2)
        expect_abort_with(res, "NO_TIMER")

    def test_is_logging(self):
        seen = {}

        def main(argv):
            PI_Configure(argv)
            PI_StartAll()
            seen["logging"] = PI_IsLogging()
            PI_StopMain(0)

        run_pilot(main, 2)
        assert seen["logging"] is False
        run_pilot(main, 3, argv=("-pisvc=c",))
        assert seen["logging"] is True

    def test_pi_log_is_harmless_without_mpe(self):
        def main(argv):
            PI_Configure(argv)
            PI_StartAll()
            PI_Log("note to self")
            PI_StopMain(0)

        assert run_pilot(main, 2).ok

    def test_negative_compute_rejected(self):
        def main(argv):
            PI_Configure(argv)
            PI_StartAll()
            PI_Compute(-1.0)
            PI_StopMain(0)

        res = run_pilot(main, 2)
        expect_abort_with(res, "BAD_ARGUMENTS")

    def test_setname_validation(self):
        from repro.pilot.api import PI_SetName

        def main(argv):
            PI_Configure(argv)
            PI_SetName("not-an-object", "x")

        res = run_pilot(main, 2)
        expect_abort_with(res, "BAD_ARGUMENTS")

    def test_check_level_zero_skips_checks(self):
        # At -picheck=0 API abuse that level 1 would catch goes
        # unnoticed (as in C, where it would silently misbehave).
        from repro.pilot.api import PI_CreateProcess, PI_SetName

        def main(argv):
            PI_Configure(argv)
            p = PI_CreateProcess(lambda i, a: 0, 0)
            PI_SetName(p, "")  # empty name: level-1 violation
            PI_StartAll()
            PI_StopMain(0)

        res = run_pilot(main, 2, argv=("-picheck=0",))
        assert res.ok
        bad = run_pilot(main, 2, argv=("-picheck=1",))
        assert bad.aborted is not None
