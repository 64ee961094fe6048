"""Lifecycle and configuration tests: phases, argv parsing, process
availability, rank displacement by the service rank."""

import pytest

from repro.pilot import PilotConfig, run_pilot
from repro.pilot.api import (
    PI_MAIN,
    PI_Configure,
    PI_CreateChannel,
    PI_CreateProcess,
    PI_GetName,
    PI_Read,
    PI_SetName,
    PI_StartAll,
    PI_StopMain,
    PI_Write,
)
from repro.pilot.errors import PilotError

from tests.pilot.helpers import expect_abort_with


class TestParseArgv:
    def test_no_pilot_args(self):
        opts, rest = PilotConfig.from_argv(["prog", "input.csv"])
        assert rest == ["prog", "input.csv"]
        assert opts.services == ""

    def test_pisvc_letters(self):
        opts, rest = PilotConfig.from_argv(["-pisvc=cj"])
        assert opts.services == "cj"
        assert rest == []

    def test_pisvc_combinable(self):
        opts, _ = PilotConfig.from_argv(["-pisvc=c", "-pisvc=dj"])
        assert opts.services == "cdj"

    def test_picheck_levels(self):
        for lvl in range(4):
            opts, _ = PilotConfig.from_argv([f"-picheck={lvl}"])
            assert opts.check_level == lvl

    def test_bad_pisvc_letter(self):
        with pytest.raises(PilotError):
            PilotConfig.from_argv(["-pisvc=zx"])

    def test_bad_picheck(self):
        with pytest.raises(PilotError):
            PilotConfig.from_argv(["-picheck=9"])
        with pytest.raises(PilotError):
            PilotConfig.from_argv(["-picheck=abc"])

    def test_service_rank_rules(self):
        assert not PilotConfig(services="j").needs_service_rank
        assert PilotConfig(services="c").needs_service_rank
        assert PilotConfig(services="d").needs_service_rank
        assert PilotConfig(services="cdj").needs_service_rank

    def test_mpe_enabled_requires_built_in(self):
        assert PilotConfig(services="j").mpe_enabled
        assert not PilotConfig(services="j", mpe_available=False).mpe_enabled


class TestConfigure:
    def test_returns_available_processes(self):
        seen = []

        def main(argv):
            seen.append(PI_Configure(argv))
            PI_StartAll()
            PI_StopMain(0)

        run_pilot(main, 5)
        assert seen == [5] * 5  # every rank sees the same count

    def test_service_rank_displaces_one(self):
        seen = []

        def main(argv):
            seen.append(PI_Configure(argv))
            PI_StartAll()
            PI_StopMain(0)

        run_pilot(main, 5, argv=("-pisvc=c",))
        assert seen[0] == 4  # paper III.E: "one worker is displaced"

    def test_double_configure_aborts(self):
        def main(argv):
            PI_Configure(argv)
            PI_Configure(argv)

        res = run_pilot(main, 2)
        expect_abort_with(res, "WRONG_PHASE")

    def test_io_before_startall_aborts(self):
        def main(argv):
            PI_Configure(argv)
            p = PI_CreateProcess(lambda i, a: 0, 0)
            c = PI_CreateChannel(PI_MAIN, p)
            PI_Write(c, "%d", 1)  # still in configuration phase

        res = run_pilot(main, 2)
        expect_abort_with(res, "WRONG_PHASE")

    def test_create_before_configure_aborts(self):
        def main(argv):
            PI_CreateProcess(lambda i, a: 0, 0)

        res = run_pilot(main, 2)
        expect_abort_with(res, "WRONG_PHASE")


class TestProcessCreation:
    def test_too_many_processes(self):
        def main(argv):
            PI_Configure(argv)
            for i in range(5):  # only 2 ranks: max 1 worker
                PI_CreateProcess(lambda i, a: 0, i)
            PI_StartAll()
            PI_StopMain(0)

        res = run_pilot(main, 2)
        expect_abort_with(res, "TOO_MANY_PROCESSES")

    def test_worker_receives_index_and_arg2(self):
        got = {}

        def main(argv):
            def work(index, arg2):
                got["index"] = index
                got["arg2"] = arg2
                return 0

            PI_Configure(argv)
            PI_CreateProcess(work, 7, {"payload": True})
            PI_StartAll()
            PI_StopMain(0)

        run_pilot(main, 2)
        assert got == {"index": 7, "arg2": {"payload": True}}

    def test_worker_status_returned(self):
        def main(argv):
            PI_Configure(argv)
            PI_CreateProcess(lambda i, a: 42, 0)
            PI_StartAll()
            PI_StopMain(0)

        res = run_pilot(main, 2)
        assert res.vmpi.results[1] == 42

    def test_self_channel_rejected(self):
        def main(argv):
            PI_Configure(argv)
            PI_CreateChannel(PI_MAIN, PI_MAIN)

        res = run_pilot(main, 2)
        expect_abort_with(res, "SELF_CHANNEL")

    def test_bad_endpoint_rejected(self):
        def main(argv):
            PI_Configure(argv)
            PI_CreateChannel(PI_MAIN, "not a process")

        res = run_pilot(main, 2)
        expect_abort_with(res, "BAD_ENDPOINT")

    def test_default_names(self):
        names = {}

        def main(argv):
            PI_Configure(argv)
            p = PI_CreateProcess(lambda i, a: 0, 0)
            c = PI_CreateChannel(PI_MAIN, p)
            names["p"] = PI_GetName(p)
            names["c"] = PI_GetName(c)
            PI_StartAll()
            PI_StopMain(0)

        run_pilot(main, 2)
        assert names == {"p": "P1", "c": "C0"}

    def test_setname(self):
        names = {}

        def main(argv):
            PI_Configure(argv)
            p = PI_CreateProcess(lambda i, a: 0, 0)
            PI_SetName(p, "Decompressor")
            names["p"] = PI_GetName(p)
            PI_StartAll()
            PI_StopMain(0)

        run_pilot(main, 2)
        assert names["p"] == "Decompressor"

    def test_unused_ranks_idle_through(self):
        def main(argv):
            PI_Configure(argv)
            PI_CreateProcess(lambda i, a: 0, 0)  # 1 worker, world of 6
            PI_StartAll()
            PI_StopMain(0)

        res = run_pilot(main, 6)
        assert res.ok


class TestStopMain:
    def test_worker_cannot_stopmain(self):
        def main(argv):
            def work(i, a):
                PI_StopMain(0)
                return 0

            PI_Configure(argv)
            PI_CreateProcess(work, 0)
            PI_StartAll()
            PI_StopMain(0)

        res = run_pilot(main, 2)
        expect_abort_with(res, "WRONG_ENDPOINT")

    def test_main_continues_after_stopmain(self):
        after = []

        def main(argv):
            PI_Configure(argv)
            PI_StartAll()
            PI_StopMain(0)
            after.append("yes")
            return "done"

        res = run_pilot(main, 2)
        assert after == ["yes"]
        assert res.vmpi.results[0] == "done"

    def test_io_after_stopmain_aborts(self):
        def main(argv):
            def work(i, a):
                PI_Read(chan[0], "%d")
                return 0

            chan = []
            PI_Configure(argv)
            p = PI_CreateProcess(work, 0)
            chan.append(PI_CreateChannel(PI_MAIN, p))
            PI_StartAll()
            PI_Write(chan[0], "%d", 1)
            PI_StopMain(0)
            PI_Write(chan[0], "%d", 2)

        res = run_pilot(main, 2)
        expect_abort_with(res, "WRONG_PHASE")


class TestConfigConsistency:
    def test_divergent_config_detected(self):
        # Rank-dependent configuration is exactly what Pilot forbids.
        # Force divergence via the rank-distinguishable work index.
        from repro.pilot.program import current_run

        def main(argv):
            PI_Configure(argv)
            rank = current_run().rank
            PI_CreateProcess(lambda i, a: 0, index=rank)  # differs per rank!
            PI_StartAll()
            PI_StopMain(0)

        res = run_pilot(main, 3)
        expect_abort_with(res, "CONFIG_MISMATCH")
