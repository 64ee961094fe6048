"""Failure injection: crashes and aborts at awkward moments must leave
the system in a clean, explainable state (no hangs, no thread leaks,
no half-written logs presented as whole)."""

import os
import threading

import pytest

from repro.pilot import PilotConfig, run_pilot
from repro.pilot.api import (
    PI_MAIN,
    PI_Abort,
    PI_Compute,
    PI_Configure,
    PI_CreateChannel,
    PI_CreateProcess,
    PI_Read,
    PI_StartAll,
    PI_StopMain,
    PI_Write,
)
from repro.vmpi.errors import TaskFailed


def crash_program(crash_rank, crash_when):
    """A 3-rank pipeline where one rank raises at a chosen phase."""

    def main(argv):
        chans = {}

        def work(i, _a):
            if crash_rank == 1 and crash_when == "early":
                raise RuntimeError("worker died before any I/O")
            v = PI_Read(chans["to"], "%d")
            if crash_rank == 1 and crash_when == "mid":
                raise RuntimeError("worker died mid-protocol")
            PI_Write(chans["back"], "%d", int(v))
            return 0

        if crash_rank == 0 and crash_when == "config":
            PI_Configure(argv)
            raise RuntimeError("main died during configuration")
        PI_Configure(argv)
        p = PI_CreateProcess(work, 0)
        chans["to"] = PI_CreateChannel(PI_MAIN, p)
        chans["back"] = PI_CreateChannel(p, PI_MAIN)
        PI_StartAll()
        PI_Write(chans["to"], "%d", 1)
        if crash_rank == 0 and crash_when == "mid":
            raise RuntimeError("main died mid-protocol")
        PI_Read(chans["back"], "%d")
        PI_StopMain(0)

    return main


CASES = [(0, "config"), (0, "mid"), (1, "early"), (1, "mid")]


class TestCrashes:
    @pytest.mark.parametrize("rank,when", CASES)
    def test_crash_propagates_and_world_unwinds(self, rank, when):
        before = threading.active_count()
        with pytest.raises(TaskFailed) as ei:
            run_pilot(crash_program(rank, when), 2)
        assert "died" in str(ei.value.original)
        assert threading.active_count() <= before + 1  # no leaked ranks

    @pytest.mark.parametrize("rank,when", CASES)
    def test_crash_with_all_services(self, rank, when, tmp_path):
        opts = PilotConfig(native_log_path=str(tmp_path / "n.log"),
                           mpe_log_path=str(tmp_path / "m.clog2"))
        with pytest.raises(TaskFailed):
            run_pilot(crash_program(rank, when), 3, argv=("-pisvc=cdj",),
                      config=opts)
        # The crash prevented a normal finalize: no merged MPE file.
        assert not os.path.exists(str(tmp_path / "m.clog2"))

    def test_crash_in_work_function_identifies_rank(self):
        with pytest.raises(TaskFailed) as ei:
            run_pilot(crash_program(1, "early"), 2)
        assert ei.value.rank == 1


class TestAbortTiming:
    def _abort_at(self, moment, tmp_path):
        native = str(tmp_path / "n.log")
        mpe = str(tmp_path / "m.clog2")

        def main(argv):
            chans = {}

            def work(i, _a):
                PI_Read(chans["to"], "%d")
                PI_Compute(0.01)
                PI_Write(chans["back"], "%d", 1)
                return 0

            PI_Configure(argv)
            if moment == "config":
                PI_Abort(1, "abort during configuration")
            p = PI_CreateProcess(work, 0)
            chans["to"] = PI_CreateChannel(PI_MAIN, p)
            chans["back"] = PI_CreateChannel(p, PI_MAIN)
            PI_StartAll()
            PI_Write(chans["to"], "%d", 1)
            PI_Read(chans["back"], "%d")
            if moment == "exec":
                # One full round has been logged by now.
                PI_Abort(1, "abort during execution")
            PI_StopMain(0)
            if moment == "after_stop":
                PI_Abort(1, "abort after StopMain")

        opts = PilotConfig(native_log_path=native, mpe_log_path=mpe)
        res = run_pilot(main, 3, argv=("-pisvc=cj",), config=opts)
        return res, native, mpe

    def test_abort_during_config(self, tmp_path):
        res, native, mpe = self._abort_at("config", tmp_path)
        assert res.aborted is not None
        assert not os.path.exists(mpe)

    def test_abort_during_exec(self, tmp_path):
        res, native, mpe = self._abort_at("exec", tmp_path)
        assert res.aborted is not None
        assert not os.path.exists(mpe)  # MPE log lost (paper III.B)
        assert os.path.exists(native)  # native log survives

    def test_abort_after_stopmain_keeps_merged_log(self, tmp_path):
        # The merge happened inside PI_StopMain; a later abort cannot
        # retract a file already on disk.
        res, native, mpe = self._abort_at("after_stop", tmp_path)
        assert res.aborted is not None
        assert os.path.exists(mpe)

    def test_deterministic_abort(self, tmp_path):
        r1, _, _ = self._abort_at("exec", tmp_path)
        r2, _, _ = self._abort_at("exec", tmp_path)
        assert r1.vmpi.finished_at == r2.vmpi.finished_at
