"""The legacy native log (-pisvc=c) — including its documented flaws."""

import os

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


def pingpong_program(rounds=3, abort_at=None):
    def main(argv):
        chans = {}

        def work(i, _a):
            for r in range(rounds):
                PI_Read(chans["to_w"], "%d")
                PI_Write(chans["to_m"], "%d", r)
            return 0

        PI_Configure(argv)
        p = PI_CreateProcess(work, 0)
        chans["to_w"] = PI_CreateChannel(PI_MAIN, p)
        chans["to_m"] = PI_CreateChannel(p, PI_MAIN)
        PI_StartAll()
        for r in range(rounds):
            PI_Write(chans["to_w"], "%d", r)
            PI_Read(chans["to_m"], "%d")
            if abort_at is not None and r == abort_at:
                PI_Abort(5, "student pressed the panic button")
        PI_StopMain(0)

    return main


@pytest.fixture
def log_path(tmp_path):
    return str(tmp_path / "native.log")


def read_log(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


class TestNativeLog:
    def test_log_written_and_parseable(self, log_path):
        opts = PilotConfig(native_log_path=log_path)
        res = run_pilot(pingpong_program(), 3, argv=("-pisvc=c",), config=opts)
        assert res.ok
        assert res.native_log_path == log_path
        lines = read_log(log_path)
        assert lines[0].startswith("#pilot-native-log")
        assert lines[-1].startswith("#end records=")

    def test_one_event_per_call(self, log_path):
        # Paper III.C: "only one event per API call was reported".
        opts = PilotConfig(native_log_path=log_path)
        run_pilot(pingpong_program(rounds=2), 3, argv=("-pisvc=c",),
                  config=opts)
        body = [l for l in read_log(log_path) if not l.startswith("#")]
        reads = [l for l in body if "PI_Read" in l]
        writes = [l for l in body if "PI_Write" in l]
        assert len(reads) == 4  # 2 on MAIN + 2 on worker
        assert len(writes) == 4

    def test_events_conglomerated_across_ranks(self, log_path):
        # Complaint (2): one file, all processes interleaved.
        opts = PilotConfig(native_log_path=log_path)
        run_pilot(pingpong_program(), 3, argv=("-pisvc=c",), config=opts)
        body = [l for l in read_log(log_path) if not l.startswith("#")]
        ranks = {l.split()[1] for l in body}
        assert ranks == {"r0", "r1"}

    def test_timestamps_are_arrival_times(self, log_path):
        # Complaint (1): stamps taken at the service rank, monotone in
        # arrival order regardless of when calls actually began.
        opts = PilotConfig(native_log_path=log_path)
        run_pilot(pingpong_program(), 3, argv=("-pisvc=c",), config=opts)
        body = [l for l in read_log(log_path) if not l.startswith("#")]
        stamps = [float(l.split()[0][1:]) for l in body]
        assert stamps == sorted(stamps)

    def test_callsites_recorded(self, log_path):
        opts = PilotConfig(native_log_path=log_path)
        run_pilot(pingpong_program(), 3, argv=("-pisvc=c",), config=opts)
        body = [l for l in read_log(log_path) if not l.startswith("#")]
        assert all("l=" in l and "test_nativelog.py" in l for l in body)

    def test_survives_abort(self, log_path, tmp_path):
        # Section III.B: the native log "does not have this
        # vulnerability because it writes each log entry onto a disk
        # file when it is received" — unlike the MPE log.
        mpe_path = str(tmp_path / "lost.clog2")
        opts = PilotConfig(native_log_path=log_path, mpe_log_path=mpe_path)
        res = run_pilot(pingpong_program(rounds=3, abort_at=1), 4,
                        argv=("-pisvc=cj",), config=opts)
        assert res.aborted is not None
        body = [l for l in read_log(log_path) if not l.startswith("#")]
        assert len(body) > 0  # events up to the abort are on disk
        assert not os.path.exists(mpe_path)  # the MPE log is lost

    def test_no_log_without_service(self, log_path):
        opts = PilotConfig(native_log_path=log_path)
        res = run_pilot(pingpong_program(), 3, config=opts)
        assert res.ok
        assert not os.path.exists(log_path)
        assert res.native_log_path is None

    def test_displacement_slows_fixed_world(self, log_path):
        """The native log consumes a rank: with the same -n, the same
        work takes longer (Section III.E's 30.97 -> 40.64 effect),
        here visible as one fewer available process."""
        avail = []

        def main(argv):
            avail.append(PI_Configure(argv))
            PI_StartAll()
            PI_StopMain(0)

        run_pilot(main, 6)
        base = avail[0]
        avail.clear()
        opts = PilotConfig(native_log_path=log_path)
        run_pilot(main, 6, argv=("-pisvc=c",), config=opts)
        assert avail[0] == base - 1
