"""Unit tests for the virtual-time progress watchdog.

The watchdog must catch the failure shape the deadlock detector cannot
— a run that keeps consuming virtual time while some rank starves —
and end it deliberately, either abort-with-salvage or
checkpoint-and-stop.  It must NOT mask a true stall: with the watchdog
armed, an empty heap still reaches :class:`SimulationDeadlock`.
"""

import os

import pytest

from repro.pilot import PilotConfig
from repro.pilot.errors import PilotError
from repro.vmpi.errors import SimulationDeadlock
from repro.vmpi.journal import Journal, manifest_for_engine
from repro.vmpi.watchdog import (
    WATCHDOG_ABORT,
    WATCHDOG_CHECKPOINT,
    ProgressWatchdog,
    WatchdogError,
)
from repro.vmpi.world import World, compute


def livelock(comm):
    """Rank 0 churns forever; rank 1 waits for a message that never
    comes.  Virtual time keeps advancing, so the deadlock detector
    never fires."""
    if comm.rank == 0:
        for _ in range(10_000):
            compute(comm, 1e-2)
    else:
        comm.recv(source=0, tag=0)


class TestFiring:
    def test_abort_with_salvage_names_the_hung_rank(self):
        world = World(2)
        dog = ProgressWatchdog(world.engine, timeout=0.05).arm()
        res = world.run(livelock)
        assert res.aborted is not None
        assert res.aborted.errorcode == WATCHDOG_ABORT
        assert dog.fired
        assert list(dog.hung_ranks) == [1]
        assert dog.hung_ranks[1] > 0.05
        assert "watchdog" in res.aborted.reason
        assert "abort-with-salvage" in res.aborted.reason

    def test_checkpoint_and_stop_persists_a_checkpoint(self, tmp_path):
        world = World(2)
        journal = Journal.record(str(tmp_path / "j"),
                                 manifest_for_engine(world.engine, nprocs=2),
                                 checkpoint_interval=0.0)
        journal.attach(world.engine)
        dog = ProgressWatchdog(world.engine, timeout=0.05,
                               action="checkpoint", journal=journal).arm()
        res = world.run(livelock)
        journal.close()
        assert res.aborted is not None
        assert res.aborted.errorcode == WATCHDOG_CHECKPOINT
        assert "checkpoint-and-stop" in res.aborted.reason
        assert dog.fired
        ckpts = [n for n in os.listdir(tmp_path / "j")
                 if n.startswith("ckpt-")]
        assert ckpts, "checkpoint-and-stop wrote no checkpoint"

    def test_healthy_run_never_fires(self):
        def quick(comm):
            if comm.rank == 0:
                comm.send("x", dest=1, tag=0)
            else:
                comm.recv(source=0, tag=0)

        world = World(2)
        dog = ProgressWatchdog(world.engine, timeout=10.0).arm()
        res = world.run(quick)
        assert res.ok
        assert not dog.fired

    def test_true_deadlock_still_reaches_the_detector(self):
        def deadlock(comm):
            comm.recv(source=1 - comm.rank, tag=0)

        world = World(2)
        ProgressWatchdog(world.engine, timeout=0.05).arm()
        with pytest.raises(SimulationDeadlock):
            world.run(deadlock)


class TestConfiguration:
    def test_bad_timeout_rejected(self):
        world = World(2)
        with pytest.raises(WatchdogError):
            ProgressWatchdog(world.engine, timeout=0.0)
        with pytest.raises(WatchdogError):
            ProgressWatchdog(world.engine, timeout=1.0, interval=-1.0)

    def test_unknown_action_rejected(self):
        world = World(2)
        with pytest.raises(WatchdogError):
            ProgressWatchdog(world.engine, timeout=1.0, action="panic")

    def test_default_interval_is_quarter_timeout(self):
        world = World(2)
        dog = ProgressWatchdog(world.engine, timeout=1.0)
        assert dog.interval == 0.25


class TestArgvParsing:
    def test_piwatchdog_timeout_and_action(self):
        opts, rest = PilotConfig.from_argv(
            ["-piwatchdog=0.5:checkpoint", "app-arg"])
        assert opts.watchdog_timeout == 0.5
        assert opts.watchdog_action == "checkpoint"
        assert rest == ["app-arg"]

    def test_piwatchdog_default_action(self):
        opts, _ = PilotConfig.from_argv(["-piwatchdog=2"])
        assert opts.watchdog_timeout == 2.0
        assert opts.watchdog_action is None  # unset means "abort"

    def test_piwatchdog_rejects_garbage(self):
        with pytest.raises(PilotError):
            PilotConfig.from_argv(["-piwatchdog=soon"])
        with pytest.raises(PilotError):
            PilotConfig.from_argv(["-piwatchdog=0"])
        with pytest.raises(PilotError):
            PilotConfig.from_argv(["-piwatchdog=1:detonate"])

    def test_pijournal_threads_through(self):
        opts, _ = PilotConfig.from_argv(["-pijournal=/tmp/j"])
        assert opts.journal_dir == "/tmp/j"
        with pytest.raises(PilotError):
            PilotConfig.from_argv(["-pijournal="])

    def test_resume_service_letter(self):
        opts, _ = PilotConfig.from_argv(["-pisvc=jr"], PilotConfig())
        assert "r" in opts.services
