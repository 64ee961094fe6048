"""Watchdog × recovery: the two robustness services compose.

Two interactions the pieces must survive together:

* ``-piwatchdog=T:checkpoint`` (checkpoint-and-stop, exit 98) on a
  starved run, then :func:`resume_pilot` with a relaxed watchdog — the
  resumed run must get *past* the recorded stop point (the forced
  checkpoint is not an interval barrier, so replay must not demand it
  back) and finish with final logs byte-identical to an uninterrupted
  reference.
* a watchdog armed across an ``-pirecover=msglog`` rank crash — the
  respawned incarnation's replay happens at a single virtual instant,
  and msglog refreshes ``last_active`` at respawn and reintegration,
  so a timeout that *would* have flagged the rank had its activity
  stamp been lost must not fire; the run completes and the stripped
  logs are still byte-identical to the fault-free reference.

Run with ``make chaos-recover`` or ``pytest tests/chaos``.
"""

import pytest

from repro.mpe.recovery_marks import canonical_stripped_bytes
from repro.pilot import PilotConfig, resume_pilot, run_pilot
from repro.pilot.errors import PilotError
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
from repro.pilotlog.integration import JumpshotOptions
from repro.vmpi.faults import CrashFault, FaultPlan
from repro.vmpi.watchdog import WATCHDOG_CHECKPOINT

from tests.chaos.test_chaos import pipeline_app
from tests.chaos.test_msglog import (
    CRASH_SITES,
    NPROCS,
    ROUNDS,
    RUN_SEED,
    WORKERS,
    msglog_plan,
    read_bytes,
    reference_run,
)
from tests.chaos.test_resume import PLAN_SEEDS


def slow_feeder_app(churn=40, step=2e-3):
    """Main churns for ``churn * step`` virtual seconds before feeding
    its worker: the worker starves (watchdog bait) but the run is NOT
    hung — given time, it completes."""

    def main(argv):
        chans = {}

        def starve(i, _a):
            v = PI_Read(chans["c"], "%d")
            PI_Write(chans["r"], "%d", int(v) + 1)
            return 0

        PI_Configure(argv)
        p = PI_CreateProcess(starve, 0)
        chans["c"] = PI_CreateChannel(PI_MAIN, p)
        chans["r"] = PI_CreateChannel(p, PI_MAIN)
        PI_StartAll()
        for _ in range(churn):
            PI_Compute(step)
        PI_Write(chans["c"], "%d", 7)
        PI_Read(chans["r"], "%d")
        PI_StopMain(0)

    return main


class TestCheckpointAndStopThenResume:
    def test_stop_resume_round_trip_byte_identical(self, tmp_path):
        log = str(tmp_path / "stopped.clog2")
        jdir = str(tmp_path / "stopped.journal")
        opts = PilotConfig(services="j", mpe_log_path=log, journal_dir=jdir,
                           watchdog_timeout=0.02, watchdog_action="checkpoint",
                           mpe=JumpshotOptions(), seed=RUN_SEED)
        res = run_pilot(slow_feeder_app(), 2, config=opts)
        assert res.aborted is not None
        assert res.aborted.errorcode == WATCHDOG_CHECKPOINT
        assert "checkpoint-and-stop" in res.aborted.reason
        assert res.watchdog.fired
        assert list(res.watchdog.hung_ranks) == [1]

        # Resume with a relaxed watchdog (the recorded one would stop
        # the replay at the same virtual instant, deterministically).
        # Replacing a recorded watchdog must be spelled out via
        # allow_overrides; a bare conflicting value is an error.
        with pytest.raises(PilotError, match="RESUME_CONFLICT|conflicts"):
            resume_pilot(slow_feeder_app(), jdir,
                         config=PilotConfig(watchdog_timeout=1e3))
        resumed = resume_pilot(
            slow_feeder_app(), jdir,
            config=PilotConfig(watchdog_timeout=1e3,
                               allow_overrides=("watchdog_timeout",)))
        assert resumed.aborted is None and resumed.ok
        assert resumed.journal.mode == "replay"
        assert resumed.journal.divergences == []
        assert not resumed.watchdog.fired

        # Ground truth: the same app uninterrupted, same journal cadence.
        ref_log = str(tmp_path / "reference.clog2")
        ref = run_pilot(
            slow_feeder_app(), 2,
            config=PilotConfig(services="j", mpe_log_path=ref_log,
                               journal_dir=str(tmp_path / "ref.journal"),
                               mpe=JumpshotOptions(), seed=RUN_SEED))
        assert ref.ok
        assert read_bytes(log) == read_bytes(ref_log)

    def test_forced_checkpoint_not_required_by_replay(self, tmp_path):
        """The forced checkpoint exists on disk but is excluded from the
        barrier stream a resumed run verifies against."""
        jdir = str(tmp_path / "j")
        opts = PilotConfig(services="j",
                           mpe_log_path=str(tmp_path / "a.clog2"),
                           journal_dir=jdir, watchdog_timeout=0.02,
                           watchdog_action="checkpoint", mpe=JumpshotOptions(),
                           seed=RUN_SEED)
        res = run_pilot(slow_feeder_app(), 2, config=opts)
        assert res.aborted.errorcode == WATCHDOG_CHECKPOINT
        # Inspect the journal as a resume would see it.
        from repro.vmpi.journal import Journal

        replay = Journal.replay(jdir)
        forced = [c for c in replay._recorded_ckpts.values()
                  if c.get("forced")]
        assert len(forced) == 1
        assert forced[0]["index"] not in [
            c["index"] for c in replay._replay_ckpts]

    def test_resume_under_recorded_watchdog_stops_again(self, tmp_path):
        """Without the override the recorded watchdog re-fires — the
        documented reason the override exists."""
        jdir = str(tmp_path / "j")
        opts = PilotConfig(services="j",
                           mpe_log_path=str(tmp_path / "a.clog2"),
                           journal_dir=jdir, watchdog_timeout=0.02,
                           watchdog_action="checkpoint", mpe=JumpshotOptions(),
                           seed=RUN_SEED)
        res = run_pilot(slow_feeder_app(), 2, config=opts)
        assert res.aborted.errorcode == WATCHDOG_CHECKPOINT
        resumed = resume_pilot(slow_feeder_app(), jdir)
        assert resumed.aborted is not None
        assert resumed.watchdog.fired


class TestWatchdogAcrossMsglogRecovery:
    #: Above the workload's widest legitimate quiet gap (injected
    #: delays plus the master's shutdown wait, both just under 2ms)
    #: but well under the watchdog's "hung for ages" regime — armed
    #: and meaningful across the whole run, crash and replay included.
    TIMEOUT = 3e-3

    def test_recovery_does_not_trip_an_armed_watchdog(self, tmp_path):
        seed = PLAN_SEEDS[0]
        rank, at = CRASH_SITES[1]
        log = str(tmp_path / "rec.clog2")
        jdir = str(tmp_path / "rec.journal")
        opts = PilotConfig(services="j", mpe_log_path=log, journal_dir=jdir,
                           recover="msglog", watchdog_timeout=self.TIMEOUT,
                           watchdog_action="checkpoint", mpe=JumpshotOptions(),
                           seed=RUN_SEED, faults=msglog_plan(seed, rank, at))
        res = run_pilot(pipeline_app(WORKERS, ROUNDS), NPROCS, config=opts)
        assert res.aborted is None and res.ok
        assert not res.watchdog.fired
        assert [int(ep["rank"]) for ep in
                res.recovery_report.recoveries] == [rank]

        ref_log, ref = reference_run(tmp_path, seed, rank, at)
        assert ref.ok
        assert canonical_stripped_bytes(log) == \
            canonical_stripped_bytes(ref_log)

    def test_respawn_refreshes_the_progress_stamp(self):
        """White-box: the reason an armed watchdog stays calm.  The
        respawned incarnation's ``last_active`` is brought up to the
        engine clock by reintegration — a stamp left at zero would
        read as hung at the first tick after the crash."""
        from repro.vmpi.msglog import MessageLogger
        from repro.vmpi.world import World

        plan = FaultPlan(seed=7, rules=(
            CrashFault(rank=1, at=1.2e-3, reason="boom"),))
        world = World(3, seed=3, faults=plan)
        msglog = MessageLogger(world.engine)
        stamps = []
        msglog.on_recovered.append(
            lambda _m, ep: stamps.append(
                (world.engine.tasks[ep.rank].last_active,
                 world.engine.now)))

        def app(comm):
            if comm.rank == 0:
                for r in range(8):
                    for w in (1, 2):
                        comm.send(("work", r), dest=w, tag=1)
                    for _ in (1, 2):
                        comm.recv(tag=2)
            else:
                for _ in range(8):
                    v = comm.recv(source=0, tag=1)
                    comm.engine.advance(2e-4, "compute")
                    comm.send((comm.rank, v[1]), dest=0, tag=2)

        res = world.run(app)
        assert res.ok
        assert len(msglog.episodes) == 1
        # At the moment the episode closed, the respawned rank's stamp
        # sat exactly at the engine clock (the crash instant — replay
        # consumes no virtual time).
        assert stamps == [(1.2e-3, 1.2e-3)]

    def test_watchdog_still_guards_a_recovered_run(self, tmp_path):
        """After a successful recovery the watchdog is still live: a
        starved rank added to the same world is still caught."""
        # A plan whose crash recovers, on the slow-feeder app whose
        # worker then starves past the timeout.
        log = str(tmp_path / "starved.clog2")
        opts = PilotConfig(services="j", mpe_log_path=log,
                           journal_dir=str(tmp_path / "j"), recover="msglog",
                           watchdog_timeout=0.02, watchdog_action="checkpoint",
                           mpe=JumpshotOptions(), seed=RUN_SEED)
        res = run_pilot(slow_feeder_app(), 2, config=opts)
        assert res.aborted is not None
        assert res.aborted.errorcode == WATCHDOG_CHECKPOINT
        assert res.watchdog.fired
