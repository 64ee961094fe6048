"""Unit tests for sender-based message logging + localized recovery.

The contract under test (see ``repro.vmpi.msglog``): a rank crashed by
a recovery-enabled :class:`CrashFault` is killed, respawned and replayed
from the senders' logs while the survivors never restart — and the
run's observable outcome (result values, arrival traces, finish time)
is identical to the same plan with the crash suppressed.
"""

import os

import pytest

from repro.vmpi.engine import TaskState
from repro.vmpi.faults import (
    CrashFault,
    FaultPlan,
    FaultPlanError,
    MessageFault,
    plan_from_dict,
    plan_to_dict,
)
from repro.vmpi.journal import (
    K_DELIVER,
    Journal,
    manifest_for_engine,
    rank_wal_name,
    read_wal,
)
from repro.vmpi.msglog import Determinant, MessageLogger, MsglogError
from repro.vmpi.world import World

WORKERS = 2
ROUNDS = 8


def pipeline(comm, trace, starts, rounds=ROUNDS):
    """Master/worker round-trips.

    Only the master (which these tests never crash) appends to
    ``trace``: a replayed incarnation re-executes its program, so side
    effects outside the engine — like appending to a closure list —
    legitimately happen again on the recovered rank.  The master's
    arrival record captures every observable the workers produce.
    """
    rank = comm.rank
    starts[rank] = starts.get(rank, 0) + 1
    if rank == 0:
        for r in range(rounds):
            for w in range(1, comm.size):
                comm.send(("work", r), dest=w, tag=1)
            for _ in range(1, comm.size):
                v = comm.recv(tag=2)
                trace.append((v, round(comm.engine.wtime(), 9)))
        return "master"
    for _ in range(rounds):
        v = comm.recv(source=0, tag=1)
        comm.engine.advance(2e-4, "compute")
        comm.send((rank, v[1]), dest=0, tag=2)
    return f"worker{rank}"


def split_pipeline(comm, rounds=ROUNDS):
    """The pipeline inside each half of a parity split.

    Every member holds its own sub-communicator, and each one numbers
    its sends from seq 0, so a half's master and workers reuse the
    same ``(context, seq)`` pairs.  Each master returns its arrival
    record (rather than appending to a closure list), so crashing a
    sub-communicator root stays observable without double counting.
    """
    sub = comm.split(comm.rank % 2)
    if sub.rank == 0:
        arrivals = []
        for r in range(rounds):
            for w in range(1, sub.size):
                sub.send(("work", r), dest=w, tag=1)
            for _ in range(1, sub.size):
                v = sub.recv(tag=2)
                arrivals.append((v, round(comm.engine.wtime(), 9)))
        return arrivals
    for _ in range(rounds):
        v = sub.recv(source=0, tag=1)
        comm.engine.advance(2e-4, "compute")
        sub.send((comm.rank, v[1]), dest=0, tag=2)
    return comm.rank


def run_once(plan, *, recover, seed=3, journal_dir=None, rounds=ROUNDS):
    """One run; returns (result, trace, starts, msglog-or-None).

    ``journal_dir`` records a journal beside the message logger."""
    trace, starts = [], {}
    world = World(WORKERS + 1, seed=seed, faults=plan,
                  suppress_crashes=not recover)
    journal = None
    if journal_dir is not None:
        journal = Journal.record(
            journal_dir, manifest_for_engine(world.engine,
                                             nprocs=WORKERS + 1),
            checkpoint_interval=5e-4).attach(world.engine)
    msglog = None
    if recover:
        msglog = MessageLogger(world.engine)
    res = world.run(pipeline, trace, starts, rounds)
    if journal is not None:
        journal.close()
    return res, trace, starts, msglog


def journal_deliveries(jdir, rank):
    """The ``K_DELIVER`` records of one rank's WAL, as determinants."""
    entries, torn = read_wal(os.path.join(jdir, rank_wal_name(rank)))
    fields = ("src", "dest", "ctx", "tag", "seq", "t", "nbytes")
    return [Determinant(**{k: e.data[k] for k in fields})
            for e in entries if e.kind == K_DELIVER], torn


def crash_plan(rank=1, at=1.2e-3, extra=()):
    return FaultPlan(seed=7, rules=[
        MessageFault("delay", probability=0.3, delay=2e-4, jitter=1e-4),
        CrashFault(rank=rank, at=at, reason="boom"),
        *extra,
    ])


class TestRecovery:
    @pytest.mark.parametrize("rank,at", [(1, 1.2e-3), (2, 7e-4), (1, 2e-3)])
    def test_recovered_run_matches_reference(self, rank, at):
        plan = crash_plan(rank, at)
        rec, trace_r, starts_r, msglog = run_once(plan, recover=True)
        ref, trace_f, starts_f, _ = run_once(crash_plan(rank, at),
                                             recover=False)
        assert rec.ok and ref.ok
        assert trace_r == trace_f
        assert rec.finished_at == pytest.approx(ref.finished_at)
        assert len(msglog.episodes) == 1
        ep = msglog.episodes[0]
        assert ep.rank == rank
        assert ep.crash_time == pytest.approx(at)
        assert ep.determinants_replayed > 0

    def test_survivors_never_restart(self):
        _, _, starts, msglog = run_once(crash_plan(rank=1), recover=True)
        assert starts[1] == 2  # crashed incarnation + respawn
        assert starts[0] == 1
        assert starts[2] == 1
        assert msglog.stats["suppressed"] == \
            msglog.episodes[0].sends_suppressed

    def test_repeated_crashes_of_same_rank(self):
        plan = crash_plan(rank=1, at=8e-4,
                          extra=(CrashFault(rank=1, at=1.6e-3,
                                            reason="again"),))
        rec, trace_r, starts, msglog = run_once(plan, recover=True)
        ref, trace_f, _, _ = run_once(
            crash_plan(rank=1, at=8e-4,
                       extra=(CrashFault(rank=1, at=1.6e-3,
                                         reason="again"),)),
            recover=False)
        assert rec.ok and ref.ok
        assert trace_r == trace_f
        assert starts[1] == 3
        assert [ep.reason for ep in msglog.episodes] == ["boom", "again"]
        # The second replay covers the cumulative history.
        assert msglog.episodes[1].determinants_replayed >= \
            msglog.episodes[0].determinants_replayed

    def test_crash_after_rank_done_is_noop(self):
        # Rank 1 finishes quickly; the crash fires while others still run.
        def uneven(comm, trace, starts, rounds):
            starts[comm.rank] = starts.get(comm.rank, 0) + 1
            if comm.rank == 1:
                return "early"
            comm.engine.advance(5e-3, "work")
            return "late"

        trace, starts = [], {}
        plan = FaultPlan(rules=[CrashFault(rank=1, at=1e-3)])
        world = World(3, faults=plan)
        msglog = MessageLogger(world.engine)
        res = world.run(uneven, trace, starts, 0)
        assert res.ok
        assert msglog.episodes == []
        assert starts[1] == 1

    def test_recover_never_forces_abort(self):
        plan = FaultPlan(rules=[
            CrashFault(rank=1, at=1e-3, reason="fatal", recover="never")])

        def spin(comm, trace, starts, rounds):
            for _ in range(100):
                comm.engine.advance(1e-4, "work")

        world = World(2, faults=plan)
        msglog = MessageLogger(world.engine)
        res = world.run(spin, [], {}, 0)
        assert res.aborted is not None
        assert res.aborted.errorcode == 134
        assert msglog.episodes == []

    def test_resource_acquire_during_replay_rejected(self):
        from repro.vmpi.engine import Resource

        plan = FaultPlan(rules=[CrashFault(rank=1, at=1.5e-3)])
        world = World(2, faults=plan)
        MessageLogger(world.engine)
        lock = Resource(world.engine, name="disk")

        def locker(comm, trace, starts, rounds):
            if comm.rank == 0:
                comm.send("go", dest=1, tag=1)
                with lock:
                    comm.engine.advance(5e-3, "hold")
            else:
                comm.recv(source=0, tag=1)  # ensures a determinant exists
                with lock:  # still held by rank 0 at the crash time
                    comm.engine.advance(1e-3, "crit")

        with pytest.raises(MsglogError, match="shared resource"):
            world.run(locker, [], {}, 0)


class TestSplitCommunicator:
    """Sends on a sub-communicator are told apart by their world sender:
    each member's communicator numbers its own sends from seq 0."""

    @pytest.mark.parametrize("rank", [3, 1], ids=["member", "root"])
    def test_recovered_run_matches_reference(self, rank):
        def run(recover):
            world = World(6, seed=3, faults=crash_plan(rank, 7e-4),
                          suppress_crashes=not recover)
            msglog = MessageLogger(world.engine) if recover else None
            return world.run(split_pipeline), msglog

        rec, msglog = run(recover=True)
        ref, _ = run(recover=False)
        assert rec.ok and ref.ok
        assert rec.results == ref.results
        assert rec.finished_at == pytest.approx(ref.finished_at)
        assert [ep.rank for ep in msglog.episodes] == [rank]
        # No send overwrote another's send-log entry.
        assert len(msglog.send_log) == msglog.stats["logged"]


class TestDurability:
    """The journal's rank WALs are the durable determinant log."""

    def test_wal_roundtrips_determinants(self, tmp_path):
        jdir = str(tmp_path / "journal")
        _, _, _, msglog = run_once(crash_plan(), recover=True,
                                   journal_dir=jdir)
        for rank in range(WORKERS + 1):
            dets, torn = journal_deliveries(jdir, rank)
            assert torn == 0
            assert dets == msglog.determinants.get(rank, [])

    def test_wal_torn_tail_loads_prefix(self, tmp_path):
        jdir = str(tmp_path / "journal")
        run_once(crash_plan(), recover=True, journal_dir=jdir)
        whole, _ = journal_deliveries(jdir, 1)
        with open(os.path.join(jdir, rank_wal_name(1)), "ab") as fh:
            fh.write(b"\x01\xff\xff garbage")
        dets, torn = journal_deliveries(jdir, 1)
        assert torn > 0
        assert dets == whole


class TestGc:
    def test_gc_reclaims_unprotected_entries(self):
        # No injector: live ranks are protected, finished ranks are not.
        _, _, _, msglog = run_once(crash_plan(), recover=True)
        assert msglog.send_log  # whole-run retention under a live plan
        before = len(msglog.send_log)
        reclaimed = msglog.gc()  # post-run: everyone is DONE
        assert reclaimed == before
        assert msglog.retained_bytes() == 0
        assert msglog.stats["gc_reclaimed"] == before

    def test_gc_protects_ranks_with_pending_crash_rules(self):
        plan = FaultPlan(rules=[CrashFault(rank=1, at=5.0)])  # pending
        world = World(3, faults=plan)
        msglog = MessageLogger(world.engine)
        observed = {}

        def app(comm, trace, starts, rounds):
            if comm.rank == 0:
                for w in (1, 2):
                    comm.send("x", dest=w, tag=1)
                comm.engine.advance(1e-3, "wait")
                # Mid-run barrier: everyone is still live here.
                msglog.gc()
                observed["dests"] = {e.dest
                                     for e in msglog.send_log.values()}
            else:
                comm.recv(source=0, tag=1)
                comm.send("y", dest=0, tag=2)
                comm.engine.advance(2e-3, "linger")  # alive at the barrier

        world.run(app, [], {}, 0)
        # Only rank 1 has a pending crash rule; entries to 0 and 2 go.
        assert observed["dests"] == {1}

    def test_replay_after_gc_is_a_hard_error(self):
        class _FakeTask:
            rank = 1
            state = TaskState.BLOCKED

            def __init__(self):
                self.locals = {}

        world = World(2)
        msglog = MessageLogger(world.engine)
        det = Determinant(src=0, dest=1, ctx=7, tag=1, seq=9,
                          t=1e-3, nbytes=8)
        with pytest.raises(MsglogError, match="garbage-collected"):
            msglog._route(_FakeTask(), det)


class TestPlanRecoverField:
    def test_recover_roundtrips_through_dict(self):
        plan = FaultPlan(seed=5, rules=[
            CrashFault(rank=1, at=1e-3, recover="msglog"),
            CrashFault(rank=2, at=2e-3, recover="never"),
            CrashFault(rank=0, at=3e-3),
        ])
        back = plan_from_dict(plan_to_dict(plan))
        assert [r.recover for r in back.rules] == ["msglog", "never", None]
        assert plan_to_dict(back) == plan_to_dict(plan)

    def test_bad_recover_value_rejected(self):
        with pytest.raises(FaultPlanError, match="recover"):
            CrashFault(rank=0, at=1e-3, recover="magic")

    def test_from_dict_error_names_the_rule(self):
        data = plan_to_dict(FaultPlan(rules=[
            CrashFault(rank=0, at=1e-3),
            CrashFault(rank=1, at=2e-3),
        ]))
        data["rules"][1]["recover"] = "magic"
        with pytest.raises(FaultPlanError, match=r"rule #1"):
            plan_from_dict(data)

    def test_from_dict_unknown_field_names_the_rule(self):
        data = {"seed": 0, "rules": [
            {"kind": "crash", "rank": 0, "at": 1e-3, "resurrect": True}]}
        with pytest.raises(FaultPlanError, match=r"rule #0"):
            plan_from_dict(data)
