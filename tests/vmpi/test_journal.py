"""Unit tests for the write-ahead event journal and checkpoint/replay.

Covers the durability contract at the byte level (a kill at *any* byte
leaves a loadable prefix), the record/replay round trip at the engine
level, divergence detection, and the fault-plan / manifest
serialization the restart path depends on.
"""

import json
import math
import os

import pytest

from repro.vmpi.comm import Communicator
from repro.vmpi.engine import Engine
from repro.vmpi.faults import (
    ClockFault,
    CrashFault,
    FaultPlan,
    FaultPlanError,
    MessageFault,
    plan_from_dict,
    plan_to_dict,
)
from repro.vmpi.journal import (
    JOURNAL_VERSION,
    K_CKPT,
    K_DELIVER,
    K_INJECT,
    Journal,
    JournalError,
    ReplayDivergence,
    checkpoint_name,
    manifest_for_engine,
    rank_wal_name,
    read_wal,
)
from repro.vmpi.world import World, compute

NPROCS = 2
ROUNDS = 6


def chatter(comm):
    """A deterministic two-rank conversation with some compute."""
    for i in range(ROUNDS):
        if comm.rank == 0:
            comm.send(("ping", i), dest=1, tag=i)
            compute(comm, 3e-4)
            comm.recv(source=1, tag=i)
        else:
            v = comm.recv(source=0, tag=i)
            compute(comm, 2e-4)
            comm.send(v, dest=0, tag=i)


def delay_plan(*, crash_at=None):
    rules = [MessageFault("delay", probability=0.25, delay=2e-4,
                          jitter=1e-4)]
    if crash_at is not None:
        rules.append(CrashFault(rank=1, at=crash_at, reason="injected"))
    return FaultPlan(seed=3, rules=tuple(rules))


def run_recorded(jdir, *, plan=None, suppress_crashes=False,
                 interval=1e-3, seed=11, main=chatter):
    """World + record journal, same wiring run_pilot uses."""
    world = World(NPROCS, seed=seed, faults=plan,
                  suppress_crashes=suppress_crashes)
    manifest = manifest_for_engine(world.engine, nprocs=NPROCS)
    journal = Journal.record(str(jdir), manifest,
                             checkpoint_interval=interval)
    journal.attach(world.engine)
    res = world.run(main)
    journal.close()
    return res, journal


def run_resumed(jdir, *, main=chatter):
    engine = Engine.resume(str(jdir))
    comm = Communicator(engine, NPROCS)
    for rank in range(NPROCS):
        engine.spawn(lambda: main(comm), rank)
    res = engine.run()
    engine.journal.check()
    return res, engine


class TestWalDurability:
    def test_kill_at_any_byte_leaves_loadable_prefix(self, tmp_path):
        jdir = tmp_path / "j"
        run_recorded(jdir, plan=delay_plan())
        wal = jdir / rank_wal_name(1)
        data = wal.read_bytes()
        full, torn = read_wal(str(wal))
        assert full and torn == 0
        # Byte offset where each frame ends, from the raw stream.
        import struct
        ends, pos = [0], 0
        while pos < len(data):
            _, length, _ = struct.unpack_from("<BII", data, pos)
            pos += 9 + length
            ends.append(pos)
        assert pos == len(data)
        cut_file = tmp_path / "cut.wal"
        for cut in range(len(data)):
            cut_file.write_bytes(data[:cut])
            entries, torn_bytes = read_wal(str(cut_file))
            # Never raises; always a clean prefix of the full stream,
            # losing at most the frame the kill landed inside.
            assert entries == full[:len(entries)]
            assert torn_bytes == cut - ends[len(entries)]

    def test_bitflip_stops_reading_at_the_bad_frame(self, tmp_path):
        jdir = tmp_path / "j"
        run_recorded(jdir, plan=delay_plan())
        wal = jdir / rank_wal_name(0)
        data = bytearray(wal.read_bytes())
        full, _ = read_wal(str(wal))
        # Corrupt a payload byte in the middle of the file.
        data[len(data) // 2] ^= 0xFF
        wal.write_bytes(bytes(data))
        entries, torn = read_wal(str(wal))
        assert len(entries) < len(full)
        assert entries == full[:len(entries)]
        assert torn > 0

    def test_journal_directory_layout(self, tmp_path):
        jdir = tmp_path / "j"
        res, journal = run_recorded(jdir, plan=delay_plan())
        assert res.ok
        names = sorted(os.listdir(jdir))
        assert "manifest.json" in names
        assert rank_wal_name(0) in names and rank_wal_name(1) in names
        assert "world.wal" in names
        assert checkpoint_name(1) in names
        assert not [n for n in names if n.endswith(".tmp")]
        entries, _ = read_wal(str(jdir / rank_wal_name(1)))
        assert {e.kind for e in entries} == {K_DELIVER}
        world_kinds = {e.kind
                       for e in read_wal(str(jdir / "world.wal"))[0]}
        assert K_CKPT in world_kinds and K_INJECT in world_kinds

    def test_record_wipes_stale_journal_state(self, tmp_path):
        jdir = tmp_path / "j"
        run_recorded(jdir, plan=delay_plan())
        stale = set(os.listdir(jdir))
        assert len(stale) > 2
        # Re-recording into the same directory must not leave mixed
        # generations behind.
        run_recorded(jdir)  # no faults: fewer files
        entries, _ = read_wal(str(jdir / "world.wal"))
        assert K_INJECT not in {e.kind for e in entries}

    def test_delivery_records_carry_world_ranks(self, tmp_path):
        def halves(comm):
            # Parity split of 4 ranks: sub-rank 0 -> 1 is world 0 -> 2
            # in one half and world 1 -> 3 in the other.
            sub = comm.split(comm.rank % 2)
            if sub.rank == 0:
                sub.send("hi", dest=1, tag=5)
            else:
                sub.recv(source=0, tag=5)

        jdir = tmp_path / "j"
        world = World(4, seed=1)
        Journal.record(str(jdir), manifest_for_engine(world.engine,
                                                      nprocs=4),
                       checkpoint_interval=0.0).attach(world.engine)
        assert world.run(halves).ok
        world.engine.journal.close()
        for src, dest in ((0, 2), (1, 3)):
            entries, _ = read_wal(str(jdir / rank_wal_name(dest)))
            sub = [e.data for e in entries if e.data["ctx"] != 0]
            assert [(d["src"], d["dest"], d["tag"]) for d in sub] == \
                [(src, dest, 5)]


class TestRecordReplayRoundTrip:
    def test_crash_resume_matches_uninterrupted_run(self, tmp_path):
        jdir = tmp_path / "crashed"
        res, _ = run_recorded(jdir, plan=delay_plan(crash_at=1.5e-3))
        assert res.aborted is not None
        assert res.aborted.errorcode == 134

        replay_res, engine = run_resumed(jdir)
        assert replay_res.ok
        assert engine.journal.divergences == []

        ref_dir = tmp_path / "reference"
        ref_res, _ = run_recorded(ref_dir, plan=delay_plan(crash_at=1.5e-3),
                                  suppress_crashes=True)
        assert ref_res.ok
        assert replay_res.finished_at == ref_res.finished_at
        inj_replay = [str(i) for i in engine.fault_injector.injections]
        inj_ref = [str(i) for i in
                   run_recorded(tmp_path / "ref2",
                                plan=delay_plan(crash_at=1.5e-3),
                                suppress_crashes=True)[0]
                   .engine.fault_injector.injections]
        assert inj_replay == inj_ref

    def test_recorded_abort_and_accessors(self, tmp_path):
        jdir = tmp_path / "j"
        run_recorded(jdir, plan=delay_plan(crash_at=1.5e-3))
        journal = Journal.replay(str(jdir))
        abort = journal.recorded_abort()
        assert abort is not None
        assert abort["errorcode"] == 134
        assert journal.checkpoint_times() == [1e-3]
        boundary = journal.replay_boundary()
        assert boundary is not None and boundary <= 1.5e-3
        assert journal.recorded_deliveries(1)
        assert journal.recorded_injections()

    def test_wrong_program_diverges(self, tmp_path):
        jdir = tmp_path / "j"
        run_recorded(jdir, plan=delay_plan(crash_at=1.5e-3))

        def other(comm):
            for i in range(ROUNDS):
                if comm.rank == 0:
                    comm.send(("PONG", i), dest=1, tag=i)  # payload differs
                    compute(comm, 3e-4)
                    comm.recv(source=1, tag=i)
                else:
                    v = comm.recv(source=0, tag=i)
                    compute(comm, 2e-4)
                    comm.send(v, dest=0, tag=i)

        engine = Engine.resume(str(jdir))
        comm = Communicator(engine, NPROCS)
        for rank in range(NPROCS):
            engine.spawn(lambda: other(comm), rank)
        res = engine.run()
        assert res.aborted is not None
        assert res.aborted.errorcode == 96
        assert engine.journal.divergences
        with pytest.raises(ReplayDivergence):
            engine.journal.check()

    def test_torn_checkpoint_file_is_skipped_on_replay(self, tmp_path):
        jdir = tmp_path / "j"
        run_recorded(jdir, plan=delay_plan(crash_at=1.5e-3))
        ckpt = jdir / checkpoint_name(1)
        data = ckpt.read_bytes()
        ckpt.write_bytes(data[:len(data) // 2])  # torn mid-write
        # The torn checkpoint is dropped; the WAL prefix still replays.
        replay_res, engine = run_resumed(jdir)
        assert replay_res.ok
        assert engine.journal.divergences == []

    def test_replay_requires_a_journal(self, tmp_path):
        with pytest.raises(JournalError):
            Journal.replay(str(tmp_path / "nope"))

    def test_replay_refuses_another_journal_version(self, tmp_path):
        # Version 1 delivery records held communicator-local ranks;
        # replaying them against world-rank records would diverge.
        jdir = tmp_path / "j"
        run_recorded(jdir, plan=delay_plan())
        path = jdir / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["journal_version"] = 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(JournalError,
                           match=r"journal_version 1\b.*version 2\b"):
            Journal.replay(str(jdir))

    def test_mode_validated(self, tmp_path):
        with pytest.raises(JournalError):
            Journal(str(tmp_path), "append", {})


class TestSerialization:
    def test_plan_round_trips_through_json(self):
        plan = FaultPlan(seed=42, rules=(
            MessageFault("delay", probability=0.5, delay=2e-4, jitter=1e-4,
                         tag=3),
            MessageFault("drop", max_count=2),
            CrashFault(rank=1, at=4e-3, reason="boom"),
            ClockFault(rank=0, offset=1e-4, drift=1e-6),
        ))
        data = json.loads(json.dumps(plan_to_dict(plan)))
        clone = plan_from_dict(data)
        assert plan_to_dict(clone) == plan_to_dict(plan)
        assert clone.seed == 42
        assert len(clone.rules) == 4

    def test_infinite_before_survives(self):
        plan = FaultPlan(seed=1, rules=(
            MessageFault("delay", before=math.inf, delay=1e-4),))
        clone = plan_from_dict(plan_to_dict(plan))
        assert clone.rules[0].before == math.inf

    def test_bad_plan_dicts_rejected(self):
        with pytest.raises(FaultPlanError):
            plan_from_dict({"seed": 0, "rules": [{"kind": "gremlin"}]})
        with pytest.raises(FaultPlanError):
            plan_from_dict({"seed": 0, "rules": ["not a dict"]})
        with pytest.raises(FaultPlanError):
            plan_from_dict({"seed": 0, "rules": [
                {"kind": "message", "action": "delay", "bogus": 1}]})

    def test_manifest_records_the_run_parameters(self, tmp_path):
        plan = delay_plan(crash_at=2e-3)
        world = World(NPROCS, seed=7, faults=plan)
        manifest = manifest_for_engine(world.engine, nprocs=NPROCS,
                                       extra={"argv": ["x"]})
        assert manifest["journal_version"] == JOURNAL_VERSION == 2
        assert manifest["seed"] == 7
        assert manifest["nprocs"] == NPROCS
        assert manifest["argv"] == ["x"]
        assert plan_from_dict(manifest["fault_plan"]).seed == plan.seed
        # Written manifest is valid JSON on disk with the checkpoint
        # cadence the replay must reproduce.
        journal = Journal.record(str(tmp_path / "j"), manifest,
                                 checkpoint_interval=5e-4)
        journal.close()
        with open(tmp_path / "j" / "manifest.json") as fh:
            on_disk = json.load(fh)
        assert on_disk["checkpoint_interval"] == 5e-4
        assert on_disk["seed"] == 7
