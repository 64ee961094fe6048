"""LogFollower edge cases: torn tails, late ranks, restart replay.

These are the PR 9 satellite scenarios: a tail cut exactly on (and
inside) a chunk boundary, a rank's ``.part`` appearing late, and a
service restart that replays from cursors with zero duplicate records.
"""

from __future__ import annotations

import io
import os
import struct
from types import SimpleNamespace

import pytest

from repro._util.fsio import atomic_write_json
from repro._util.retry import RetryPolicy
from repro.mpe.clocksync import SyncPoint
from repro.mpe.clog2 import Clog2FormatError, timed, write_clog2_to
from repro.mpe.fsck import fsck_path
from repro.mpe.records import BareEvent, EventDef, RankName
from repro.mpe.salvage import (
    AppendPartialWriter,
    partial_path,
    read_partial_log,
)
from repro.stream.cursors import cursors_path
from repro.stream.follow import LogFollower, exit_path
from repro.stream.service import StreamService

POLICY = RetryPolicy(deadline=0.5, initial=0.001, max_delay=0.01, jitter=0.0)


def rank_log(rank: int, n: int, *, t0: float = 0.0) -> SimpleNamespace:
    """A duck-typed RankLog: the writers only touch these three lists."""
    return SimpleNamespace(
        definitions=[EventDef(9, "tick", "red"), RankName(rank, f"P{rank}")],
        sync_points=[SyncPoint(t0, 0.0)],
        records=[BareEvent(t0 + i * 1e-3, rank, 9, f"r{rank}.{i}")
                 for i in range(n)])


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_follower(tmp_path, **kw) -> tuple[LogFollower, str]:
    base = str(tmp_path / "run.clog2")
    kw.setdefault("policy", POLICY)
    return LogFollower(base, **kw), base


def all_new_records(update) -> list:
    return [r for recs in update.new_records.values() for r in recs]


def test_append_partial_tailed_incrementally(tmp_path):
    follower, base = make_follower(tmp_path)
    log = rank_log(0, 5)
    writer = AppendPartialWriter(partial_path(base, 0), 0, 1e-6)
    writer.checkpoint(log)

    update = follower.poll()
    assert update.new_ranks == [0]
    assert update.grew
    assert len(update.new_records.get(0, [])) == 5
    assert update.new_definitions  # the defs ride the first chunk
    assert update.new_syncs[0] == log.sync_points

    # No growth: the next poll is empty but not finished.
    update = follower.poll()
    assert not update.grew
    assert not update.finished
    assert update.record_count == 0

    # Append five more: only the new ones come out.
    log.records.extend(BareEvent(1.0 + i * 1e-3, 0, 9, f"x{i}")
                       for i in range(5))
    writer.checkpoint(log)
    update = follower.poll()
    assert [r.text for r in update.new_records[0]] == [
        f"x{i}" for i in range(5)]


def test_tail_cut_inside_and_on_chunk_boundary(tmp_path):
    follower, base = make_follower(tmp_path)
    path = partial_path(base, 0)
    writer = AppendPartialWriter(path, 0, 1e-6)
    writer.checkpoint(rank_log(0, 8))
    with open(path, "rb") as fh:
        full = fh.read()

    # Cut in the middle of the record chunk: the whole chunk is held.
    with open(path, "wb") as fh:
        fh.write(full[: len(full) - 7])
    update = follower.poll()
    cur = follower.cursors.ranks[0]
    assert update.new_records.get(0, []) == []  # held, never emitted
    assert cur.torn_bytes > 0
    held_offset = cur.offset

    # The writer finishes the flush: exactly the held records appear,
    # resuming from the clean-boundary offset — no byte re-read, no
    # record duplicated.
    with open(path, "r+b") as fh:
        fh.seek(0, os.SEEK_END)
        fh.write(full[len(full) - 7:])
    update = follower.poll()
    assert len(update.new_records[0]) == 8
    assert follower.cursors.ranks[0].torn_bytes == 0
    assert follower.cursors.ranks[0].offset == len(full) > held_offset

    # A cut exactly *on* a chunk boundary is indistinguishable from a
    # fully flushed file: zero torn bytes, everything before it emitted.
    log2 = rank_log(1, 3)
    path2 = partial_path(base, 1)
    w2 = AppendPartialWriter(path2, 1, 1e-6)
    w2.checkpoint(log2)
    boundary = os.path.getsize(path2)
    log2.records.append(BareEvent(9.0, 1, 9, "later"))
    w2.checkpoint(log2)
    with open(path2, "rb") as fh:
        full2 = fh.read()
    with open(path2, "wb") as fh:
        fh.write(full2[:boundary])
    update = follower.poll()
    assert len(update.new_records[1]) == 3
    assert follower.cursors.ranks[1].torn_bytes == 0


def test_rank_part_appearing_late(tmp_path):
    follower, base = make_follower(tmp_path)
    AppendPartialWriter(partial_path(base, 0), 0, 1e-6).checkpoint(
        rank_log(0, 4))
    update = follower.poll()
    assert update.new_ranks == [0]

    # Rank 2's partial shows up only later (it buffered longer).
    AppendPartialWriter(partial_path(base, 2), 2, 1e-6).checkpoint(
        rank_log(2, 6, t0=0.5))
    update = follower.poll()
    assert update.new_ranks == [2]
    assert len(update.new_records[2]) == 6
    assert update.new_records.get(0, []) == []  # rank 0 did not re-emit
    assert follower.cursors.ranks[2].frontier > 0.5


def test_restart_replays_from_cursors_with_zero_duplicates(tmp_path):
    first, base = make_follower(tmp_path)
    path = partial_path(base, 0)
    log = rank_log(0, 10)
    writer = AppendPartialWriter(path, 0, 1e-6)
    writer.checkpoint(log)
    update = first.poll()
    assert len(update.new_records[0]) == 10
    first.save_cursors()

    # The service dies; more records land while nobody is watching.
    log.records.extend(BareEvent(2.0 + i * 1e-3, 0, 9, f"late{i}")
                       for i in range(4))
    writer.checkpoint(log)

    second = LogFollower(base, policy=POLICY)
    assert second.resumed
    update = second.poll()
    # History comes back *replayed* (for the restarted fold to absorb
    # silently), the post-crash records as genuinely new — and nothing
    # is in both buckets.
    assert len(update.replayed_records[0]) == 10
    assert [r.text for r in update.new_records[0]] == [
        f"late{i}" for i in range(4)]
    assert update.record_count == 14
    assert second.cursors.ranks[0].records == 14

    # A third poll emits nothing: the replay budget is spent.
    update = second.poll()
    assert update.record_count == 0


def test_stale_cursors_for_another_run_are_ignored(tmp_path):
    follower, base = make_follower(tmp_path)
    AppendPartialWriter(partial_path(base, 0), 0, 1e-6).checkpoint(
        rank_log(0, 3))
    follower.poll()
    follower.save_cursors()

    other = LogFollower(str(tmp_path / "other.clog2"), policy=POLICY,
                        cursors_file=cursors_path(base))
    assert not other.resumed  # base names differ: cursors refused


def test_corrupt_cursors_sidecar_means_fresh_attach(tmp_path):
    base = str(tmp_path / "run.clog2")
    with open(cursors_path(base), "w") as fh:
        fh.write("{this is not json")
    follower = LogFollower(base, policy=POLICY)
    assert not follower.resumed


def test_retired_rewrite_partial_is_refused(tmp_path):
    # The retired rewrite layout: magic, rank, sync count, the sync
    # points, then a whole CLOG2 image.
    log = rank_log(0, 4)
    image = io.BytesIO()
    write_clog2_to(image, 1e-6, 1, log.definitions, timed(log.records))
    base = str(tmp_path / "run.clog2")
    path = partial_path(base, 0)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<8sII", b"CLOGPART", 0, 1)
                 + struct.pack("<dd", 0.0, 0.0) + image.getvalue())

    with pytest.raises(Clog2FormatError, match="bad partial magic"):
        read_partial_log(path)
    part, report = read_partial_log(path, errors="salvage")
    assert part.rank == -1
    assert [r.reason for r in report.dropped_ranges] == [
        "bad partial magic b'CLOGPART'"]
    assert not fsck_path(path).clean

    service = StreamService(base, policy=POLICY, expected_ranks=1).start()
    try:
        assert service.wait_finalized(30.0)
        assert service.degraded
        assert "bad partial magic" in service.reason
    finally:
        service.stop()


def test_unreadable_partial_leaves_the_other_ranks_followed(tmp_path):
    """A bad-magic rank 0 beside a valid rank 1: the follower stops
    polling rank 0, names it in the reason, and keeps following rank 1,
    whose records the final view holds."""
    base = str(tmp_path / "run.clog2")
    with open(partial_path(base, 0), "wb") as fh:
        fh.write(b"NOTAPART" + bytes(24))
    AppendPartialWriter(partial_path(base, 1), 1, 1e-6).checkpoint(
        rank_log(1, 5))

    follower = LogFollower(base, policy=POLICY)
    update = follower.poll()
    assert update.refused_ranks == [0]
    assert update.degraded and not update.finished
    assert "run.clog2.rank0000.part" in update.reason
    assert "bad partial magic" in update.reason
    assert len(update.new_records[1]) == 5
    assert follower.poll().refused_ranks == []  # never polled again

    service = StreamService(base, policy=POLICY, expected_ranks=2).start()
    try:
        assert service.wait_finalized(30.0)
        status = service.status()
        assert status["final"]
        assert status["degraded"]
        assert "run.clog2.rank0000.part" in status["reason"]
        assert "bad partial magic" in status["reason"]
        assert "internal error" not in status["reason"]
        assert [(e.rank, e.text) for e in service._doc.events] == [
            (1, f"r1.{i}") for i in range(5)]
    finally:
        service.stop()


def test_exit_sidecar_clean_finish(tmp_path):
    follower, base = make_follower(tmp_path)
    AppendPartialWriter(partial_path(base, 0), 0, 1e-6).checkpoint(
        rank_log(0, 2))
    atomic_write_json(exit_path(base), {"finished": True, "ok": True,
                                        "crashed_ranks": {}})
    update = follower.poll()
    assert update.finished and not update.degraded
    assert follower.reason == "clean"
    # Once finished, polls stay finished (and cheap).
    assert follower.poll().finished


def test_exit_sidecar_abort_reports_crashed_ranks(tmp_path):
    follower, base = make_follower(tmp_path)
    AppendPartialWriter(partial_path(base, 1), 1, 1e-6).checkpoint(
        rank_log(1, 2))
    atomic_write_json(exit_path(base), {
        "finished": True, "ok": False, "reason": "rank 1 exploded",
        "crashed_ranks": {"1": 0.004}})
    update = follower.poll()
    assert update.finished and update.degraded
    assert "rank 1 exploded" in update.reason
    assert update.crashed_ranks == {1: 0.004}


def test_journal_abort_record_detected(tmp_path):
    from repro.vmpi.journal import K_ABORT, WORLD_WAL, _WalWriter

    journal_dir = str(tmp_path / "journal")
    os.makedirs(journal_dir)
    wal = _WalWriter(os.path.join(journal_dir, WORLD_WAL))
    wal.append(K_ABORT, {"errorcode": 77, "origin": 2, "reason": "boom",
                         "t": 0.25})
    wal.close()

    follower, base = make_follower(tmp_path, journal_dir=journal_dir)
    AppendPartialWriter(partial_path(base, 0), 0, 1e-6).checkpoint(
        rank_log(0, 2))
    update = follower.poll()
    assert update.finished and update.degraded
    assert "journal abort" in update.reason
    assert update.crashed_ranks == {2: 0.25}


def test_silent_writer_stall_declares_death(tmp_path):
    clock = FakeClock()
    follower, base = make_follower(tmp_path, clock=clock)
    path = partial_path(base, 0)
    writer = AppendPartialWriter(path, 0, 1e-6)
    writer.checkpoint(rank_log(0, 3))
    assert not follower.poll().finished

    # Still inside the deadline: waiting, not dead.
    clock.now += POLICY.deadline * 0.5
    assert not follower.poll().finished

    # Way past the deadline with no growth: the writer is gone.
    clock.now += POLICY.deadline * 2
    update = follower.poll()
    assert update.finished and update.degraded
    assert "silent" in update.reason

    # But growth resets the stall clock — a slow writer is not a dead
    # one.  (Fresh follower; the first declared death sticks.)
    clock2 = FakeClock()
    follower2 = LogFollower(base, policy=POLICY, clock=clock2)
    follower2.poll()
    clock2.now += POLICY.deadline * 0.9
    log = rank_log(0, 3)
    log.records.append(BareEvent(1.0, 0, 9, "alive"))
    writer.checkpoint(log)
    assert follower2.poll().grew
    clock2.now += POLICY.deadline * 0.9
    assert not follower2.poll().finished


def test_no_partials_yet_is_patience_not_death(tmp_path):
    clock = FakeClock()
    follower, _base = make_follower(tmp_path, clock=clock)
    clock.now += POLICY.deadline * 10
    update = follower.poll()
    assert not update.finished  # nothing attached: keep waiting
