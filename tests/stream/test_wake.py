"""An in-process write wakes the live follower; a foreign one is polled.

Every service here runs under :data:`SLOW`, whose first timed poll
comes 5 s after the last, so anything picked up well inside that was
woken by the write signal (:func:`repro._util.fsio.notify_written`).
"""

from __future__ import annotations

import os
import threading
import time
from types import SimpleNamespace

import pytest

from repro._util import fsio
from repro._util.fsio import atomic_write_json
from repro._util.retry import RetryPolicy
from repro.mpe.clocksync import SyncPoint
from repro.mpe.records import BareEvent, EventDef
from repro.mpe.salvage import AppendPartialWriter, partial_path
from repro.stream.follow import exit_path
from repro.stream.service import StreamService

SLOW = RetryPolicy(deadline=60.0, initial=5.0, max_delay=5.0, jitter=0.0)
FAST_S = 1.0


def rank_log(rank: int) -> SimpleNamespace:
    return SimpleNamespace(definitions=[EventDef(9, "tick", "red")],
                           sync_points=[SyncPoint(0.0, 0.0)], records=[])


def add_records(log: SimpleNamespace, rank: int, n: int) -> None:
    start = len(log.records)
    log.records.extend(BareEvent((start + i + 1) * 1e-4 + rank * 1e-7,
                                 rank, 9, f"r{rank}.{start + i}")
                       for i in range(n))


def wait_for(predicate, timeout: float) -> float | None:
    """Seconds until ``predicate()`` held, or None after ``timeout``."""
    started = time.monotonic()
    while time.monotonic() - started < timeout:
        if predicate():
            return time.monotonic() - started
        time.sleep(0.002)
    return None


def watched(event: threading.Event) -> list[str]:
    return [path for path, events in fsio._watchers.items()
            if event in events]


class Run:
    """One rank's partial and a service following ``run.clog2``, with
    the service's finished passes counted."""

    def __init__(self, tmp_path) -> None:
        self.base = str(tmp_path / "run.clog2")
        self.log = rank_log(0)
        self.writer = AppendPartialWriter(partial_path(self.base, 0), 0,
                                          1e-6)
        self.service = StreamService(self.base, policy=SLOW,
                                     expected_ranks=1)
        self.passes = 0
        poll_once = self.service._poll_once

        def counted() -> bool:
            grew = poll_once()
            self.passes += 1
            return grew

        self.service._poll_once = counted  # type: ignore[method-assign]
        self.service.start()
        assert wait_for(lambda: self.passes == 1, FAST_S) is not None

    def checkpoint(self, n: int) -> None:
        add_records(self.log, 0, n)
        self.writer.checkpoint(self.log)

    def taken_in(self) -> int:
        cursor = self.service.follower.cursors.ranks.get(0)
        return cursor.records if cursor is not None else 0


@pytest.fixture
def run(tmp_path):
    run = Run(tmp_path)
    yield run
    run.service.stop()


def test_checkpoint_in_process_is_folded_at_once(run):
    run.checkpoint(5)
    # The watermark holds the one rank's frontier record back.
    assert wait_for(lambda: run.service.fold.records_folded == 4,
                    FAST_S) is not None
    run.checkpoint(3)
    assert wait_for(lambda: run.service.fold.records_folded == 7,
                    FAST_S) is not None


def test_exit_sidecar_finalizes_at_once(run):
    run.checkpoint(5)
    assert wait_for(lambda: run.taken_in() == 5, FAST_S) is not None
    atomic_write_json(exit_path(run.base), {"finished": True, "ok": True,
                                            "crashed_ranks": {}})
    assert run.service.wait_finalized(FAST_S)


def test_foreign_append_is_still_picked_up_by_the_timed_poll(run,
                                                             tmp_path):
    # The chunk bytes of one checkpoint, written unwatched elsewhere,
    # then appended to the followed partial with a plain open().
    scratch = str(tmp_path / "scratch.part")
    other = AppendPartialWriter(scratch, 0, 1e-6)
    add_records(run.log, 0, 5)
    other.checkpoint(run.log)
    with open(scratch, "rb") as fh:
        chunk = fh.read()[os.path.getsize(partial_path(run.base, 0)):]
    with open(partial_path(run.base, 0), "ab") as fh:
        fh.write(chunk)
    assert wait_for(lambda: run.taken_in() == 5, FAST_S) is None
    assert wait_for(lambda: run.taken_in() == 5,
                    2 * SLOW.initial) is not None
    assert wait_for(lambda: run.passes == 2, FAST_S) is not None


def test_cursor_saves_never_wake_the_service(run):
    run.checkpoint(5)
    assert wait_for(lambda: run.taken_in() == 5, FAST_S) is not None
    # That pass moved the cursors and saved the sidecar; with the
    # writer quiet, nothing may run another pass before the timer.
    assert os.path.exists(run.service.follower.cursors_file)
    passes = run.passes
    time.sleep(0.5)
    assert run.passes == passes


def test_a_write_to_a_longer_base_does_not_wake(run, tmp_path):
    other = str(tmp_path / "run.clog2x")
    log = rank_log(0)
    add_records(log, 0, 5)
    AppendPartialWriter(partial_path(other, 0), 0, 1e-6).checkpoint(log)
    atomic_write_json(exit_path(other), {"finished": True, "ok": True,
                                         "crashed_ranks": {}})
    time.sleep(0.5)
    assert run.passes == 1
    assert not run.service.wait_finalized(0)


def test_a_rank_found_late_is_watched_too(tmp_path):
    base = str(tmp_path / "run.clog2")
    service = StreamService(base, policy=SLOW).start()
    try:
        log = rank_log(3)
        writer = AppendPartialWriter(partial_path(base, 3), 3, 1e-6)
        add_records(log, 3, 2)
        writer.checkpoint(log)
        # Not expected, so the first checkpoint waits for the timer...
        assert wait_for(lambda: 3 in service.follower.cursors.ranks,
                        2 * SLOW.initial) is not None
        assert partial_path(base, 3) in watched(service._wake)
        # ...and every later one wakes the service.
        add_records(log, 3, 2)
        writer.checkpoint(log)
        assert wait_for(lambda: service.follower.cursors.ranks[3].records
                        == 4, FAST_S) is not None
    finally:
        service.stop()


def test_a_rank_known_from_saved_cursors_is_watched(tmp_path):
    base = str(tmp_path / "run.clog2")
    log = rank_log(3)
    writer = AppendPartialWriter(partial_path(base, 3), 3, 1e-6)
    add_records(log, 3, 2)
    writer.checkpoint(log)
    first = StreamService(base, policy=SLOW)
    first.follower.poll()
    first.follower.save_cursors()
    # A restarted service resumes rank 3 from the sidecar, so no poll
    # ever finds it new; it is watched all the same.
    service = StreamService(base, policy=SLOW).start()
    try:
        assert wait_for(lambda: partial_path(base, 3)
                        in watched(service._wake), FAST_S) is not None
        add_records(log, 3, 2)
        writer.checkpoint(log)
        assert wait_for(lambda: service.follower.cursors.ranks[3].records
                        == 4, FAST_S) is not None
    finally:
        service.stop()
        first._httpd.server_close()


def test_stop_returns_at_once_and_leaves_no_watcher(run):
    assert watched(run.service._wake)
    started = time.monotonic()
    run.service.stop()
    assert time.monotonic() - started < FAST_S
    assert watched(run.service._wake) == []


def test_finalize_leaves_no_watcher(run):
    atomic_write_json(exit_path(run.base), {"finished": True, "ok": True,
                                            "crashed_ranks": {}})
    assert run.service.wait_finalized(FAST_S)
    assert wait_for(lambda: not watched(run.service._wake),
                    FAST_S) is not None
