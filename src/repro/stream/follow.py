"""Tailing a running engine's log files, crash-tolerantly.

:class:`LogFollower` watches the per-rank salvage partials
(``<base>.rankNNNN.part``), the engine's exit sidecar
(``<base>.exit.json``, written by the runner when streaming is armed)
and optionally the run's journal, and turns each poll into a
:class:`FollowUpdate` of new records.  Three failure modes are
distinguished here:

* **writer hasn't flushed yet** — the growing reader
  (:func:`repro.mpe.salvage.tail_partial`) holds a torn tail and
  returns a resumable offset; the service backs off under its
  :class:`~repro._util.retry.RetryPolicy` and re-polls;
* **torn chunk frame at tail** — same holding behaviour: the partial
  frame is *never* emitted downstream; it is re-examined once the file
  grows past it;
* **writer died** — detected through the exit sidecar (normal end or
  abort), the journal's abort record, or — when neither exists — a
  stall past the policy deadline with bytes still held at a tail.

Cursors (:mod:`repro.stream.cursors`) make the follower itself
crash-recoverable: byte offsets resume tailing without re-reading
consumed bytes, and emitted-record counts let a restarted service
re-fold history without double-emitting anything downstream.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro._util.fsio import atomic_write_json
from repro._util.retry import RetryPolicy
from repro.mpe.salvage import (
    APPEND_MAGIC,
    PARTIAL_MAGIC,
    find_partials,
    read_partial_log,
    tail_partial,
)
from repro.stream.cursors import RankCursor, StreamCursors, cursors_path

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpe.clocksync import SyncPoint
    from repro.mpe.records import Definition, LogRecord
    from repro.perf import PerfRecorder

#: Exit sidecar naming convention (written by the Pilot runner when the
#: stream service letter is armed; ``python -m repro.stream serve`` on a
#: foreign run falls back to journal/stall detection).
EXIT_SUFFIX = ".exit.json"

#: Default follower policy: how long a silent writer may stay silent
#: before the run is declared dead, and how the re-polls back off.
DEFAULT_POLICY = RetryPolicy(deadline=10.0, initial=0.02, max_delay=0.5)

_RANK_RE_SUFFIX = ".part"


def exit_path(base_path: str) -> str:
    return base_path + EXIT_SUFFIX


def _rank_of(partial: str) -> int:
    # "<base>.rankNNNN.part" — find_partials guarantees the shape.
    stem = partial[:-len(_RANK_RE_SUFFIX)]
    return int(stem[-4:])


@dataclass
class FollowUpdate:
    """What one :meth:`LogFollower.poll` observed."""

    new_records: dict[int, list["LogRecord"]] = field(default_factory=dict)
    replayed_records: dict[int, list["LogRecord"]] = field(
        default_factory=dict)
    new_definitions: list["Definition"] = field(default_factory=list)
    new_syncs: dict[int, list["SyncPoint"]] = field(default_factory=dict)
    new_ranks: list[int] = field(default_factory=list)
    grew: bool = False
    finished: bool = False
    degraded: bool = False
    reason: str = ""
    crashed_ranks: dict[int, float | None] = field(default_factory=dict)

    @property
    def record_count(self) -> int:
        return (sum(len(r) for r in self.new_records.values())
                + sum(len(r) for r in self.replayed_records.values()))


class LogFollower:
    """Incremental, resumable reader over one run's log artifacts."""

    def __init__(self, base_path: str, *,
                 policy: RetryPolicy | None = None,
                 cursors_file: str | None = None,
                 journal_dir: str | None = None,
                 perf: "PerfRecorder | None" = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.base_path = base_path
        self.policy = policy or DEFAULT_POLICY
        self.cursors_file = cursors_file or cursors_path(base_path)
        self.journal_dir = journal_dir
        self.perf = perf
        self._clock = clock
        self.finished = False
        self.degraded = False
        self.reason = ""
        self.crashed_ranks: dict[int, float | None] = {}
        self.resumed = False
        self._last_growth = clock()
        self._replay_skip: dict[int, int] = {}
        self._saved: dict | None = None  # sidecar contents last written
        loaded = StreamCursors.load(self.cursors_file, base_path)
        if loaded is not None and loaded.ranks:
            # A previous service instance followed this run.  Its fold
            # state died with it, so one backfill pass re-reads each
            # partial from the start — but the persisted emitted-record
            # counts split that backfill into "replayed" (history the
            # restarted fold must absorb exactly once, silently) and
            # genuinely new records, so nothing is double-emitted.
            self.resumed = True
            self.cursors = loaded
            for rank, cur in loaded.ranks.items():
                self._replay_skip[rank] = cur.records
                cur.offset = 0
                cur.records = 0
                cur.syncs = 0
        else:
            self.cursors = StreamCursors(base_path=base_path)

    # -- polling -----------------------------------------------------------

    def poll(self) -> FollowUpdate:
        """One scan pass over partials, exit sidecar and journal."""
        update = FollowUpdate()
        if self.finished:
            update.finished = True
            update.degraded = self.degraded
            update.reason = self.reason
            update.crashed_ranks = dict(self.crashed_ranks)
            return update
        for path in self._discover():
            rank = _rank_of(path)
            if rank not in self.cursors.ranks:
                self.cursors.ranks[rank] = RankCursor(
                    path=os.path.basename(path), mode=self._sniff_mode(path))
                update.new_ranks.append(rank)
            self._poll_rank(rank, path, update)
        if update.record_count or update.new_ranks:
            self._last_growth = self._clock()
            update.grew = True
        self._check_writer_death(update)
        if self.perf is not None:
            self.perf.count("stream-tail", records=update.record_count)
        return update

    def save_cursors(self) -> bool:
        """Persist the resume cursors if they changed since the last
        save; returns whether they did.  A poll that found nothing
        changes nothing, so it writes (and fsyncs) nothing."""
        self.cursors.finalized = self.finished
        self.cursors.degraded = self.degraded
        self.cursors.reason = self.reason
        data = self.cursors.to_json()
        if data == self._saved:
            return False
        atomic_write_json(self.cursors_file, data)
        self._saved = data
        return True

    # -- per-rank tailing --------------------------------------------------

    def _discover(self) -> list[str]:
        try:
            return find_partials(self.base_path)
        except OSError:
            return []  # transient: re-polled next pass

    def _sniff_mode(self, path: str) -> str:
        try:
            with open(path, "rb") as fh:
                magic = fh.read(8)
        except OSError:
            return "append"
        if magic == PARTIAL_MAGIC:
            return "rewrite"
        if magic == APPEND_MAGIC:
            return "append"
        return "append"  # header not flushed yet: append is the default

    def _poll_rank(self, rank: int, path: str, update: FollowUpdate) -> None:
        cur = self.cursors.ranks[rank]
        try:
            if cur.mode == "rewrite":
                self._poll_rewrite(rank, path, cur, update)
            else:
                self._poll_append(rank, path, cur, update)
        except FileNotFoundError:
            # The rank's partial vanished mid-poll: a clean finalize
            # deletes partials after merging.  The exit sidecar check
            # below settles what happened.
            return
        except OSError:
            return  # transient I/O: back off and re-poll

    def _poll_append(self, rank: int, path: str, cur: RankCursor,
                     update: FollowUpdate) -> None:
        tail = tail_partial(path, cur.offset)
        if tail is None:
            return  # header not flushed yet
        cur.offset = tail.offset
        cur.torn_bytes = tail.torn_bytes
        if tail.definitions:
            update.new_definitions.extend(tail.definitions)
        if tail.sync_points:
            update.new_syncs.setdefault(rank, []).extend(tail.sync_points)
            cur.syncs += len(tail.sync_points)
        if tail.records:
            self._split_records(rank, cur, tail.records, update)

    def _poll_rewrite(self, rank: int, path: str, cur: RankCursor,
                      update: FollowUpdate) -> None:
        # Rewrite-mode partials are atomically replaced wholesale each
        # checkpoint; the record list is a growing prefix, so consumed
        # counts (not byte offsets) are the resume point.
        size = os.path.getsize(path)
        if size == cur.offset:
            return  # unchanged since the last poll
        result = read_partial_log(path, errors="salvage")
        part = result.partial
        cur.offset = size
        if part.definitions:
            # The fold dedupes definitions by key, so re-emitting the
            # whole (tiny) table on every rewrite re-read is harmless.
            update.new_definitions.extend(part.definitions)
        new_syncs = part.sync_points[cur.syncs:]
        if new_syncs:
            update.new_syncs.setdefault(rank, []).extend(new_syncs)
            cur.syncs += len(new_syncs)
        pending = part.records[cur.records:]
        if pending:
            self._split_records(rank, cur, pending, update)

    def _split_records(self, rank: int, cur: RankCursor,
                       records: list["LogRecord"],
                       update: FollowUpdate) -> None:
        skip = self._replay_skip.get(rank, 0)
        if skip:
            replayed = records[:skip]
            fresh = records[skip:]
            self._replay_skip[rank] = skip - len(replayed)
            if self._replay_skip[rank] == 0:
                self._replay_skip.pop(rank, None)
            if replayed:
                update.replayed_records.setdefault(rank, []).extend(replayed)
                cur.records += len(replayed)
        else:
            fresh = records
        if fresh:
            update.new_records.setdefault(rank, []).extend(fresh)
            cur.records += len(fresh)
        if records:
            cur.frontier = max(cur.frontier, records[-1].timestamp)

    # -- writer-death detection --------------------------------------------

    def _check_writer_death(self, update: FollowUpdate) -> None:
        from repro._util.fsio import read_json

        try:
            exit_info = read_json(exit_path(self.base_path))
        except ValueError:
            exit_info = None
        if exit_info is not None and exit_info.get("finished"):
            self.finished = True
            if exit_info.get("ok", False):
                self.degraded = False
                self.reason = "clean"
            else:
                self.degraded = True
                self.reason = (f"writer aborted "
                               f"({exit_info.get('reason') or 'no reason'})")
                for key, at in (exit_info.get("crashed_ranks")
                                or {}).items():
                    self.crashed_ranks[int(key)] = at
        elif (abort := self._journal_abort()) is not None:
            self.finished = True
            self.degraded = True
            self.reason = (f"journal abort record: rank "
                           f"{abort.get('origin')} errorcode "
                           f"{abort.get('errorcode')}")
            origin = abort.get("origin")
            if origin is not None:
                self.crashed_ranks[int(origin)] = abort.get("t")
        elif self._stalled():
            self.finished = True
            self.degraded = True
            held = sum(c.torn_bytes for c in self.cursors.ranks.values())
            self.reason = (f"writer silent for more than "
                           f"{self.policy.deadline}s "
                           f"({held} byte(s) held at torn tails)")
        update.finished = self.finished
        update.degraded = self.degraded
        update.reason = self.reason
        update.crashed_ranks = dict(self.crashed_ranks)

    def _journal_abort(self) -> dict | None:
        if self.journal_dir is None:
            return None
        from repro.vmpi.journal import WORLD_WAL, read_wal

        try:
            entries, _torn = read_wal(os.path.join(self.journal_dir,
                                                   WORLD_WAL))
        except OSError:
            return None
        from repro.vmpi.journal import K_ABORT

        for entry in reversed(entries):
            if entry.kind == K_ABORT:
                return entry.data
        return None

    def _stalled(self) -> bool:
        if self.policy.deadline is None:
            return False
        if not self.cursors.ranks:
            return False  # nothing attached yet: keep waiting
        return (self._clock() - self._last_growth) > self.policy.deadline
