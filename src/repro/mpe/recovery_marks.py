"""Recovery-interval drawables: making localized recovery *visible*.

Okita et al. ("Debugging Tool for Localizing Faulty Processes in
Message Passing Programs") argue a failed-and-recovered process must be
legible in the trace, not silently healed.  When
:mod:`repro.vmpi.msglog` reintegrates a crashed rank, this module
injects a small, well-known set of MPE drawables into the recovered
rank's buffer:

* a ``MSGLOG_Recovery`` state spanning the replayed interval
  (``replay_from`` .. crash time), which Jumpshot renders striped;
* a crash solo event and a replay-summary solo event at the crash
  time, whose 40-byte texts carry the crash/replay virtual times the
  viewer popup shows.

The event ids live in a reserved band (:data:`RESERVED_EVENT_IDS`)
far above anything :class:`repro.mpe.api.MpeLogger`'s allocator hands
out, so user ids can never collide — and so the same ids can be
*stripped back out*: :func:`strip_recovery` removes every recovery
drawable from a parsed log, and :func:`canonical_stripped_bytes` is
what the byte-identity tests compare (a recovered run must equal the
fault-free run in everything except these markers).
"""

from __future__ import annotations

import io
from typing import TYPE_CHECKING, Any

from repro.mpe.clog2 import Clog2File, read_log, timed, write_clog2_to
from repro.mpe.records import BareEvent, Definition, EventDef, StateDef

if TYPE_CHECKING:  # pragma: no cover
    from repro.vmpi.msglog import MessageLogger, RecoveryEpisode

# Reserved id band for recovery drawables.  The per-rank IdAllocator
# starts at 1 and counts up; no realistic program allocates thousands
# of states, so this band cannot collide.
RECOVERY_STATE_START = 9901
RECOVERY_STATE_END = 9902
RECOVERY_CRASH_EVENT = 9903
RECOVERY_REPLAY_EVENT = 9904

RESERVED_EVENT_IDS = frozenset({
    RECOVERY_STATE_START, RECOVERY_STATE_END,
    RECOVERY_CRASH_EVENT, RECOVERY_REPLAY_EVENT,
})

RECOVERY_STATE_NAME = "MSGLOG_Recovery"
RECOVERY_STATE_COLOR = "DarkOrchid"
RECOVERY_CRASH_COLOR = "red"
RECOVERY_REPLAY_COLOR = "orchid"


def recovery_definitions() -> list[Definition]:
    """The definitions every recovery drawable needs (dedup at merge
    makes repeated injection safe)."""
    return [
        StateDef(RECOVERY_STATE_START, RECOVERY_STATE_END,
                 RECOVERY_STATE_NAME, RECOVERY_STATE_COLOR),
        EventDef(RECOVERY_CRASH_EVENT, "MSGLOG_Crash", RECOVERY_CRASH_COLOR),
        EventDef(RECOVERY_REPLAY_EVENT, "MSGLOG_Replayed",
                 RECOVERY_REPLAY_COLOR),
    ]


def _insert_sorted(records: list, record: Any) -> None:
    """Insert keeping the per-rank buffer time-sorted (bisect-right on
    timestamp), so TR001 stays clean and the k-way merge at finalize
    needs no re-sort."""
    lo, hi = 0, len(records)
    ts = record.timestamp
    while lo < hi:
        mid = (lo + hi) // 2
        if records[mid].timestamp <= ts:
            lo = mid + 1
        else:
            hi = mid
    records.insert(lo, record)


def inject_recovery_drawables(rank_log: Any, task: Any,
                              episodes: "list[RecoveryEpisode]") -> None:
    """Add the recovery state + solo events for ``episodes`` to one
    rank's MPE buffer (:class:`repro.mpe.api.RankLog`).

    Timestamps are converted through the rank's local clock so the
    merge-time skew correction lands them back at the true times.
    """
    if not episodes:
        return
    have = {(getattr(d, "start_id", None), getattr(d, "event_id", None))
            for d in rank_log.definitions}
    for d in recovery_definitions():
        key = (getattr(d, "start_id", None), getattr(d, "event_id", None))
        if key not in have:
            rank_log.definitions.append(d)
    rank = task.rank
    for ep in episodes:
        t_from = task.clock.read(ep.replay_from)
        t_crash = task.clock.read(ep.crash_time)
        _insert_sorted(rank_log.records,
                       BareEvent(t_from, rank, RECOVERY_STATE_START, ""))
        _insert_sorted(rank_log.records,
                       BareEvent(t_crash, rank, RECOVERY_STATE_END, ""))
        _insert_sorted(rank_log.records,
                       BareEvent(t_crash, rank, RECOVERY_CRASH_EVENT,
                                 f"crash t={ep.crash_time:.6f}"))
        _insert_sorted(rank_log.records,
                       BareEvent(t_crash, rank, RECOVERY_REPLAY_EVENT,
                                 f"replayed {ep.determinants_replayed} "
                                 f"from t={ep.replay_from:.6f}"))


def install_recovery_marks(msglog: "MessageLogger") -> None:
    """Register the drawable injector on a message logger.

    Fires after every recovery; re-injects *all* of the rank's episodes
    each time, because a repeated crash discards the previous
    incarnation's buffer (drawables included).
    """

    def _mark(logger: "MessageLogger", episode: "RecoveryEpisode") -> None:
        task = logger.engine.tasks.get(episode.rank)
        if task is None:
            return
        log = task.locals.get("mpe")
        if log is None:
            from repro.mpe.api import RankLog

            log = task.locals["mpe"] = RankLog()
        inject_recovery_drawables(
            log, task,
            [ep for ep in logger.episodes if ep.rank == episode.rank])

    msglog.on_recovered.append(_mark)


# -- stripping (the byte-identity comparison) --------------------------------


def _is_recovery_definition(d: Definition) -> bool:
    if isinstance(d, StateDef):
        return d.start_id in RESERVED_EVENT_IDS
    if isinstance(d, EventDef):
        return d.event_id in RESERVED_EVENT_IDS
    return False


def strip_recovery(log: Clog2File) -> Clog2File:
    """A copy of ``log`` without any recovery drawables.

    Removing one rank's inserted records from a stable k-way merge
    never reorders the remaining records, so a recovered run stripped
    this way is directly comparable to the fault-free run.
    """
    definitions = [d for d in log.definitions
                   if not _is_recovery_definition(d)]
    records = [r for r in log.records
               if not (isinstance(r, BareEvent)
                       and r.event_id in RESERVED_EVENT_IDS)]
    return Clog2File(log.clock_resolution, log.num_ranks,
                     definitions, records)


def canonical_stripped_bytes(path: str) -> bytes:
    """Read a CLOG2, strip recovery drawables, and re-serialise to a
    canonical byte string.  Run *both* sides of a comparison through
    this, so the equality is between canonical forms."""
    log = strip_recovery(read_log(path).log)
    buf = io.BytesIO()
    write_clog2_to(buf, log.clock_resolution, log.num_ranks,
                   log.definitions, timed(log.records))
    return buf.getvalue()
