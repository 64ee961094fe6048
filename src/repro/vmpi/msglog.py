"""Sender-based message logging with in-run localized recovery.

The journal (:mod:`repro.vmpi.journal`) made whole-run crash recovery
possible: record every delivery, restart the world, verify the
re-execution.  That is the right tool after the process died — but it
restarts *everyone*.  This
module implements the complementary protocol from Dichev &
Nikolopoulos ("Implementing Efficient Message Logging Protocols as MPI
Application Extensions"): pessimistic **sender-based payload logging**
plus **receiver-side determinant logging**, so a single crashed rank
can be replayed locally, in-run, while the survivors keep running and
block only on their direct dependencies.

The protocol, mapped onto the virtual cluster:

* **Send logging.**  Every ``isend`` retains its :class:`Message`
  (payload included) in the sender-side log, keyed by
  ``(context, world src, seq)``.  Each member of a split communicator
  holds its own :class:`Communicator` that numbers its sends from 0,
  so ``(context, seq)`` alone is not unique; the sender's world rank
  makes it so.  Per-lane *call counts* (``(src, dest, context) -> n``)
  are kept alongside; they are the suppression baseline during replay.
* **Determinant logging.**  Every delivery appends a
  :class:`Determinant` (src, dest, context, tag, seq, arrival time,
  size) to the destination rank's in-memory determinant list — the
  receive order is the only nondeterminism a deterministic engine
  leaves.  The durable copy is the journal's: with a journal directory
  armed, ``Journal.on_deliver`` writes the same delivery, in world
  ranks, to ``rankNNNN.wal``, so a host-level kill leaves a loadable
  prefix and :func:`repro.pilotcheck.lint_journal` checks it (TR009).
* **Recovery.**  When a :class:`~repro.vmpi.faults.CrashFault` fires
  with recovery enabled, :meth:`MessageLogger.recover_rank` retires the
  crashed incarnation (``TaskKilled``), respawns the rank's program,
  and *drives* it through its recorded history: determinants are
  re-delivered from the senders' logs in original order at original
  virtual times, duplicate sends are suppressed by sequence count, and
  no virtual time passes for the survivors.  The incarnation rejoins
  live execution exactly where the old one stood — mid-``advance``
  (the remainder is scheduled on the real heap) or blocked on traffic
  that had not arrived yet.

Garbage collection hooks the journal's checkpoint barriers
(:meth:`gc`): entries destined to finished ranks — or to ranks no
pending crash rule can touch — are reclaimed.  Because replay starts
from virtual time zero, entries to still-protected ranks must be kept
for the whole run; that retention cost is the price of checkpoint-free
localized recovery (see docs/robustness.md, "Recovery matrix").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.perf import NO_PERF, PerfRecorder
from repro.vmpi.engine import Task, TaskState
from repro.vmpi.errors import VmpiError

if TYPE_CHECKING:  # pragma: no cover
    from repro.vmpi.comm import Communicator, Message
    from repro.vmpi.engine import Engine
    from repro.vmpi.faults import CrashFault

class MsglogError(VmpiError):
    """Message-logging recovery hit an unrecoverable situation."""


@dataclass(frozen=True)
class Determinant:
    """One delivery, as the receiver must re-observe it."""

    src: int  # world rank of the sender
    dest: int  # world rank of the receiver
    ctx: int  # communicator context id
    tag: int
    seq: int  # communicator-global message sequence number
    t: float  # true virtual arrival time
    nbytes: int


@dataclass
class _SendEntry:
    """A retained message plus the routing facts GC needs."""

    msg: "Message"
    src: int  # world rank
    dest: int  # world rank
    nbytes: int


@dataclass
class _ReplayState:
    """Attached to a respawned task while it re-executes its history."""

    now: float  # replayed virtual time (<= the crash time)
    dets: list[Determinant]
    suppress: dict[tuple[int, int, int], int]  # lane -> pre-crash send calls
    cursor: int = 0
    sent: dict[tuple[int, int, int], int] = field(default_factory=dict)
    suppressed: int = 0


@dataclass
class RecoveryEpisode:
    """One completed localized recovery (the visible record)."""

    rank: int
    rule_index: int
    crash_time: float
    reason: str
    determinants_replayed: int
    sends_suppressed: int
    replay_from: float = 0.0
    outcome: str = "reintegrated"  # "reintegrated" | "blocked" | "finished"
    wall_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {"rank": self.rank, "rule_index": self.rule_index,
                "crash_time": self.crash_time, "reason": self.reason,
                "determinants_replayed": self.determinants_replayed,
                "sends_suppressed": self.sends_suppressed,
                "replay_from": self.replay_from, "outcome": self.outcome,
                "wall_seconds": self.wall_seconds}


class MessageLogger:
    """The run-wide message log + recovery driver for one engine.

    Construction installs it as ``engine.msglog``;
    :meth:`~repro.vmpi.comm.Communicator.isend` and ``_deliver`` route
    through it from then on.
    """

    def __init__(self, engine: "Engine", *,
                 perf: PerfRecorder = NO_PERF) -> None:
        self.engine = engine
        self.perf = perf
        # (context, src world, seq) -> retained message.  Duplicate-
        # fault copies share the original's seq, so both deliveries
        # replay from one entry; corrupt faults mutate the logged
        # message in place, so the entry reflects what actually
        # travelled.
        self.send_log: dict[tuple[int, int, int], _SendEntry] = {}
        # (src world, dest world, context) -> isend calls made (the
        # replay suppression baseline; counts *calls*, not deliveries,
        # so dropped messages stay symmetric).
        self.lane_sent: dict[tuple[int, int, int], int] = {}
        # dest world rank -> deliveries it observed, in order.
        self.determinants: dict[int, list[Determinant]] = {}
        self.episodes: list[RecoveryEpisode] = []
        # Fired after each recovery with (logger, episode); the Pilot
        # runner uses this to inject recovery drawables into the
        # respawned rank's MPE buffer (vmpi cannot import mpe).
        self.on_recovered: list[Callable[["MessageLogger", RecoveryEpisode],
                                         None]] = []
        self.stats = {"logged": 0, "logged_bytes": 0, "determinants": 0,
                      "replayed": 0, "suppressed": 0,
                      "gc_reclaimed": 0, "gc_bytes": 0}
        engine.msglog = self

    # -- logging hooks (called by Communicator) ---------------------------

    def on_isend(self, comm: "Communicator", msg: "Message",
                 task: Task) -> bool:
        """Log (or, during replay, suppress) one send.  Returns True
        when the send must not enter the network."""
        src = comm.group[msg.src]
        dest = comm.group[msg.dest]
        lane = (src, dest, msg.context)
        rs = task.replay
        if rs is not None:
            sent = rs.sent.get(lane, 0) + 1
            rs.sent[lane] = sent
            if sent <= rs.suppress.get(lane, 0):
                # The crashed incarnation already made this call: the
                # peer holds (or consumed) the message.
                rs.suppressed += 1
                self.stats["suppressed"] += 1
                return True
            # Beyond the pre-crash count: a genuinely new send at the
            # replay boundary — log it and let it go live.
        with self.perf.stage("msglog-append") as timer:
            self.send_log[(msg.context, src, msg.seq)] = _SendEntry(
                msg, src, dest, msg.nbytes)
        timer.count(records=1, bytes=msg.nbytes)
        self.lane_sent[lane] = self.lane_sent.get(lane, 0) + 1
        self.stats["logged"] += 1
        self.stats["logged_bytes"] += msg.nbytes
        return False

    def on_deliver(self, comm: "Communicator", msg: "Message",
                   dest_world: int) -> None:
        """Record one delivery's determinant (live deliveries only;
        replayed re-deliveries bypass ``_deliver`` entirely, so repeated
        crashes of a rank replay its cumulative history)."""
        det = Determinant(src=comm.group[msg.src], dest=dest_world,
                          ctx=msg.context, tag=msg.tag, seq=msg.seq,
                          t=self.engine.now, nbytes=msg.nbytes)
        self.determinants.setdefault(dest_world, []).append(det)
        self.stats["determinants"] += 1

    # -- recovery ---------------------------------------------------------

    def recover_rank(self, rule: "CrashFault", rule_index: int) -> None:
        """Kill, respawn, replay and reintegrate ``rule.rank``.

        Runs synchronously inside the crash event: no virtual time
        passes, no other task runs, and by the time this returns the
        respawned incarnation stands exactly where the old one stood.
        """
        engine = self.engine
        rank = rule.rank
        old = engine.tasks.get(rank)
        if old is None or old.state is TaskState.DONE:
            return  # nothing left to recover
        with self.perf.stage("msglog-replay") as timer:
            episode = self._recover(old, rule, rule_index)
        timer.count(records=episode.determinants_replayed)
        self.episodes.append(episode)
        for hook in list(self.on_recovered):
            hook(self, episode)

    def _recover(self, old: Task, rule: "CrashFault",
                 rule_index: int) -> RecoveryEpisode:
        engine = self.engine
        rank = old.rank
        crash_time = engine.now
        started = time.perf_counter()
        # 1. Retire the crashed incarnation.  Its thread unwinds with
        # TaskKilled; any heap events still targeting it no-op on DONE.
        old.killed = True
        if old.state is TaskState.NEW:
            # Thread never started; retire it by hand.
            old.state = TaskState.DONE
            engine._live_tasks -= 1
        else:
            engine.stats["switches"] += 1
            old._switch_to()
        # 2. Respawn the rank's program as a fresh incarnation (same
        # fn, so same deterministic clock/RNG streams) on the engine's
        # task backend.
        new = engine._make_task(rank, old.fn, old.name)
        engine._tasks[rank] = new
        engine._live_tasks += 1
        new.last_active = crash_time  # keep the watchdog calm
        # 3. Arm replay: the rank's full delivery history and the
        # suppression snapshot of everything it already sent.
        rs = _ReplayState(
            now=0.0,
            dets=list(self.determinants.get(rank, ())),
            suppress={lane: n for lane, n in self.lane_sent.items()
                      if lane[0] == rank},
        )
        new.replay = rs
        # 4. Drive the replay to the crash point.
        delivered = 0
        outcome = "reintegrated"
        while True:
            engine.stats["switches"] += 1
            new._switch_to()
            if new.state is TaskState.DONE:
                outcome = "finished"
                break
            if new.replay is None:
                break  # rejoined live execution mid-advance
            if new.state is TaskState.READY:
                # Yielded from a replayed advance: deliver everything
                # that arrived during that compute window, then resume.
                delivered += self._deliver_due(new, rs)
                continue
            # BLOCKED: feed determinants until one readies the task.
            if new.blocked_reason.startswith("acquire "):
                raise MsglogError(
                    f"rank {rank} blocked on a shared resource during "
                    f"replay ({new.blocked_reason!r}); msglog recovery "
                    "does not support Resource.acquire")
            readied = False
            while rs.cursor < len(rs.dets):
                det = rs.dets[rs.cursor]
                rs.cursor += 1
                rs.now = max(rs.now, det.t)
                delivered += 1
                if self._route(new, det):
                    readied = True
                    break
            if not readied:
                # History exhausted while blocked: the old incarnation
                # was waiting here too, on traffic still in flight (or
                # not yet sent).  Rejoin live execution blocked.
                new.replay = None
                outcome = "blocked"
                break
        if (new.replay is None and new.state is not TaskState.DONE
                and rs.cursor < len(rs.dets)):
            # Reintegrated mid-advance with history left over: those
            # messages sat unconsumed in the crashed incarnation's
            # mailbox, so refill the new mailbox with them.
            while rs.cursor < len(rs.dets):
                det = rs.dets[rs.cursor]
                rs.cursor += 1
                delivered += 1
                self._route(new, det)
        new.last_active = engine.now
        self.stats["replayed"] += delivered
        return RecoveryEpisode(
            rank=rank, rule_index=rule_index, crash_time=crash_time,
            reason=rule.reason or f"injected crash of rank {rank}",
            determinants_replayed=delivered, sends_suppressed=rs.suppressed,
            outcome=outcome, wall_seconds=time.perf_counter() - started)

    def _deliver_due(self, task: Task, rs: _ReplayState) -> int:
        count = 0
        while rs.cursor < len(rs.dets) and rs.dets[rs.cursor].t <= rs.now:
            det = rs.dets[rs.cursor]
            rs.cursor += 1
            count += 1
            self._route(task, det)
        return count

    def _route(self, task: Task, det: Determinant) -> bool:
        """Heap-free mirror of ``Communicator._deliver`` for one
        replayed message.  Returns True when it readied the task."""
        from repro.vmpi.comm import Mailbox, _matches

        entry = self.send_log.get((det.ctx, det.src, det.seq))
        if entry is None:
            raise MsglogError(
                f"send-log entry ctx={det.ctx} src={det.src} seq={det.seq} "
                f"for rank {task.rank} was garbage-collected; cannot replay")
        msg = entry.msg
        msg.arrive_time = det.t
        mbox = task.locals.get("mailbox")
        if mbox is None:
            mbox = task.locals["mailbox"] = Mailbox()
        mbox.arrivals += 1
        for observer in list(mbox.observers):
            observer(msg)
        for i, (key, waiter) in enumerate(mbox.blocked_recv):
            if _matches(msg, key):
                del mbox.blocked_recv[i]
                waiter.wake_payload = msg
                waiter.state = TaskState.READY
                return True
        for req in mbox.posted:
            if not req._complete and req._key and _matches(msg, req._key):
                req._fulfill(msg)
                mbox.posted.remove(req)
                return self._drain_blocked_requests(task, mbox)
        mbox.pending.append(msg)
        return self._drain_blocked_requests(task, mbox)

    @staticmethod
    def _drain_blocked_requests(task: Task, mbox: Any) -> bool:
        if not mbox.blocked_requests:
            return task.state is TaskState.READY
        waiters, mbox.blocked_requests = mbox.blocked_requests, []
        for req in waiters:
            req._task.wake_payload = None
            req._task.state = TaskState.READY
        return True

    # -- garbage collection ------------------------------------------------

    def gc(self) -> int:
        """Reclaim send-log entries no possible recovery can need.

        Called at the journal's checkpoint barriers.  An entry is
        reclaimable when its destination rank is finished, or when no
        pending recovery-eligible crash rule targets the destination.
        (Replay starts from time zero, so entries to still-protected
        ranks are retained for the whole run.)  Returns the number of
        entries reclaimed.
        """
        engine = self.engine
        injector = engine.fault_injector
        if injector is None:
            # No plan to consult: conservatively protect every live rank.
            protected = {r for r, t in engine.tasks.items()
                         if t.state is not TaskState.DONE}
        else:
            now = engine.now
            protected = {r.rank for r in injector.plan.crash_rules
                         if r.recover != "never" and r.at >= now}
        with self.perf.stage("msglog-gc") as timer:
            reclaimed, reclaimed_bytes = self._sweep(protected)
        timer.count(records=reclaimed, bytes=reclaimed_bytes)
        self.stats["gc_reclaimed"] += reclaimed
        self.stats["gc_bytes"] += reclaimed_bytes
        return reclaimed

    def _sweep(self, protected: set[int]) -> tuple[int, int]:
        engine = self.engine
        reclaimed = 0
        reclaimed_bytes = 0
        for key, entry in list(self.send_log.items()):
            task = engine.tasks.get(entry.dest)
            done = task is None or task.state is TaskState.DONE
            if done or entry.dest not in protected:
                del self.send_log[key]
                reclaimed += 1
                reclaimed_bytes += entry.nbytes
        return reclaimed, reclaimed_bytes

    # -- inspection ---------------------------------------------------------

    def retained_bytes(self) -> int:
        return sum(e.nbytes for e in self.send_log.values())
