"""Point-to-point messaging over the virtual engine.

The API follows the mpi4py lowercase convention (``send``/``recv`` of
Python objects, ``isend``/``irecv`` returning :class:`Request`), which
is what the hpc-parallel guides teach and what the Pilot layer builds
on.  Timing follows an alpha–beta model:

* the sender is *occupied* for ``send_overhead + nbytes / bandwidth``
  (eager protocol: copy out, then continue);
* the message *arrives* ``latency`` seconds after the copy completes;
* the receiver pays ``recv_overhead`` when it picks the message up.

Matching is FIFO per (source, tag) pair with ``ANY_SOURCE`` /
``ANY_TAG`` wildcards, i.e. MPI's non-overtaking rule holds.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.vmpi.datatypes import sizeof
from repro.vmpi.engine import Engine, Task
from repro.vmpi.errors import MessageError
from repro.vmpi.status import Status

ANY_SOURCE = -1
ANY_TAG = -1

# Tags at or above this value are reserved for internal protocols
# (collectives, MPE log collection, Pilot service traffic).
INTERNAL_TAG_BASE = 1 << 28

#: What a receive matches: ``(source, tag, context)``, with the
#: ``ANY_SOURCE`` / ``ANY_TAG`` wildcards (:func:`_matches`).
MatchKey = tuple[int, int, int]


@dataclass(frozen=True)
class NetworkModel:
    """Virtual interconnect parameters (all seconds / bytes-per-second).

    Defaults approximate a commodity cluster: a few microseconds of
    latency and ~1 GB/s links, with sub-microsecond per-call software
    overhead.  The benchmarks calibrate their own instances.
    """

    latency: float = 5e-6
    bandwidth: float = 1.0e9
    send_overhead: float = 2e-7
    recv_overhead: float = 2e-7

    def occupancy(self, nbytes: int) -> float:
        return self.send_overhead + nbytes / self.bandwidth

    def flight_time(self) -> float:
        return self.latency


@dataclass
class Message:
    src: int  # sender's rank within its communicator
    dest: int  # receiver's rank within the same communicator
    tag: int
    payload: Any
    nbytes: int
    send_start: float  # true time the send call began
    arrive_time: float  # true time it landed in the destination mailbox
    seq: int
    context: int = 0  # communicator context id (0 = COMM_WORLD)

    def status(self) -> Status:
        return Status(self.src, self.tag, self.nbytes)


class Request:
    """Handle for a non-blocking operation (mpi4py ``Request`` shape)."""

    def __init__(self, comm: "Communicator", task: Task, kind: str,
                 key: MatchKey | None = None) -> None:
        self._comm = comm
        self._task = task
        self.kind = kind
        self._key = key
        self._message: Message | None = None
        self._complete = kind == "send"  # eager sends complete immediately
        self._overhead_charged = False

    def _fulfill(self, message: Message) -> None:
        self._message = message
        self._complete = True

    def test(self) -> tuple[bool, Any]:
        """Non-blocking completion check; returns ``(done, payload)``."""
        if not self._complete and self.kind == "recv":
            self._comm._try_match_posted(self._task)
        if self._complete:
            return True, self._message.payload if self._message else None
        return False, None

    def wait(self) -> Any:
        """Block until complete; returns the received payload (or None)."""
        engine = self._comm.engine
        while True:
            done, payload = self.test()
            if done:
                self._charge_overhead()
                return payload
            mbox = self._comm._mailbox(self._task)
            mbox.blocked_requests.append(self)
            engine.block(f"irecv wait (rank {self._task.rank})")

    def _charge_overhead(self) -> None:
        """Receiver pays pickup cost exactly once per completed receive."""
        if self._message is not None and not self._overhead_charged:
            self._overhead_charged = True
            self._comm.engine.advance(self._comm.network.recv_overhead,
                                      "recv overhead")


@dataclass
class Mailbox:
    """Per-rank incoming message state, attached to ``task.locals``."""

    pending: deque[Message] = field(default_factory=deque)
    posted: list[Request] = field(default_factory=list)
    blocked_requests: list[Request] = field(default_factory=list)
    blocked_recv: list[tuple[MatchKey, Task]] = field(default_factory=list)
    arrivals: int = 0

    # Hooks fired when a message is delivered; Pilot's PI_Read uses this
    # to place the "message arrived" milestone bubble (paper III.B).
    observers: list[Callable[[Message], None]] = field(default_factory=list)


def _matches(msg: Message, key: MatchKey) -> bool:
    source, tag, context = key
    return (msg.context == context
            and source in (ANY_SOURCE, msg.src)
            and tag in (ANY_TAG, msg.tag))


class Communicator:
    """A communicator: ``COMM_WORLD`` or a :meth:`split` subgroup.

    One shared object serves every member rank; rank identity comes
    from the engine's current task, exactly as a per-process global
    would behave under real MPI.  Sub-communicators translate their
    group-local ranks to world ranks for routing, and carry a context
    id that isolates their traffic (wildcard receives in one
    communicator never match another's messages).
    """

    def __init__(self, engine: Engine, size: int,
                 network: NetworkModel | None = None, *,
                 group: list[int] | None = None, context: int = 0) -> None:
        if size < 1:
            raise MessageError(f"communicator size must be >= 1, got {size}")
        self.engine = engine
        self._size = size
        self.network = network or NetworkModel()
        self._msg_seq = itertools.count()
        self.context = context
        # group[i] = world rank of this communicator's rank i.
        self.group = list(group) if group is not None else list(range(size))
        if len(self.group) != size:
            raise MessageError(
                f"group of {len(self.group)} ranks for size-{size} communicator")
        self._group_rank_of_world = {w: i for i, w in enumerate(self.group)}
        self.stats = {"messages": 0, "bytes": 0}

    # -- identity -------------------------------------------------------

    @property
    def rank(self) -> int:
        world = self.engine._require_task().rank
        try:
            return self._group_rank_of_world[world]
        except KeyError:
            raise MessageError(
                f"world rank {world} is not a member of this communicator"
            ) from None

    @property
    def size(self) -> int:
        return self._size

    def Get_rank(self) -> int:  # noqa: N802 - MPI naming
        return self.rank

    def Get_size(self) -> int:  # noqa: N802 - MPI naming
        return self._size

    def wtime(self) -> float:
        """Local (skewed, quantised) clock — ``MPI_Wtime``."""
        return self.engine.wtime()

    def split(self, color: int | None, key: int | None = None
              ) -> "Communicator | None":
        """``MPI_Comm_split``: partition this communicator by ``color``.

        Collective over all members.  Ranks passing the same color form
        a new communicator, ordered by ``(key, old rank)``; passing
        ``None`` (MPI_UNDEFINED) yields ``None``.  Each subgroup gets a
        fresh context id so its traffic — including wildcard receives —
        never crosses with the parent's or siblings'.
        """
        from repro.vmpi import collectives

        me = self.rank
        entries = collectives.gather(
            self, (color, me if key is None else key, me), root=0)
        if me == 0:
            groups: dict[int, list[tuple[int, int]]] = {}
            for c, k, r in entries:
                if c is not None:
                    groups.setdefault(c, []).append((k, r))
            plan = {}
            for c in sorted(groups):
                members = [r for _, r in sorted(groups[c])]
                ctx = next(self.engine._comm_contexts)
                plan[c] = (ctx, [self.group[r] for r in members])
        else:
            plan = None
        plan = collectives.bcast(self, plan, root=0)
        if color is None:
            return None
        ctx, world_group = plan[color]
        return Communicator(self.engine, len(world_group), self.network,
                            group=world_group, context=ctx)

    def abort(self, errorcode: int = 1, reason: str = "") -> None:
        """``MPI_Abort``: kills every rank; does not return."""
        self.engine.abort(errorcode, self.rank, reason)

    # -- internals ------------------------------------------------------

    def _mailbox(self, task: Task) -> Mailbox:
        mbox = task.locals.get("mailbox")
        if mbox is None:
            mbox = task.locals["mailbox"] = Mailbox()
        return mbox

    def _task_for(self, rank: int) -> Task:
        try:
            return self.engine.tasks[self.group[rank]]
        except (KeyError, IndexError):
            raise MessageError(f"no such rank: {rank}") from None

    def _check_peer(self, rank: int, *, wildcard_ok: bool = False) -> None:
        if wildcard_ok and rank == ANY_SOURCE:
            return
        if not 0 <= rank < self._size:
            raise MessageError(f"rank {rank} outside communicator of size {self._size}")

    # -- sending ----------------------------------------------------------

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Blocking eager send: returns once the payload is copied out."""
        self.isend(payload, dest, tag)

    def isend(self, payload: Any, dest: int, tag: int = 0) -> Request:
        self._check_peer(dest)
        if tag < 0:
            raise MessageError(f"send tag must be >= 0, got {tag}")
        task = self.engine._require_task()
        nbytes = sizeof(payload)
        start = self.engine.now
        # Sender occupancy: software overhead + copy at link bandwidth.
        self.engine.advance(self.network.occupancy(nbytes), "send copy-out")
        msg = Message(
            src=self.rank, dest=dest, tag=tag, payload=payload, nbytes=nbytes,
            send_start=start, arrive_time=0.0, seq=next(self._msg_seq),
            context=self.context,
        )
        self.stats["messages"] += 1
        self.stats["bytes"] += nbytes
        msglog = self.engine.msglog
        if msglog is not None and msglog.on_isend(self, msg, task):
            # Replay duplicate-suppression: the original incarnation
            # already sent this message (the peer holds it, or already
            # consumed it), so nothing enters the network — and the
            # injector draws no decisions, keeping its RNG stream
            # aligned with the fault-free schedule.
            return Request(self, task, "send")
        injector = self.engine.fault_injector
        if injector is not None:
            # Fault injection (repro.vmpi.faults) owns delivery
            # scheduling: it may delay, drop, duplicate, corrupt, or
            # reorder the message before it reaches _deliver.
            injector.schedule_delivery(self, msg, self.network.flight_time())
        else:
            self.engine.call_later(self.network.flight_time(),
                                   lambda: self._deliver(msg))
        return Request(self, task, "send")

    def _deliver(self, msg: Message) -> None:
        msg.arrive_time = self.engine.now
        dest_task = self._task_for(msg.dest)
        if self.engine.journal is not None:
            # Journal (or, on replay, verify) the delivery before any
            # receiver can observe it, in *world* ranks.
            self.engine.journal.on_deliver(msg, self.engine.now,
                                           self.group[msg.src],
                                           dest_task.rank)
        if self.engine.msglog is not None:
            # Determinant logging: the receive order every delivery
            # establishes is what a replayed incarnation must observe.
            self.engine.msglog.on_deliver(self, msg, dest_task.rank)
        mbox = self._mailbox(dest_task)
        mbox.arrivals += 1
        for observer in list(mbox.observers):
            observer(msg)
        # A blocked blocking-recv takes priority, then posted irecvs,
        # then the pending queue.
        for i, (key, task) in enumerate(mbox.blocked_recv):
            if _matches(msg, key):
                del mbox.blocked_recv[i]
                self.engine.wake(task, msg)
                return
        for req in mbox.posted:
            if not req._complete and req._key and _matches(msg, req._key):
                req._fulfill(msg)
                mbox.posted.remove(req)
                self._wake_blocked_requests(mbox)
                return
        mbox.pending.append(msg)
        self._wake_blocked_requests(mbox)

    def _wake_blocked_requests(self, mbox: Mailbox) -> None:
        waiters, mbox.blocked_requests = mbox.blocked_requests, []
        for req in waiters:
            self.engine.wake(req._task, None)

    # -- receiving --------------------------------------------------------

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             status: list | None = None) -> Any:
        """Blocking receive; returns the payload.

        ``status``, if given, is a one-element list the :class:`Status`
        is appended to (Python has no out-parameters).
        """
        msg = self._recv_message(source, tag)
        if status is not None:
            status.append(msg.status())
        return msg.payload

    def _recv_message(self, source: int, tag: int) -> Message:
        self._check_peer(source, wildcard_ok=True)
        task = self.engine._require_task()
        mbox = self._mailbox(task)
        key = (source, tag, self.context)
        msg = self._pop_pending(mbox, key)
        if msg is None:
            mbox.blocked_recv.append((key, task))
            msg = self.engine.block(
                f"recv(source={source}, tag={tag}) on rank {task.rank}")
        self.engine.advance(self.network.recv_overhead, "recv overhead")
        return msg

    def _pop_pending(self, mbox: Mailbox, key: MatchKey) -> Message | None:
        for i, msg in enumerate(mbox.pending):
            if _matches(msg, key):
                del mbox.pending[i]
                return msg
        return None

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        self._check_peer(source, wildcard_ok=True)
        task = self.engine._require_task()
        req = Request(self, task, "recv", (source, tag, self.context))
        mbox = self._mailbox(task)
        msg = self._pop_pending(mbox, req._key)
        if msg is not None:
            req._fulfill(msg)
        else:
            mbox.posted.append(req)
        return req

    def _try_match_posted(self, task: Task) -> None:
        """Re-scan pending messages against posted irecvs (Request.test)."""
        mbox = self._mailbox(task)
        for req in list(mbox.posted):
            if req._complete:
                mbox.posted.remove(req)
                continue
            msg = self._pop_pending(mbox, req._key)
            if msg is not None:
                req._fulfill(msg)
                mbox.posted.remove(req)

    def sendrecv(self, payload: Any, dest: int, sendtag: int = 0,
                 source: int = ANY_SOURCE, recvtag: int = ANY_TAG) -> Any:
        """Combined send+receive (``MPI_Sendrecv``): the send is posted
        eagerly before blocking on the receive, so symmetric exchanges
        cannot deadlock."""
        self.isend(payload, dest, sendtag)
        return self.recv(source, recvtag)

    @staticmethod
    def waitall(requests: list["Request"]) -> list[Any]:
        """Complete every request; returns their payloads in order."""
        return [req.wait() for req in requests]

    @staticmethod
    def waitany(requests: list["Request"]) -> tuple[int, Any]:
        """Block until any request completes; returns (index, payload).

        Polls in request order after each delivery, so completion is
        deterministic under the engine's scheduling.
        """
        if not requests:
            raise MessageError("waitany needs at least one request")
        comm = requests[0]._comm
        task = requests[0]._task
        while True:
            for i, req in enumerate(requests):
                done, payload = req.test()
                if done:
                    req._charge_overhead()
                    return i, payload
            mbox = comm._mailbox(task)
            mbox.blocked_requests.append(Request(comm, task, "probe"))
            comm.engine.block(f"waitany over {len(requests)} requests")

    def wait_any(self, pairs: list[tuple[int, int]]) -> int:
        """Block until a message matching any (source, tag) pair is
        pending; return the index of the first ready pair.

        This is the primitive behind Pilot's PI_Select: it observes
        readiness without consuming anything.
        """
        for source, tag in pairs:
            self._check_peer(source, wildcard_ok=True)
        task = self.engine._require_task()
        mbox = self._mailbox(task)
        keys = [(s, t, self.context) for s, t in pairs]
        while True:
            for i, key in enumerate(keys):
                if any(_matches(msg, key) for msg in mbox.pending):
                    return i
            mbox.blocked_requests.append(Request(self, task, "probe"))
            self.engine.block(f"wait_any over {len(pairs)} channels")

    def poll_any(self, pairs: list[tuple[int, int]]) -> int:
        """Non-blocking :meth:`wait_any`: ready index, or -1."""
        task = self.engine._require_task()
        mbox = self._mailbox(task)
        for i, (s, t) in enumerate(pairs):
            key = (s, t, self.context)
            if any(_matches(msg, key) for msg in mbox.pending):
                return i
        return -1

    # -- probing ----------------------------------------------------------

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status | None:
        """Non-blocking probe: Status of the first matching pending
        message, or None."""
        self._check_peer(source, wildcard_ok=True)
        task = self.engine._require_task()
        mbox = self._mailbox(task)
        key = (source, tag, self.context)
        for msg in mbox.pending:
            if _matches(msg, key):
                return msg.status()
        return None

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status:
        """Blocking probe: waits for a matching message without consuming it."""
        self._check_peer(source, wildcard_ok=True)
        task = self.engine._require_task()
        mbox = self._mailbox(task)
        key = (source, tag, self.context)
        while True:
            for msg in mbox.pending:
                if _matches(msg, key):
                    return msg.status()
            # Park until *any* delivery, then re-scan.
            mbox.blocked_requests.append(Request(self, task, "probe"))
            self.engine.block(f"probe(source={source}, tag={tag})")
