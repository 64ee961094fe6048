"""Deterministic discrete-event engine with two task backends.

This is the foundation the whole reproduction stands on.  The paper's
system runs on a real cluster under OpenMPI; this repo substitutes a
*virtual-time* message-passing runtime (see DESIGN.md Section 2).  The
requirements that drove this design:

* **API fidelity.**  Pilot/MPI code calls blocking functions
  (``PI_Read`` blocks until a message arrives) with no ``yield`` or
  ``await`` in user code.

* **Determinism.**  The engine admits exactly one task at a time and
  hands control back and forth explicitly, so a given program produces
  the same event sequence, the same log file, and the same timeline on
  every run.  That is what makes figure-level regression tests possible.

* **Virtual time.**  Time only moves when a task declares compute
  (:meth:`Engine.advance`) or a modelled latency elapses.  A "30 second"
  run from the paper's evaluation executes in milliseconds of wall time,
  and speedup shapes survive running on a single core.

The scheduler runs in the caller's thread (:meth:`Engine.run`).  Two
interchangeable task backends implement the suspend/resume protocol
(``Engine(scheduler=...)``; see docs/ARCHITECTURE.md):

* ``"threads"`` — one OS thread per rank (:class:`ThreadTask`); blocking
  calls park the thread via the handoff in :meth:`ThreadTask._switch_to`
  / :meth:`Engine._yield_current`, which wakes only the one thread that
  runs next.  The historical backend; caps worlds at a few hundred
  ranks.
* ``"coroutine"`` — every rank is a generator (:class:`CoroTask`)
  resumed by a single-threaded trampoline; rank code is rewritten at
  runtime by :mod:`repro.vmpi.weave` so each blocking call becomes a
  generator suspension.  One process simulates thousands of ranks.

Both backends drive the identical event heap with identical sequence
numbers, so runs are byte-identical between them.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import random
import threading
from collections import deque
from typing import Any, Callable

from repro.perf import NO_PERF, PerfRecorder
from repro.vmpi.clock import ClockSkew, LocalClock
from repro.vmpi.errors import (
    AbortedError,
    EngineError,
    SimulationDeadlock,
    TaskFailed,
)

# How long (wall seconds) the scheduler is willing to wait for a task
# thread to respond during a handoff before concluding the harness is
# wedged.  Generous: this only ever fires on an internal bug.
_HANDOFF_TIMEOUT = 60.0

#: Valid values for ``Engine(scheduler=...)``.
SCHEDULERS = ("threads", "coroutine")


class TaskKilled(BaseException):
    """Unwinds a single task thread without touching the world.

    Raised inside a task's own thread when message-logging recovery
    (:mod:`repro.vmpi.msglog`) retires the crashed incarnation of a
    rank.  Deliberately *not* an ``Exception`` so user-level ``except
    Exception`` blocks cannot swallow the teardown, and deliberately
    not :class:`AbortedError`: killing one rank must not abort the run.
    """


class TaskState(enum.Enum):
    NEW = "new"
    READY = "ready"  # wake event scheduled, not yet running
    RUNNING = "running"
    BLOCKED = "blocked"  # waiting for wake() with no scheduled event
    DONE = "done"


class Task:
    """One simulated rank: scheduling state plus a backend execution body.

    User code never constructs these; :meth:`Engine.spawn` does (via
    :meth:`Engine._make_task`, which picks the backend subclass).  The
    base class carries everything the rest of the system reads — state,
    clocks, RNG, ``locals`` — so higher layers (watchdog, journal,
    msglog, comm) are backend-agnostic.
    """

    def __init__(self, engine: "Engine", rank: int, fn: Callable[[], Any], name: str) -> None:
        self.engine = engine
        self.rank = rank
        self.name = name
        self.fn = fn
        self.state = TaskState.NEW
        self.blocked_reason = ""
        # Virtual time this task last got the CPU; the progress
        # watchdog (repro.vmpi.watchdog) reads it to spot hung ranks.
        self.last_active = 0.0
        self.wake_payload: Any = None
        self.result: Any = None
        self.exc: BaseException | None = None
        self.aborted = False
        # Set by msglog recovery: ``killed`` retires this incarnation at
        # its next yield; ``replay`` (a msglog._ReplayState) makes
        # advance()/wtime() run against replayed virtual time instead of
        # the live heap while the respawned incarnation catches up.
        self.killed = False
        self.replay: Any = None
        # Local wall clock (possibly skewed/drifting) + per-rank RNG.
        self.clock = LocalClock(engine.skew_for(rank), engine.clock_resolution)
        self.rng = random.Random((engine.seed * 1_000_003 + rank) & 0xFFFFFFFF)
        # Scratch slot for layers above (comm attaches the mailbox, the
        # Pilot runtime attaches per-rank program state).
        self.locals: dict[str, Any] = {}

    def _switch_to(self) -> None:
        """Scheduler-side: run this task until it yields again."""
        raise NotImplementedError

    def _suspend(self):
        """Task-side generator suspension point (coroutine backend only)."""
        raise EngineError(
            f"task {self.name}: generator suspension is only valid on the "
            "coroutine scheduler")


class ThreadTask(Task):
    """Thread-per-rank backend: a real OS thread parks on blocking calls."""

    def __init__(self, engine: "Engine", rank: int, fn: Callable[[], Any], name: str) -> None:
        super().__init__(engine, rank, fn, name)
        self.thread = threading.Thread(
            target=self._body, name=f"vmpi-{name}", daemon=True
        )
        # This task's own wake condition, on the engine's one lock.
        self._wake = threading.Condition(engine._lock)

    # ------------------------------------------------------------------
    # Thread body and handoff protocol.  All state transitions happen
    # under engine._lock.  A handoff wakes one thread: the scheduler
    # notifies only the task it resumes (its ``_wake``), and a task that
    # yields or ends notifies only the scheduler (``engine._sched``).
    # ------------------------------------------------------------------

    def _body(self) -> None:
        with self.engine._lock:
            while self.state is not TaskState.RUNNING:
                self._wake.wait(_HANDOFF_TIMEOUT)
        try:
            self.engine._check_abort()
            self.result = self.fn()
        except TaskKilled:
            # Retired by recovery: unwind quietly.  The respawned
            # incarnation owns the rank from here; in particular we must
            # not call _abort_locked_free.
            self.killed = True
        except AbortedError:
            self.aborted = True
        except BaseException as exc:  # noqa: BLE001 - deliberate catch-all
            self.exc = exc
            # A crashed rank takes the world down, as mpirun would.
            self.engine._abort_locked_free(errorcode=1, origin_rank=self.rank,
                                           reason=f"unhandled exception: {exc!r}")
        finally:
            with self.engine._lock:
                self.state = TaskState.DONE
                self.engine._live_tasks -= 1
                self.engine._sched.notify()

    def _switch_to(self) -> None:
        """Scheduler-side: run this task until it yields again."""
        eng = self.engine
        with eng._lock:
            if self.state is TaskState.DONE:
                return
            eng._current = self
            self.state = TaskState.RUNNING
            if self.thread.is_alive():
                self._wake.notify()
            else:
                self.thread.start()
            while self.state is TaskState.RUNNING:
                # A rank whose wakes keep coming next runs on without a
                # handoff (Engine._wake_is_next), so silence alone is no
                # fault: only a wait in which no event happened is.
                events = eng.stats["events"]
                if (not eng._sched.wait(_HANDOFF_TIMEOUT)
                        and eng.stats["events"] == events):
                    raise EngineError(
                        f"handoff to task {self.name} timed out; "
                        "a task thread blocked outside the engine"
                    )
            eng._current = None


class CoroTask(Task):
    """Coroutine backend: the rank body runs as a generator.

    The rank function is driven through :mod:`repro.vmpi.weave`, which
    rewrites every call on the blocking path into ``yield from``; the
    engine's blocking primitives suspend by yielding from
    :meth:`_suspend`, the single bare ``yield`` every suspension funnels
    through.  ``_switch_to`` advances the generator one step; its
    exception handling mirrors :meth:`ThreadTask._body` exactly —
    including running the world abort *before* retiring a crashed task —
    so both backends schedule the same wake events in the same heap
    order.
    """

    def __init__(self, engine: "Engine", rank: int, fn: Callable[[], Any], name: str) -> None:
        super().__init__(engine, rank, fn, name)
        self._gen: Any = None

    def _main(self):
        self.engine._check_abort()
        from repro.vmpi import weave
        return (yield from weave.w_call(self.fn))

    def _suspend(self):
        yield
        if self.killed:
            raise TaskKilled(self.rank)
        self.engine._check_abort()

    def _switch_to(self) -> None:
        """Scheduler-side: advance the generator until its next yield."""
        eng = self.engine
        if self.state is TaskState.DONE:
            return
        eng._current = self
        self.state = TaskState.RUNNING
        if self._gen is None:
            self._gen = self._main()
        try:
            try:
                self._gen.send(None)
            except StopIteration as stop:
                self.result = stop.value
                self._retire()
            except TaskKilled:
                # Retired by recovery: the respawned incarnation owns the
                # rank from here; must not call _abort_locked_free.
                self.killed = True
                self._retire()
            except AbortedError:
                self.aborted = True
                self._retire()
            except BaseException as exc:  # noqa: BLE001 - deliberate catch-all
                self.exc = exc
                # A crashed rank takes the world down, as mpirun would —
                # before the task retires, matching the thread backend's
                # except-then-finally ordering so the abort wake loop
                # sees identical task states.
                eng._abort_locked_free(errorcode=1, origin_rank=self.rank,
                                       reason=f"unhandled exception: {exc!r}")
                self._retire()
            # A plain yield means the task suspended at a blocking point;
            # its state was already set by the pre-suspend helper.
        finally:
            eng._current = None

    def _retire(self) -> None:
        self.state = TaskState.DONE
        self.engine._live_tasks -= 1


class Resource:
    """A FIFO shared resource with integer capacity (SimPy-style).

    Used to model contended hardware such as the single disk behind the
    collision-CSV assignment: parallel readers only *partially* overlap
    (paper Fig. 4 discussion), which falls out of queueing on a
    capacity-1 resource.
    """

    def __init__(self, engine: "Engine", capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._available = capacity
        self._queue: deque[Task] = deque()

    def acquire(self) -> None:
        task = self.engine._require_task()
        if self._available > 0:
            self._available -= 1
            return
        self._queue.append(task)
        self.engine.block(f"acquire {self.name}")

    def acquire_gen(self):
        """Generator twin of :meth:`acquire` (coroutine scheduler)."""
        task = self.engine._require_task()
        if self._available > 0:
            self._available -= 1
            return
        self._queue.append(task)
        yield from self.engine.block_gen(f"acquire {self.name}")

    def release(self) -> None:
        if self._queue:
            # Hand the slot straight to the next waiter: _available stays 0.
            nxt = self._queue.popleft()
            self.engine.wake(nxt)
        else:
            if self._available >= self.capacity:
                raise EngineError(f"release of {self.name} without acquire")
            self._available += 1

    def __enter__(self) -> "Resource":
        self.acquire()
        return self

    def enter_gen(self):
        """Generator twin of :meth:`__enter__` (coroutine scheduler)."""
        yield from self.acquire_gen()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    @property
    def in_use(self) -> int:
        return self.capacity - self._available

    @property
    def queue_length(self) -> int:
        return len(self._queue)


class RunResult:
    """Outcome of :meth:`Engine.run`."""

    def __init__(self, finished_at: float, aborted: AbortedError | None,
                 results: dict[int, Any]) -> None:
        self.finished_at = finished_at
        self.aborted = aborted
        self.results = results

    @property
    def ok(self) -> bool:
        return self.aborted is None


class Engine:
    """Discrete-event scheduler owning virtual time and all tasks.

    Parameters
    ----------
    seed:
        Seeds every per-rank RNG; two engines with equal seeds and equal
        programs produce identical histories.
    clock_resolution:
        Quantum of ``MPI_Wtime`` reads (see :mod:`repro.vmpi.clock`).
    skews:
        Optional per-rank :class:`ClockSkew`; ranks not listed get a
        perfect clock.  The MPE clock-sync benchmarks populate this.
    scheduler:
        Task backend: ``"threads"`` (one OS thread per rank, the compat
        default) or ``"coroutine"`` (single-threaded generator
        trampoline; scales to thousands of ranks).  Both backends
        produce byte-identical histories for the same program and seed.
    """

    def __init__(self, *, seed: int = 0, clock_resolution: float = 1e-8,
                 skews: dict[int, ClockSkew] | None = None,
                 scheduler: str = "threads") -> None:
        if scheduler not in SCHEDULERS:
            raise EngineError(
                f"unknown scheduler {scheduler!r}; expected one of {SCHEDULERS}")
        self.scheduler = scheduler
        self.seed = seed
        self.clock_resolution = clock_resolution
        self._skews = dict(skews or {})
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        # The threads backend's handoff lock; the scheduler waits on
        # ``_sched``, each ThreadTask on its own condition on this lock.
        self._lock = threading.Lock()
        self._sched = threading.Condition(self._lock)
        self._current: Task | None = None
        self._tasks: dict[int, Task] = {}
        self._live_tasks = 0
        self._running = False
        self._aborted: AbortedError | None = None
        self.on_stall: list[Callable[["Engine"], bool]] = []
        # Installed by repro.vmpi.faults.FaultPlan.install(); when set,
        # Communicator routes delivery scheduling through it.
        self.fault_injector: Any = None
        # Installed by repro.vmpi.journal.Journal.attach(); when set,
        # deliveries, injections and aborts are journaled (record mode)
        # or verified against a recorded run (replay mode).
        self.journal: Any = None
        # Installed by repro.vmpi.msglog.MessageLogger(); when set,
        # sends are retained by the sender, deliveries produce
        # determinants, and crash faults with recovery enabled are
        # routed to localized replay instead of MPI_Abort.
        self.msglog: Any = None
        # Fired exactly once when the world aborts (any cause: MPI_Abort,
        # rank crash, injected crash, deadlock teardown).  Hooks run
        # before task threads unwind, so crash-tolerant layers (MPE
        # salvage) can flush rank-local state while it is still intact.
        # Hook exceptions are collected, never propagated: a failing
        # flush must not mask the abort itself.
        self.on_abort_hooks: list[Callable[[AbortedError], None]] = []
        self.abort_hook_errors: list[BaseException] = []
        # Context ids for sub-communicators (0 is COMM_WORLD's).
        self._comm_contexts = itertools.count(1)
        # Simple counters; cheap, and the overhead benchmarks report them.
        self.stats = {"events": 0, "switches": 0}

    # -- task management ------------------------------------------------

    def spawn(self, fn: Callable[[], Any], rank: int, name: str | None = None) -> Task:
        """Register a task for ``rank``; it first runs at time 0."""
        if self._running:
            raise EngineError("spawn() after run() started is not supported")
        if rank in self._tasks:
            raise EngineError(f"rank {rank} already spawned")
        task = self._make_task(rank, fn, name or f"rank{rank}")
        self._tasks[rank] = task
        self._live_tasks += 1
        return task

    def _make_task(self, rank: int, fn: Callable[[], Any], name: str) -> Task:
        """Build a task on this engine's backend (also used by msglog
        recovery to respawn a crashed rank's fresh incarnation)."""
        cls = ThreadTask if self.scheduler == "threads" else CoroTask
        return cls(self, rank, fn, name)

    def skew_for(self, rank: int) -> ClockSkew:
        return self._skews.get(rank, ClockSkew())

    @property
    def tasks(self) -> dict[int, Task]:
        return self._tasks

    @property
    def now(self) -> float:
        """True (un-skewed) simulation time in seconds."""
        return self._now

    @property
    def current_task(self) -> Task | None:
        return self._current

    def _require_task(self) -> Task:
        task = self._current
        if task is None:
            raise EngineError("this operation is only valid from inside a task")
        return task

    # -- event scheduling (any thread/callback may call these) ----------

    def call_at(self, t: float, fn: Callable[[], None]) -> None:
        if t < self._now - 1e-15:
            raise EngineError(f"cannot schedule in the past ({t} < {self._now})")
        heapq.heappush(self._heap, (max(t, self._now), next(self._seq), fn))

    def call_later(self, dt: float, fn: Callable[[], None]) -> None:
        self.call_at(self._now + max(dt, 0.0), fn)

    # -- task-side blocking primitives -----------------------------------

    def _wake_is_next(self, t: float) -> bool:
        """Whether a wake event at ``t`` would be the next event popped.

        Ties go to the older event, as the heap's ``(time, seq)`` order
        does.  After an abort every wake goes through the heap, so the
        wind-down (whose drain pops without counting) is unchanged.
        """
        heap = self._heap
        return self._aborted is None and (not heap or t < heap[0][0])

    def _advance_begin(self, dt: float, reason: str,
                       inline: bool = True) -> Task | None:
        """Everything :meth:`advance` does before suspending (both backends).

        Returns the task to suspend, or None when the task keeps
        running: with ``inline`` set and its wake the next event
        (:meth:`_wake_is_next`), the engine does in place what popping
        that event and resuming the task would have done — the clock,
        the ``events``/``switches`` counters and the task's state end up
        the same — and pushes nothing.  The msglog replay and rejoin
        branches always suspend: the recovery driver must see the yield.
        """
        if dt < 0:
            raise EngineError(f"advance() needs dt >= 0, got {dt}")
        task = self._require_task()
        rs = task.replay
        if rs is not None:
            target = rs.now + dt
            if target > self._now:
                # The replayed incarnation has caught up with the crash
                # time mid-advance: rejoin live execution by scheduling
                # the remainder on the real heap, exactly where the old
                # incarnation's resume event would have landed.
                task.replay = None
                self.call_at(target, lambda: self._resume(task, None))
            else:
                # Still behind the crash: burn replayed time only and
                # hand control to the recovery driver, which delivers
                # any determinants due at or before the new replay clock
                # before resuming us (preserving what the original run
                # observed).  No heap event: the driver resumes us.
                rs.now = target
        else:
            # Even zero-length compute is a scheduling point: it lets
            # same-time events interleave deterministically.
            t = self._now + dt
            if inline and self._wake_is_next(t):
                # Nothing else can run before this wake, so no killed
                # or abort check can fire: a killed incarnation is never
                # the running task, and the world is not aborted.
                self._now = t
                self.stats["events"] += 1
                self.stats["switches"] += 1
                task.last_active = t
                task.wake_payload = None
                task.blocked_reason = reason
                task.state = TaskState.RUNNING
                return None
            self.call_at(t, lambda: self._resume(task, None))
        task.state = TaskState.READY
        task.blocked_reason = reason
        return task

    def _block_begin(self, reason: str) -> Task:
        """Everything :meth:`block` does before suspending (both backends)."""
        task = self._require_task()
        task.state = TaskState.BLOCKED
        task.blocked_reason = reason
        return task

    def advance(self, dt: float, reason: str = "compute") -> None:
        """Let virtual time pass for the calling task (declared compute).

        When the task's wake is the next event, it keeps running with
        no handoff (see :meth:`_advance_begin`).  That holds on the
        threads scheduler only: on the coroutine scheduler a synchronous
        ``advance`` is un-woven code blocking, and it always raises.
        """
        task = self._advance_begin(dt, reason,
                                   inline=self.scheduler == "threads")
        if task is not None:
            self._yield_current(task)

    def advance_gen(self, dt: float, reason: str = "compute"):
        """Generator twin of :meth:`advance` (coroutine scheduler)."""
        task = self._advance_begin(dt, reason)
        if task is not None:
            yield from task._suspend()

    def block(self, reason: str) -> Any:
        """Park the calling task until someone calls :meth:`wake` on it.

        Returns the payload passed to ``wake``.
        """
        task = self._block_begin(reason)
        self._yield_current(task)
        return task.wake_payload

    def block_gen(self, reason: str):
        """Generator twin of :meth:`block` (coroutine scheduler)."""
        task = self._block_begin(reason)
        yield from task._suspend()
        return task.wake_payload

    def wake(self, task: Task, payload: Any = None, delay: float = 0.0) -> None:
        """Schedule ``task`` to resume (now or after ``delay``)."""
        if task.state is TaskState.DONE:
            return
        self.call_later(delay, lambda: self._resume(task, payload))
        if task.state is TaskState.BLOCKED:
            task.state = TaskState.READY

    def _resume(self, task: Task, payload: Any) -> None:
        if task.state is TaskState.DONE:
            return
        task.wake_payload = payload
        task.last_active = self._now
        self.stats["switches"] += 1
        task._switch_to()

    def _yield_current(self, task: Task) -> None:
        """Task-side: give control back to the scheduler and wait."""
        if self.scheduler != "threads":
            raise EngineError(
                f"blocking call ({task.blocked_reason!r}) reached the "
                "engine synchronously on the coroutine scheduler; this "
                "happens when un-woven code (a lambda body, a "
                "comprehension that is not the whole value of an "
                "assignment or return, or code repro.vmpi.weave "
                "declines to rewrite: a module outside its allow-list, "
                "or a function or call site it proved never blocks "
                "whose callee was rebound) tries to block — move the "
                "blocking call into a named function or loop")
        with self._lock:
            self._sched.notify()
            while task.state is not TaskState.RUNNING:
                task._wake.wait(_HANDOFF_TIMEOUT)
        if task.killed:
            raise TaskKilled(task.rank)
        self._check_abort()

    # -- abort ------------------------------------------------------------

    def abort(self, errorcode: int, origin_rank: int, reason: str = "") -> None:
        """Tear the world down, MPI_Abort style.

        When called from inside a task this never returns: the calling
        task itself unwinds with :class:`AbortedError`.
        """
        self._abort_locked_free(errorcode, origin_rank, reason)
        if self._current is not None:
            raise AbortedError(errorcode, origin_rank, reason)

    def _abort_locked_free(self, errorcode: int, origin_rank: int, reason: str) -> None:
        if self._aborted is not None:
            return
        self._aborted = AbortedError(errorcode, origin_rank, reason)
        for hook in list(self.on_abort_hooks):
            try:
                hook(self._aborted)
            except BaseException as exc:  # noqa: BLE001 - must not mask abort
                self.abort_hook_errors.append(exc)
        if self.journal is not None:
            try:
                self.journal.on_abort(errorcode, origin_rank, reason,
                                      self._now)
            except BaseException as exc:  # noqa: BLE001 - must not mask abort
                self.abort_hook_errors.append(exc)
        # Wake every parked task so its thread can unwind.
        for t in self._tasks.values():
            if t.state in (TaskState.BLOCKED, TaskState.READY):
                self.call_later(0.0, lambda t=t: self._resume(t, None))

    def _check_abort(self) -> None:
        if self._aborted is not None:
            raise AbortedError(self._aborted.errorcode, self._aborted.origin_rank,
                               self._aborted.reason)

    @property
    def aborted(self) -> AbortedError | None:
        return self._aborted

    # -- the scheduler loop ----------------------------------------------

    def run(self) -> RunResult:
        """Run to completion.

        Raises
        ------
        TaskFailed
            if any rank body raised an unhandled exception.
        SimulationDeadlock
            if the simulation stalls and no ``on_stall`` hook unsticks it.
        """
        if self._running:
            raise EngineError("run() is not reentrant")
        self._running = True
        for task in sorted(self._tasks.values(), key=lambda t: t.rank):
            self.call_at(0.0, lambda t=task: self._resume(t, None))
        try:
            while True:
                while self._heap:
                    t, _, fn = heapq.heappop(self._heap)
                    self._now = max(self._now, t)
                    self.stats["events"] += 1
                    fn()
                if self._live_tasks == 0 or self._aborted is not None:
                    break
                # Stall: give higher layers (Pilot's deadlock detector)
                # one chance per stall to inject events.
                for hook in list(self.on_stall):
                    hook(self)
                if not self._heap:
                    blocked = {
                        r: t.blocked_reason
                        for r, t in self._tasks.items()
                        if t.state is not TaskState.DONE
                    }
                    details = {
                        r: (t.name, t.state.value)
                        for r, t in self._tasks.items()
                        if t.state is not TaskState.DONE
                    }
                    # Unstick and drain the parked threads before raising
                    # so engines do not leak threads across tests.
                    self._abort_locked_free(errorcode=2, origin_rank=-1,
                                            reason="simulation deadlock")
                    self._drain_threads()
                    raise SimulationDeadlock(blocked, details, self._now,
                                             scheduler=self.scheduler)
            self._drain_threads()
        finally:
            self._running = False
        failures = [t for t in sorted(self._tasks.values(), key=lambda t: t.rank) if t.exc]
        if failures:
            first = failures[0]
            raise TaskFailed(first.rank, first.exc) from first.exc
        results = {r: t.result for r, t in self._tasks.items()}
        return RunResult(self._now, self._aborted, results)

    def _drain_threads(self) -> None:
        """After abort/finish, drain the heap and wind every task down.

        On the coroutine backend draining the heap *is* the wind-down
        (resume events advance each generator to its terminal state);
        only the thread backend has OS threads left to join.
        """
        while self._heap:
            t, _, fn = heapq.heappop(self._heap)
            self._now = max(self._now, t)
            fn()
        for task in self._tasks.values():
            if isinstance(task, ThreadTask) and task.thread.is_alive():
                task.thread.join(_HANDOFF_TIMEOUT)
                if task.thread.is_alive():  # pragma: no cover - internal bug
                    raise EngineError(f"task {task.name} failed to wind down")

    # -- restart ----------------------------------------------------------

    @classmethod
    def resume(cls, journal_dir: str, *, perf: PerfRecorder = NO_PERF,
               scheduler: str = "threads") -> "Engine":
        """Rebuild an engine from a journal directory, armed for replay.

        The manifest restores seed, clock resolution and per-rank skews;
        the fault plan is re-installed with crash rules suppressed (so
        the replay runs *past* the recorded crash) while message-fault
        rules keep their indices and decision streams.  The attached
        replay journal then verifies every delivery, injection and
        checkpoint barrier against the recorded run.  The caller spawns
        the same program and calls :meth:`run` as usual.

        ``scheduler`` picks the task backend for the replay; the
        manifest does not record one because both backends re-emit the
        recorded history byte-for-byte.
        """
        from repro.vmpi.journal import Journal, engine_from_manifest

        journal = Journal.replay(journal_dir, perf=perf)
        recorded = engine_from_manifest(journal.manifest)
        engine = cls(seed=recorded.seed,
                     clock_resolution=recorded.clock_resolution,
                     skews=recorded.skews, scheduler=scheduler)
        if recorded.fault_plan is not None:
            recorded.fault_plan.install(engine, suppress_crashes=True)
        journal.attach(engine)
        return engine

    # -- convenience -----------------------------------------------------

    def resource(self, capacity: int = 1, name: str = "resource") -> Resource:
        return Resource(self, capacity, name)

    def wtime(self) -> float:
        """``MPI_Wtime`` for the calling task: skewed, quantised local time."""
        task = self._require_task()
        if task.replay is not None:
            # A replaying incarnation reads its replayed clock, so the
            # records it re-buffers carry the original timestamps.
            return task.clock.read(task.replay.now)
        return task.clock.read(self._now)


# Generator twins for the blocking primitives, dispatched by the
# coroutine scheduler's call rewriter (see repro.vmpi.weave).
from repro.vmpi import weave as _weave  # noqa: E402 - needs classes above

_weave.register_twin(Engine.advance, Engine.advance_gen)
_weave.register_twin(Engine.block, Engine.block_gen)
_weave.register_twin(Resource.acquire, Resource.acquire_gen)
_weave.register_twin(Resource.__enter__, Resource.enter_gen)
