"""Pilot run state: lifecycle phases, configuration tables.

One :class:`PilotRun` exists per job.  All ranks execute the same user
``main`` (SPMD under the hood, exactly like Pilot-over-MPI); the
configuration phase must therefore be executed identically everywhere.
The first rank to execute a creation call actually creates the object;
every other rank's identical call is validated against it (check level
>= 1 turns a mismatch into a CONFIG_MISMATCH diagnostic, mirroring
Pilot's insistence that all processes run the same configuration code).
"""

from __future__ import annotations

import enum
import sys
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro._util.callsite import CallSite, capture_callsite
from repro.pilot import errors as perr
from repro.pilot.errors import Diagnostic, DiagnosticLog, PilotError
from repro.pilot.hooks import HookSet
from repro.pilot.objects import (
    PI_BUNDLE,
    PI_CHANNEL,
    PI_MAIN,
    PI_PROCESS,
    _MainHandle,
)
from repro.vmpi.comm import INTERNAL_TAG_BASE, Communicator

if TYPE_CHECKING:
    from repro.pilot.config import PilotConfig

# Tag used by the service-rank feed (native log, deadlock events, DONE).
SERVICE_TAG = INTERNAL_TAG_BASE + (1 << 20)


class Phase(enum.Enum):
    PRE = "pre-configure"
    CONFIG = "configuration"
    EXEC = "execution"
    DONE = "done"


@dataclass(frozen=True)
class PilotCosts:
    """Virtual CPU cost charged per Pilot API activity (seconds).

    Small software overheads; they exist so that the Section III.E
    overhead comparison measures something real.
    """

    api_call: float = 2e-7  # bookkeeping on every PI_* call
    config_call: float = 1e-6  # creation calls are heavier
    check_per_level: float = 5e-8  # error checking work per enabled level


@dataclass
class RankState:
    """Per-rank mutable state (each rank thread owns exactly one)."""

    rank: int
    phase: Phase = Phase.PRE
    creation_cursor: dict[str, int] = field(default_factory=dict)
    process: PI_PROCESS | None = None  # whose code this rank is running
    call_depth: int = 0
    exec_started_at: float = 0.0
    exec_ended_at: float = 0.0


class _RankDone(Exception):
    """Internal: unwinds a worker/service rank after its job is over."""

    def __init__(self, status: int) -> None:
        self.status = status


class PilotRun:
    """Everything one Pilot job knows about itself."""

    def __init__(self, comm: Communicator, options: PilotConfig) -> None:
        self.comm = comm
        self.engine = comm.engine
        self.options = options
        self.costs = options.costs or PilotCosts()
        self.hooks = HookSet()
        self.diagnostics = DiagnosticLog()
        self.processes: list[PI_PROCESS] = [PI_PROCESS(0, None)]
        self.processes[0].name = "PI_MAIN"
        self.channels: list[PI_CHANNEL] = []
        self.bundles: list[PI_BUNDLE] = []
        self.custom_states: list = []  # PI_DefineState handles, in order
        self._bundled_channels: set[int] = set()
        self.app_argv: list[str] = []
        self.exec_ended: dict[int, float] = {}
        self.finished_at: float | None = None

    # -- rank-local state ------------------------------------------------

    def rank_state(self) -> RankState:
        task = self.engine._require_task()
        state = task.locals.get("pilot_state")
        if state is None:
            state = task.locals["pilot_state"] = RankState(task.rank)
        return state

    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def world_size(self) -> int:
        return self.comm.size

    @property
    def service_rank(self) -> int | None:
        """The dedicated log/deadlock rank (the last one), if enabled."""
        return self.world_size - 1 if self.options.needs_service_rank else None

    @property
    def available_processes(self) -> int:
        """What PI_Configure returns: ranks usable for Pilot processes
        (PI_MAIN included).  The native log "consume[s] an additional
        MPI rank ... one worker is displaced" (Section III.E)."""
        n = self.world_size
        if self.options.needs_service_rank:
            n -= 1
        return n

    @property
    def max_worker_processes(self) -> int:
        return self.available_processes - 1  # PI_MAIN holds rank 0

    # -- diagnostics / checks ---------------------------------------------

    def fail(self, code: str, message: str, callsite: CallSite | None = None) -> None:
        """Record a diagnostic, print it, and abort the job (never returns)."""
        diag = Diagnostic(code, message, callsite, self._safe_rank())
        self.diagnostics.record(diag)
        print(diag.render(), file=sys.stderr)
        self.hooks.on_abort(diag.rank, 1, diag.message)
        self.engine.abort(1, diag.rank, diag.message)
        raise PilotError(diag)  # only reached when called outside a task

    def check(self, level: int, condition: bool, code: str, message: str,
              callsite: CallSite | None = None) -> None:
        """Level-gated assertion: at/above ``level``, failure aborts."""
        if self.options.check_level >= level and not condition:
            self.fail(code, message, callsite)

    def _safe_rank(self) -> int:
        task = self.engine.current_task
        return task.rank if task is not None else -1

    def charge(self, seconds: float, reason: str = "pilot overhead") -> None:
        if seconds > 0:
            self.engine.advance(seconds, reason)

    def charge_call(self) -> None:
        self.charge(self.costs.api_call
                    + self.costs.check_per_level * self.options.check_level)

    # -- configuration-phase object creation -------------------------------

    def _create_slot(self, kind: str, table: list, build: Callable[[], Any],
                     match: Callable[[Any], bool], callsite: CallSite,
                     offset: int = 0) -> Any:
        """First-creator-wins slot allocation with cross-rank validation.

        ``offset`` accounts for pre-existing table entries that are not
        user-created (the PI_MAIN process occupies ``processes[0]``).
        Needs no lock: both schedulers run one rank at a time, and this
        body can suspend only inside a failed check (``fail`` runs the
        abort hooks), which ends the run.
        """
        state = self.rank_state()
        cursor = offset + state.creation_cursor.get(kind, 0)
        state.creation_cursor[kind] = cursor + 1 - offset
        if cursor < len(table):
            existing = table[cursor]
            if not match(existing):
                self.fail(
                    "CONFIG_MISMATCH",
                    f"rank {state.rank} executed a different configuration: "
                    f"{kind} #{cursor} does not match the one created first "
                    f"({existing!r})", callsite)
            return existing
        obj = build()
        table.append(obj)
        return obj

    def resolve_endpoint(self, endpoint: Any, callsite: CallSite) -> PI_PROCESS:
        if isinstance(endpoint, _MainHandle) or endpoint is PI_MAIN:
            return self.processes[0]
        if isinstance(endpoint, PI_PROCESS):
            return endpoint
        self.fail("BAD_ENDPOINT",
                  "channel endpoint must be PI_MAIN or a PI_PROCESS, "
                  f"got {type(endpoint).__name__}", callsite)
        raise AssertionError("unreachable")

    # -- lifecycle ----------------------------------------------------------

    def require_phase(self, expected: Phase, what: str,
                      callsite: CallSite | None = None) -> None:
        state = self.rank_state()
        if state.phase is not expected:
            self.check(perr.CHECK_API, False, "WRONG_PHASE",
                       f"{what} is only valid in the {expected.value} phase "
                       f"(rank {state.rank} is in the {state.phase.value} "
                       "phase)", callsite)


# ---------------------------------------------------------------------------
# Thread-local access for the module-level PI_* API
# ---------------------------------------------------------------------------

_tls = threading.local()


def set_current_run(run: PilotRun | None) -> None:
    _tls.run = run


def current_run() -> PilotRun:
    run = getattr(_tls, "run", None)
    if run is None:
        raise PilotError(Diagnostic(
            "NO_PROGRAM", "Pilot API called outside a running Pilot program "
            "(use repro.pilot.run_pilot)", None, -1))
    return run


_CALLSITE_PREFIXES: tuple[str, ...] = ()


def pilot_callsite() -> CallSite:
    """Call site in *user* code (library frames skipped).

    The vmpi package is in the skip set because on the coroutine
    scheduler the weave dispatcher (repro.vmpi.weave) interposes a frame
    between every caller and callee; woven user code keeps its original
    filename, so the walk still lands on the user frame both backends
    report.
    """
    global _CALLSITE_PREFIXES
    if not _CALLSITE_PREFIXES:
        import repro.pilot as _pilot_pkg
        import repro.vmpi as _vmpi_pkg

        _CALLSITE_PREFIXES = (_pilot_pkg.__file__.rsplit("/", 1)[0],
                              _vmpi_pkg.__file__.rsplit("/", 1)[0])
    return capture_callsite(skip=2, internal_prefixes=_CALLSITE_PREFIXES)
