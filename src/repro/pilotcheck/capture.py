"""Topology capture: run a Pilot main's configuration phase for real.

The configuration phase of a Pilot program is ordinary sequential Python
— the paper's programs build their process/channel/bundle tables with
loops and helper lists before ``PI_StartAll``.  Rather than re-implement
that with abstract interpretation, pilotcheck *executes* it against
:class:`CaptureRun`, a real ``PilotRun`` on a stub communicator that
never starts the virtual cluster.  A hook raises at ``PI_StartAll``,
unwinding ``main`` with the complete declared topology plus a snapshot
of main's local variables — which is exactly the environment the AST
walk needs to resolve channel expressions like ``chans[f"to{i}"]``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from types import CodeType, SimpleNamespace
from typing import Any, Callable

from repro._util.callsite import CallSite
from repro.pilot.config import PilotConfig
from repro.pilot.errors import Diagnostic, PilotError
from repro.pilot.hooks import PilotHooks
from repro.pilot.objects import PI_BUNDLE, PI_CHANNEL, PI_PROCESS
from repro.pilot.program import (
    PilotRun,
    RankState,
    current_run,
    set_current_run,
)

_PILOT_DIR = __file__.rsplit("/", 2)[0] + "/pilot"
_SELF_DIR = __file__.rsplit("/", 1)[0]


class CaptureError(PilotError):
    """A configuration-phase error surfaced during capture.

    Wraps the diagnostic the real run would have aborted with.
    """


class _CaptureDone(Exception):
    """Internal: unwinds ``main`` once PI_StartAll is reached."""

    def __init__(self, snapshot: "_MainSnapshot") -> None:
        self.snapshot = snapshot


@dataclass
class _MainSnapshot:
    code: CodeType
    locals: dict[str, Any]
    globals: dict[str, Any]
    callsite: CallSite


class _StubEngine:
    """Just enough engine for the config-phase code paths."""

    def __init__(self) -> None:
        self.now = 0.0
        self.current_task = None

    def advance(self, seconds: float, reason: str = "") -> None:
        self.now += seconds


class _CaptureHook(PilotHooks):
    """Raises :class:`_CaptureDone` when the program reaches PI_StartAll,
    carrying a snapshot of the user frame that called it."""

    def on_startall(self, rank: int, callsite: CallSite) -> None:
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_filename.startswith(
                (_PILOT_DIR, _SELF_DIR)):
            frame = frame.f_back
        if frame is None:  # pragma: no cover - StartAll always has a caller
            raise _CaptureDone(_MainSnapshot(
                (lambda: None).__code__, {}, {}, callsite))
        raise _CaptureDone(_MainSnapshot(
            frame.f_code, dict(frame.f_locals), frame.f_globals, callsite))


class CaptureRun(PilotRun):
    """A PilotRun on a stub communicator that records the configuration
    phase.

    The captured topology is built by exactly the code the runtime uses;
    a single rank-0 state stands in for the SPMD re-execution (capture
    only needs the tables once), and a failed check raises
    :class:`CaptureError` instead of aborting.
    """

    def __init__(self, nprocs: int, options: PilotConfig) -> None:
        comm = SimpleNamespace(rank=0, size=nprocs, engine=_StubEngine())
        super().__init__(comm, options)  # type: ignore[arg-type]
        self.hooks.add(_CaptureHook())
        self._rank0 = RankState(0)
        # Per kind, the creation site of each object by table index.
        self.sites: dict[str, dict[int, CallSite]] = {
            "process": {}, "channel": {}, "bundle": {}}

    def rank_state(self) -> RankState:
        return self._rank0

    def fail(self, code: str, message: str,
             callsite: CallSite | None = None) -> None:
        diag = Diagnostic(code, message, callsite, 0)
        self.diagnostics.record(diag)
        raise CaptureError(diag)

    def _add_slot(self, kind: str, table: list, key: Any, obj: Any,
                  callsite: CallSite) -> Any:
        if kind in self.sites:
            self.sites[kind][len(table)] = callsite
        return super()._add_slot(kind, table, key, obj, callsite)


@dataclass
class CapturedProgram:
    """The declared topology of a Pilot program, pre-StartAll."""

    options: PilotConfig
    app_argv: list[str]
    nprocs: int
    processes: list[PI_PROCESS]
    channels: list[PI_CHANNEL]
    bundles: list[PI_BUNDLE]
    custom_states: list
    channel_sites: dict[int, CallSite]
    process_sites: dict[int, CallSite]
    bundle_sites: dict[int, CallSite]
    started: bool
    main_code: CodeType | None = None
    main_locals: dict[str, Any] = field(default_factory=dict)
    main_globals: dict[str, Any] = field(default_factory=dict)
    startall_site: CallSite | None = None

    @property
    def alias_groups(self) -> dict[tuple[int, int], list[PI_CHANNEL]]:
        """Channels grouped by (writer rank, reader rank): the aliasing
        classes PI_CopyChannels creates."""
        groups: dict[tuple[int, int], list[PI_CHANNEL]] = {}
        for chan in self.channels:
            groups.setdefault((chan.writer.rank, chan.reader.rank),
                              []).append(chan)
        return groups


def capture_program(main: Callable[[list[str]], Any], nprocs: int,
                    argv: list[str] | tuple[str, ...] = (), *,
                    config: PilotConfig | None = None) -> CapturedProgram:
    """Execute ``main``'s configuration phase and capture the topology.

    ``-pi*`` flags in ``argv`` layer over ``config`` as in
    :func:`repro.pilot.run_pilot`.  Raises :class:`CaptureError` if the
    configuration itself is invalid
    (the same errors the real run would abort with) and propagates any
    exception the application code raises before ``PI_StartAll``.
    """
    opts, app_argv = PilotConfig.from_argv(argv, config)
    run = CaptureRun(nprocs, opts)
    run.app_argv = app_argv
    try:
        prev = current_run()
    except PilotError:
        prev = None
    set_current_run(run)  # type: ignore[arg-type]
    snapshot: _MainSnapshot | None = None
    try:
        main(list(app_argv))
    except _CaptureDone as done:
        snapshot = done.snapshot
    finally:
        set_current_run(prev)
    return CapturedProgram(
        options=opts, app_argv=app_argv, nprocs=nprocs,
        processes=list(run.processes), channels=list(run.channels),
        bundles=list(run.bundles), custom_states=list(run.custom_states),
        channel_sites=run.sites["channel"],
        process_sites=run.sites["process"], bundle_sites=run.sites["bundle"],
        started=snapshot is not None,
        main_code=snapshot.code if snapshot else None,
        main_locals=snapshot.locals if snapshot else {},
        main_globals=snapshot.globals if snapshot else {},
        startall_site=snapshot.callsite if snapshot else None,
    )
