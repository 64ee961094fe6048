"""Observation hook interface between the Pilot runtime and its loggers.

The paper stresses that the MPE integration had to "respect [Pilot's]
existing software architecture" and specifically did *not* disturb the
existing pipeline of API events flowing to the logging/deadlock process
(Section III.C).  This module is that separation made explicit: the
runtime emits semantic events through :class:`PilotHooks`, and each
facility — the native call log, the deadlock detector feed, and the
paper's new MPE/Jumpshot logger — is an independent implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro._util.callsite import CallSite

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pilot.objects import PI_BUNDLE, PI_CHANNEL


@dataclass
class CallRecord:
    """One Pilot API call in flight on some rank."""

    name: str  # "PI_Read", "PI_Broadcast", ...
    rank: int
    process_name: str
    work_index: int  # first argument of the work function (paper III.B)
    callsite: CallSite
    channel: "PI_CHANNEL | None" = None
    bundle: "PI_BUNDLE | None" = None
    detail: str = ""
    # Filled by hooks that need per-call state (e.g. MPE state tokens).
    tokens: dict[str, Any] = field(default_factory=dict)


class PilotHooks:
    """Base class: every method is a no-op; loggers override a subset.

    All methods run on the rank that triggered them, inside the virtual
    machine, so they may legitimately send messages or advance time
    (that is how logging overhead becomes measurable, Section III.E).
    """

    # -- lifecycle ------------------------------------------------------
    def on_configure(self, rank: int, callsite: CallSite) -> None:
        """PI_Configure completed on ``rank`` (configuration phase starts)."""

    def on_startall(self, rank: int, callsite: CallSite) -> None:
        """PI_StartAll reached on ``rank`` (execution phase starts)."""

    def on_stopmain(self, rank: int, callsite: CallSite) -> None:
        """This rank's execution phase ended (PI_StopMain or work-function
        return)."""

    def on_finalize(self, rank: int) -> None:
        """Wrap-up on every rank, after the execution phase, before the
        job ends.  MPE's log collection/merge happens here; it may use
        collective communication (every rank is guaranteed to call this,
        in a deterministic order relative to other hooks)."""

    def on_abort(self, rank: int, errorcode: int, reason: str) -> None:
        """PI_Abort is about to tear the world down."""

    # -- per-call -------------------------------------------------------
    def on_call_begin(self, call: CallRecord) -> None:
        """A loggable Pilot function was entered."""

    def on_call_end(self, call: CallRecord) -> None:
        """...and returned."""

    def on_bubble(self, call: CallRecord, text: str) -> None:
        """A milestone inside the current call (message arrival, message
        dispatch, select completion) — drawn as an event bubble."""

    def on_solo(self, name: str, rank: int, text: str, callsite: CallSite) -> None:
        """An independent event not wrapped in a state (PI_Log,
        PI_StartTime, PI_EndTime, PI_TrySelect, PI_ChannelHasData)."""

    # -- user-defined states (MPE's custom logging via Pilot) ------------
    def on_custom_begin(self, handle, rank: int, callsite: CallSite) -> None:
        """A ``with PI_State(handle):`` block opened on ``rank``."""

    def on_custom_end(self, handle, rank: int) -> None:
        """...and closed."""

    # -- wire-level (for arrows) -----------------------------------------
    def on_send(self, call: CallRecord, dest_rank: int, tag: int, nbytes: int) -> None:
        """A message left this rank as part of ``call``."""

    def on_receive(self, call: CallRecord, src_rank: int, tag: int, nbytes: int) -> None:
        """A message was consumed by this rank as part of ``call``."""

    # -- blocking info (for the deadlock detector) ------------------------
    def on_block(self, call: CallRecord, waiting_for_ranks: list[int]) -> None:
        """The call is about to block waiting on any of ``waiting_for_ranks``."""

    def on_unblock(self, call: CallRecord) -> None:
        """The blocked call resumed."""


#: The hook events, in :class:`PilotHooks` order.
_EVENTS = tuple(name for name in vars(PilotHooks) if name.startswith("on_"))


def _ignore(*args: Any, **kwargs: Any) -> None:
    """An event no enabled hook overrides."""


def _fan_out(methods: list[Any]) -> Any:
    def fan_out(*args: Any, **kwargs: Any) -> None:
        for method in methods:
            method(*args, **kwargs)

    return fan_out


class HookSet:
    """Orders and dispatches to the enabled hooks.

    Every event is one attribute, rebound by :meth:`add`: a no-op when
    no hook overrides it, the overriding hook's bound method when one
    does, or a fan-out over several, in the order they were added.  On
    the coroutine scheduler an event therefore costs one woven call, and
    a hook method that charges virtual time (the jumpshot logger's MPE
    buffering cost) may block.
    """

    def __init__(self) -> None:
        self.hooks: list[PilotHooks] = []
        for name in _EVENTS:
            setattr(self, name, _ignore)

    def add(self, hook: PilotHooks) -> None:
        self.hooks.append(hook)
        for name in _EVENTS:
            base = getattr(PilotHooks, name)
            methods = [m for m in (getattr(h, name) for h in self.hooks)
                       if getattr(m, "__func__", None) is not base]
            setattr(self, name, _ignore if not methods
                    else methods[0] if len(methods) == 1
                    else _fan_out(methods))
