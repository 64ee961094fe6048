"""The Pilot public API: the PI_* functions.

This is "a friendly face for MPI" reproduced in Python.  Semantics
follow the paper and Pilot V3.x: a compact CSP-based process/channel
model, fprintf/fscanf-style formats, pure MPMD execution (work
functions are plain callables; PI_StartAll dispatches them), extensive
error checking, and integrated logging/deadlock services.

Python-specific calling conventions (documented deviations from C):

* ``PI_Read`` *returns* the received values (single value, or a tuple
  when the format has several items; ``%^`` contributes two values —
  length then array — matching C's ``&myshare, &buff`` out-params).
* Runtime-count reads (``%*d``) take the expected count as a call
  argument: ``buff = PI_Read(chan, "%*d", myshare)``.
* ``PI_CreateProcess(work, index, arg2)`` takes a callable instead of a
  function pointer; ``work(index, arg2)`` runs on the process's rank.

All functions must run inside :func:`repro.pilot.run_pilot` — they look
up the active :class:`~repro.pilot.program.PilotRun` through thread-
local state, mirroring Pilot's per-process library globals.
"""

from __future__ import annotations

from typing import Any, Callable

from repro._util.callsite import CallSite
from repro.pilot import errors as perr
from repro.pilot import rw, select
from repro.pilot.objects import (
    PI_BUNDLE,
    PI_CHANNEL,
    PI_MAIN,
    PI_PROCESS,
    BundleUsage,
)
from repro.pilot.program import (
    Phase,
    PilotRun,
    _RankDone,
    current_run,
    pilot_callsite,
)
from repro.pilot.service import run_service

__all__ = [
    "PI_MAIN",
    "BundleUsage",
    "PI_Configure",
    "PI_CreateProcess",
    "PI_CreateChannel",
    "PI_CopyChannels",
    "PI_CreateBundle",
    "PI_StartAll",
    "PI_StopMain",
    "PI_Write",
    "PI_Read",
    "PI_Broadcast",
    "PI_Scatter",
    "PI_Gather",
    "PI_Reduce",
    "PI_Select",
    "PI_TrySelect",
    "PI_ChannelHasData",
    "PI_SetName",
    "PI_GetName",
    "PI_Log",
    "PI_StartTime",
    "PI_EndTime",
    "PI_IsLogging",
    "PI_Abort",
    "PI_Compute",
    "PI_DefineState",
    "PI_STATE",
    "PI_State",
]


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------


def PI_Configure(argv: list[str] | tuple[str, ...] = ()) -> int:
    """Initialise Pilot; returns the number of processes available.

    Must be called (by every rank — it is, automatically, since all
    ranks execute ``main``) before creating processes, channels or
    bundles.  The count includes PI_MAIN and excludes the service rank,
    so enabling the native log visibly "displaces one worker"
    (Section III.E).
    """
    run = current_run()
    cs = pilot_callsite()
    state = run.rank_state()
    run.check(perr.CHECK_API, state.phase is Phase.PRE, "WRONG_PHASE",
              "PI_Configure called twice (or after PI_StartAll)", cs)
    run.charge(run.costs.config_call)
    state.phase = Phase.CONFIG
    run.hooks.on_configure(state.rank, cs)
    return run.available_processes


def PI_CreateProcess(work: Callable[[int, Any], int], index: int = 0,
                     arg2: Any = None) -> PI_PROCESS:
    """Create a Pilot process that will run ``work(index, arg2)``."""
    run = current_run()
    cs = pilot_callsite()
    run.require_phase(Phase.CONFIG, "PI_CreateProcess", cs)
    if not callable(work):
        run.check(perr.CHECK_API, False, "BAD_ARGUMENTS",
                  f"work function must be callable, got {type(work).__name__}",
                  cs)
    run.charge(run.costs.config_call)
    key = (getattr(work, "__qualname__", None), index)
    proc = run._claim_slot("process", run.processes, key, cs, offset=1)
    if proc is not None:
        return proc
    rank = len(run.processes)
    if rank >= run.available_processes:
        run.fail("TOO_MANY_PROCESSES",
                 f"cannot create process #{rank}: only "
                 f"{run.available_processes} processes available "
                 "(is a service rank enabled?)", cs)
    return run._add_slot("process", run.processes, key,
                         PI_PROCESS(rank, work, index, arg2), cs)


def PI_CreateChannel(from_end: Any, to_end: Any) -> PI_CHANNEL:
    """Create a one-way channel ``from_end -> to_end``."""
    run = current_run()
    cs = pilot_callsite()
    run.require_phase(Phase.CONFIG, "PI_CreateChannel", cs)
    run.charge(run.costs.config_call)
    writer = run.resolve_endpoint(from_end, cs)
    reader = run.resolve_endpoint(to_end, cs)
    if writer.rank == reader.rank:
        run.check(perr.CHECK_API, False, "SELF_CHANNEL",
                  f"channel endpoints must differ ({writer.name} on both ends)",
                  cs)
    return _channel_slot(run, writer, reader, cs)


def _channel_slot(run: PilotRun, writer: PI_PROCESS, reader: PI_PROCESS,
                  cs: CallSite) -> PI_CHANNEL:
    key = (writer.rank, reader.rank)
    chan = run._claim_slot("channel", run.channels, key, cs)
    if chan is not None:
        return chan
    return run._add_slot("channel", run.channels, key,
                         PI_CHANNEL(len(run.channels), writer, reader), cs)


def PI_CopyChannels(channels: list[PI_CHANNEL]) -> list[PI_CHANNEL]:
    """Duplicate a channel array (fresh channels, same endpoints).

    A channel may belong to at most one bundle, so a process that wants
    both, say, a selector bundle and a gather bundle over the same
    process set needs a second set of channels — this is Pilot's
    PI_CopyChannels.  The copies are real channels with their own tags.
    """
    run = current_run()
    cs = pilot_callsite()
    run.require_phase(Phase.CONFIG, "PI_CopyChannels", cs)
    run.check(perr.CHECK_API,
              bool(channels) and all(isinstance(c, PI_CHANNEL)
                                     for c in channels),
              "BAD_ARGUMENTS",
              "PI_CopyChannels takes a non-empty list of channels", cs)
    run.charge(run.costs.config_call)
    copies = []
    for chan in channels:
        copies.append(_channel_slot(run, chan.writer, chan.reader, cs))
    return copies


def PI_CreateBundle(usage: BundleUsage | str,
                    channels: list[PI_CHANNEL]) -> PI_BUNDLE:
    """Group channels with a common endpoint for collective use."""
    run = current_run()
    cs = pilot_callsite()
    run.require_phase(Phase.CONFIG, "PI_CreateBundle", cs)
    run.charge(run.costs.config_call)
    if isinstance(usage, str):
        try:
            usage = BundleUsage[usage.upper()]
        except KeyError:
            run.fail("BAD_ARGUMENTS", f"unknown bundle usage {usage!r}", cs)
    run.check(perr.CHECK_API, bool(channels), "BAD_ARGUMENTS",
              "PI_CreateBundle needs at least one channel", cs)
    run.check(perr.CHECK_API,
              all(isinstance(c, PI_CHANNEL) for c in channels),
              "BAD_ARGUMENTS", "PI_CreateBundle takes a list of channels", cs)
    if usage.common_end_writes:
        commons = {c.writer.rank for c in channels}
        side = "writing"
    else:
        commons = {c.reader.rank for c in channels}
        side = "reading"
    if len(commons) != 1:
        run.check(perr.CHECK_API, False, "NO_COMMON_ENDPOINT",
                  f"a {usage.value} bundle needs one common {side} process; "
                  f"found ranks {sorted(commons)}", cs)
    common = (channels[0].writer if usage.common_end_writes
              else channels[0].reader)
    key = (usage, [c.cid for c in channels])
    bundle = run._claim_slot("bundle", run.bundles, key, cs)
    if bundle is not None:
        return bundle
    # Membership is checked at creation time only: when another rank
    # re-executes the same configuration code, its key is compared with
    # the existing bundle's instead.
    already = [c.name for c in channels if c.cid in run._bundled_channels]
    if already:
        run.check(perr.CHECK_API, False, "CHANNEL_REBUNDLED",
                  f"channel(s) {already} already belong to a bundle", cs)
    run._bundled_channels.update(c.cid for c in channels)
    return run._add_slot("bundle", run.bundles, key,
                         PI_BUNDLE(len(run.bundles), usage, channels, common),
                         cs)


def PI_StartAll() -> None:
    """Launch every created process; PI_MAIN continues past this call.

    On worker ranks this function *does not return*: the rank runs its
    work function, finalises, and ends (matching C Pilot, where only
    PI_MAIN's flow continues).
    """
    run = current_run()
    cs = pilot_callsite()
    run.require_phase(Phase.CONFIG, "PI_StartAll", cs)
    state = run.rank_state()
    state.phase = Phase.EXEC
    state.exec_started_at = run.engine.now
    run.hooks.on_startall(state.rank, cs)
    rank = state.rank
    if rank == 0:
        state.process = run.processes[0]
        return
    if rank == run.service_rank:
        run_service(run)
        _finalize(run, cs)
        raise _RankDone(0)
    proc = run.processes[rank] if rank < len(run.processes) else None
    if proc is None:
        # An MPI rank with no Pilot process assigned: idles through the
        # execution phase (Pilot permits over-provisioned worlds).
        _finalize(run, cs)
        raise _RankDone(0)
    state.process = proc
    status = proc.work(proc.index, proc.arg2)
    run.hooks.on_stopmain(rank, cs)
    _finalize(run, cs)
    raise _RankDone(status if isinstance(status, int) else 0)


def PI_StopMain(status: int = 0) -> None:
    """End the execution phase on PI_MAIN; workers also cease."""
    run = current_run()
    cs = pilot_callsite()
    run.require_phase(Phase.EXEC, "PI_StopMain", cs)
    state = run.rank_state()
    run.check(perr.CHECK_API, state.rank == 0, "WRONG_ENDPOINT",
              "PI_StopMain may only be called by PI_MAIN", cs)
    run.hooks.on_stopmain(0, cs)
    _finalize(run, cs)
    run.finished_at = run.engine.now


def _finalize(run: PilotRun, cs: CallSite) -> None:
    state = run.rank_state()
    state.exec_ended_at = run.engine.now
    run.exec_ended[state.rank] = run.engine.now
    run.hooks.on_finalize(state.rank)
    state.phase = Phase.DONE


# ---------------------------------------------------------------------------
# I/O
# ---------------------------------------------------------------------------


def PI_Write(channel: PI_CHANNEL, fmt: str, *args: Any) -> None:
    """Write formatted values into a channel (one message per item)."""
    return rw.do_write(current_run(), channel, fmt, args, pilot_callsite())


def PI_Read(channel: PI_CHANNEL, fmt: str, *args: Any) -> Any:
    """Blocking read of formatted values from a channel."""
    return rw.do_read(current_run(), channel, fmt, args, pilot_callsite())


def PI_Broadcast(bundle: PI_BUNDLE, fmt: str, *args: Any) -> None:
    """Write the same values to every channel of a broadcast bundle;
    each receiver simply calls PI_Read (pure MPMD, paper Section I)."""
    return rw.do_broadcast(current_run(), bundle, fmt, args, pilot_callsite())


def PI_Scatter(bundle: PI_BUNDLE, fmt: str, *args: Any) -> None:
    """Deal slices of the arguments across a scatter bundle's channels."""
    return rw.do_scatter(current_run(), bundle, fmt, args, pilot_callsite())


def PI_Gather(bundle: PI_BUNDLE, fmt: str, *args: Any) -> Any:
    """Collect one contribution per channel; returns concatenated data."""
    return rw.do_gather(current_run(), bundle, fmt, args, pilot_callsite())


def PI_Reduce(bundle: PI_BUNDLE, fmt: str, *args: Any) -> Any:
    """Collect and combine contributions with the format's operator(s),
    e.g. ``PI_Reduce(b, "%+d")`` sums one int from each channel."""
    return rw.do_reduce(current_run(), bundle, fmt, args, pilot_callsite())


def PI_Select(bundle: PI_BUNDLE) -> int:
    """Block until any channel of a selector bundle has data; returns
    its index (the data itself awaits a subsequent PI_Read)."""
    return select.do_select(current_run(), bundle, pilot_callsite())


def PI_TrySelect(bundle: PI_BUNDLE) -> int:
    """Non-blocking PI_Select: ready channel index, or -1."""
    return select.do_try_select(current_run(), bundle, pilot_callsite())


def PI_ChannelHasData(channel: PI_CHANNEL) -> bool:
    """True if a PI_Read on this channel would not block."""
    return select.do_channel_has_data(current_run(), channel, pilot_callsite())


# ---------------------------------------------------------------------------
# Utilities
# ---------------------------------------------------------------------------


def PI_SetName(obj: PI_PROCESS | PI_CHANNEL | PI_BUNDLE, name: str) -> None:
    """Assign a meaningful display name — "programmers ... may wish to
    do so precisely for the purpose of logging and debugging"
    (Section III.B)."""
    run = current_run()
    cs = pilot_callsite()
    if not isinstance(obj, (PI_PROCESS, PI_CHANNEL, PI_BUNDLE)):
        run.check(perr.CHECK_API, False, "BAD_ARGUMENTS",
                  "PI_SetName needs a process/channel/bundle, got "
                  f"{type(obj).__name__}", cs)
    run.check(perr.CHECK_API, isinstance(name, str) and name != "",
              "BAD_ARGUMENTS", "PI_SetName needs a non-empty string", cs)
    obj.name = name


def PI_GetName(obj: PI_PROCESS | PI_CHANNEL | PI_BUNDLE) -> str:
    run = current_run()
    cs = pilot_callsite()
    if not isinstance(obj, (PI_PROCESS, PI_CHANNEL, PI_BUNDLE)):
        run.check(perr.CHECK_API, False, "BAD_ARGUMENTS",
                  "PI_GetName needs a process/channel/bundle, got "
                  f"{type(obj).__name__}", cs)
    return obj.name


def PI_Log(text: str) -> None:
    """Drop a free-text annotation into the logs (solo event bubble)."""
    run = current_run()
    cs = pilot_callsite()
    run.charge_call()
    run.hooks.on_solo("PI_Log", run.rank_state().rank, str(text), cs)


def PI_StartTime() -> float:
    """Start an interval timer; returns the current local time."""
    run = current_run()
    cs = pilot_callsite()
    run.charge_call()
    now = run.comm.wtime()
    run.rank_state().timer_started_at = now  # type: ignore[attr-defined]
    run.hooks.on_solo("PI_StartTime", run.rank_state().rank,
                      f"Returned: {now:.9f}", cs)
    return now


def PI_EndTime() -> float:
    """Elapsed local time since the matching PI_StartTime."""
    run = current_run()
    cs = pilot_callsite()
    run.charge_call()
    state = run.rank_state()
    started = getattr(state, "timer_started_at", None)
    run.check(perr.CHECK_API, started is not None, "NO_TIMER",
              "PI_EndTime without a preceding PI_StartTime", cs)
    elapsed = run.comm.wtime() - (started or 0.0)
    run.hooks.on_solo("PI_EndTime", state.rank,
                      f"Returned: {elapsed:.9f}", cs)
    return elapsed


def PI_IsLogging() -> bool:
    """True if any logging service (native or MPE) is enabled."""
    services = current_run().options.services
    return "c" in services or "j" in services


def PI_Abort(errorcode: int = 1, text: str = "") -> None:
    """Halt execution on all nodes; never returns.

    As in the paper (Section III.B): because this tears down the
    message infrastructure, any un-merged MPE log is lost; Pilot's
    native log, already flushed per record, survives.
    """
    run = current_run()
    run.engine.abort(errorcode, run.rank_state().rank, text)


class PI_STATE:
    """Handle for a user-defined timeline state (see PI_DefineState)."""

    def __init__(self, sid: int, name: str, color: str) -> None:
        self.sid = sid
        self.name = name
        self.color = color

    def __repr__(self) -> str:
        return f"<PI_STATE {self.name!r} color={self.color}>"


def PI_DefineState(name: str, color: str = "blue") -> PI_STATE:
    """Define a custom timeline state (configuration phase only).

    MPE "allows customized logging via its API" (paper Section II.A);
    this surfaces that through Pilot: instructors can subdivide the
    gray Compute bar into named, coloured phases.  Like every MPE event
    ID, the definition must happen identically on all ranks before
    PI_StartAll — "one must anticipate all the kinds of events that
    want to be recorded ... at initialization time" (Section III).

    Use the handle with :func:`PI_State`::

        decompress = PI_DefineState("decompress", "blue")
        ...
        with PI_State(decompress):
            ...work...
    """
    run = current_run()
    cs = pilot_callsite()
    run.require_phase(Phase.CONFIG, "PI_DefineState", cs)
    run.check(perr.CHECK_API, isinstance(name, str) and name != "",
              "BAD_ARGUMENTS", "PI_DefineState needs a non-empty name", cs)
    run.charge(run.costs.config_call)
    key = (name, color)
    handle = run._claim_slot("custom_state", run.custom_states, key, cs)
    if handle is not None:
        return handle
    return run._add_slot("custom_state", run.custom_states, key,
                         PI_STATE(len(run.custom_states), name, color), cs)


class _StateBlock:
    """Context manager emitted by :func:`PI_State`."""

    def __init__(self, run: PilotRun, handle: PI_STATE,
                 callsite: CallSite) -> None:
        self._run = run
        self._handle = handle
        self._callsite = callsite

    def __enter__(self) -> PI_STATE:
        state = self._run.rank_state()
        self._run.hooks.on_custom_begin(self._handle, state.rank,
                                        self._callsite)
        return self._handle

    def __exit__(self, *exc: Any) -> None:
        state = self._run.rank_state()
        self._run.hooks.on_custom_end(self._handle, state.rank)


def PI_State(handle: PI_STATE) -> _StateBlock:
    """Open a user-defined state on this rank's timeline (execution
    phase); use as a context manager.  Nests freely with Pilot's own
    states and other custom states."""
    run = current_run()
    cs = pilot_callsite()
    run.require_phase(Phase.EXEC, "PI_State", cs)
    if not isinstance(handle, PI_STATE):
        run.check(perr.CHECK_API, False, "BAD_ARGUMENTS",
                  "PI_State needs a PI_DefineState handle, got "
                  f"{type(handle).__name__}", cs)
    return _StateBlock(run, handle, cs)


def PI_Compute(seconds: float) -> None:
    """**Simulation extension** (not in C Pilot): declare ``seconds`` of
    local computation.  Virtual time advances; the timeline shows the
    span as part of the surrounding gray Compute state."""
    run = current_run()
    if seconds < 0:
        run.fail("BAD_ARGUMENTS", f"PI_Compute needs seconds >= 0, got {seconds}",
                 pilot_callsite())
    run.engine.advance(seconds, "compute")
