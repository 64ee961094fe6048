"""PI_Select / PI_TrySelect / PI_ChannelHasData.

PI_Select is the paper's "slight exception" (Section III.B): it blocks
like PI_Read and is therefore drawn as a state, but no message is
consumed — the data stays queued for a subsequent PI_Read — so it has
no arrival bubble; its popup carries the index of the ready channel.
PI_TrySelect and PI_ChannelHasData never block and are logged as solo
event bubbles with their return values.
"""

from __future__ import annotations

from repro._util.callsite import CallSite
from repro.pilot import errors as perr
from repro.pilot.objects import PI_BUNDLE, PI_CHANNEL, BundleUsage
from repro.pilot.program import Phase, PilotRun
from repro.pilot.rw import make_call


def _require_select_bundle(run: PilotRun, bundle: PI_BUNDLE, what: str,
                           callsite: CallSite) -> None:
    run.require_phase(Phase.EXEC, what, callsite)
    if not isinstance(bundle, PI_BUNDLE):
        run.check(perr.CHECK_API, False, "BAD_ARGUMENTS",
                  f"{what} needs a bundle, got {type(bundle).__name__}",
                  callsite)
    if bundle.usage is not BundleUsage.SELECT:
        run.check(perr.CHECK_API, False, "WRONG_BUNDLE_USAGE",
                  f"{what} needs a selector bundle, but {bundle.name} was "
                  f"created for {bundle.usage.value}", callsite)
    state = run.rank_state()
    if state.rank != bundle.common.rank:
        run.check(perr.CHECK_API, False, "WRONG_ENDPOINT",
                  f"{what} on {bundle.name} must be called by its common "
                  f"process {bundle.common.name} (rank {bundle.common.rank})",
                  callsite)


def _pairs(bundle: PI_BUNDLE) -> list[tuple[int, int]]:
    return [(c.writer.rank, c.tag) for c in bundle.channels]


def do_select(run: PilotRun, bundle: PI_BUNDLE, callsite: CallSite) -> int:
    _require_select_bundle(run, bundle, "PI_Select", callsite)
    call = make_call(run, "PI_Select", callsite, bundle=bundle)
    run.hooks.on_call_begin(call)
    run.charge_call()
    run.hooks.on_block(call, [c.writer.rank for c in bundle.channels])
    index = run.comm.wait_any(_pairs(bundle))
    run.hooks.on_unblock(call)
    call.detail = f"Ready: channel index {index} ({bundle.channels[index].name})"
    run.hooks.on_call_end(call)
    return index


def do_try_select(run: PilotRun, bundle: PI_BUNDLE, callsite: CallSite) -> int:
    _require_select_bundle(run, bundle, "PI_TrySelect", callsite)
    run.charge_call()
    index = run.comm.poll_any(_pairs(bundle))
    state = run.rank_state()
    run.hooks.on_solo("PI_TrySelect", state.rank,
                      f"Returned: {index}", callsite)
    return index


def do_channel_has_data(run: PilotRun, channel: PI_CHANNEL,
                        callsite: CallSite) -> bool:
    run.require_phase(Phase.EXEC, "PI_ChannelHasData", callsite)
    if not isinstance(channel, PI_CHANNEL):
        run.check(perr.CHECK_API, False, "BAD_ARGUMENTS",
                  "PI_ChannelHasData needs a channel, got "
                  f"{type(channel).__name__}", callsite)
    state = run.rank_state()
    if state.rank != channel.reader.rank:
        run.check(perr.CHECK_API, False, "WRONG_ENDPOINT",
                  f"PI_ChannelHasData on {channel.name} must be called by "
                  f"its reader {channel.reader.name}", callsite)
    run.charge_call()
    ready = run.comm.poll_any([(channel.writer.rank, channel.tag)]) == 0
    run.hooks.on_solo("PI_ChannelHasData", state.rank,
                      f"Returned: {int(ready)}", callsite)
    return ready
