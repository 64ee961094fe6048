"""PI_Read / PI_Write and the bundle collectives.

Wire protocol: every format item travels as one message (``%^`` as
two — length then data), tagged with the channel id.  The envelope
carries the item's canonical signature so level-2 checking can verify
that "reader and writer format strings match" (paper Section II, V3.0
feature) at the receiving end.

Collectives are loops over the bundle's channels, NOT tree algorithms:
the paper specifies that a bundle with N channels produces N arrows in
the visual log (Section III.B), because that is what Pilot actually
puts on the wire.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro._util.callsite import CallSite
from repro.pilot import errors as perr
from repro.pilot.errors import PilotError
from repro.pilot.formats import (
    FormatError,
    FormatItem,
    WirePart,
    apply_reduce,
    decode_read,
    encode_write,
    parse_format,
)
from repro.pilot.hooks import CallRecord
from repro.pilot.objects import PI_BUNDLE, PI_CHANNEL, BundleUsage
from repro.pilot.program import Phase, PilotRun

# Message envelope: (marker, channel id, item signature, payload, note)
_MARKER = "PIMSG"


def make_call(run: PilotRun, name: str, callsite: CallSite,
              channel: PI_CHANNEL | None = None,
              bundle: PI_BUNDLE | None = None, detail: str = "") -> CallRecord:
    state = run.rank_state()
    proc = state.process or run.processes[0]
    return CallRecord(
        name=name, rank=state.rank, process_name=proc.name,
        work_index=proc.index, callsite=callsite,
        channel=channel, bundle=bundle, detail=detail)


def _parse_or_fail(run: PilotRun, fmt: str, callsite: CallSite,
                   *, allow_ops: bool = False) -> Sequence[FormatItem]:
    try:
        return parse_format(fmt, allow_ops=allow_ops)
    except FormatError as exc:
        run.fail("BAD_FORMAT", str(exc), callsite)
        raise AssertionError("unreachable")


def _encode_or_fail(run: PilotRun, items: Sequence[FormatItem], args: tuple,
                    callsite: CallSite) -> list[list[WirePart]]:
    try:
        return encode_write(items, args,
                            strict=run.options.check_level >= perr.CHECK_POINTERS)
    except FormatError as exc:
        run.fail("BAD_ARGUMENTS", str(exc), callsite)
        raise AssertionError("unreachable")


def _require_exec(run: PilotRun, what: str, callsite: CallSite) -> None:
    run.require_phase(Phase.EXEC, what, callsite)


def _require_writer(run: PilotRun, channel: PI_CHANNEL, what: str,
                    callsite: CallSite) -> None:
    state = run.rank_state()
    if state.rank != channel.writer.rank:
        run.check(perr.CHECK_API, False, "WRONG_ENDPOINT",
                  f"{what} on {channel.name} from rank {state.rank}, but its "
                  f"writing end is {channel.writer.name} "
                  f"(rank {channel.writer.rank})", callsite)


def _require_reader(run: PilotRun, channel: PI_CHANNEL, what: str,
                    callsite: CallSite) -> None:
    state = run.rank_state()
    if state.rank != channel.reader.rank:
        run.check(perr.CHECK_API, False, "WRONG_ENDPOINT",
                  f"{what} on {channel.name} from rank {state.rank}, but its "
                  f"reading end is {channel.reader.name} "
                  f"(rank {channel.reader.rank})", callsite)


def _require_common(run: PilotRun, bundle: PI_BUNDLE, usage: BundleUsage,
                    what: str, callsite: CallSite) -> None:
    state = run.rank_state()
    if bundle.usage is not usage:
        run.check(perr.CHECK_API, False, "WRONG_BUNDLE_USAGE",
                  f"{what} needs a {usage.value} bundle, but {bundle.name} "
                  f"was created for {bundle.usage.value}", callsite)
    if state.rank != bundle.common.rank:
        run.check(perr.CHECK_API, False, "WRONG_ENDPOINT",
                  f"{what} on {bundle.name} must be called by its common "
                  f"process {bundle.common.name} (rank {bundle.common.rank}), "
                  f"not rank {state.rank}", callsite)


# ---------------------------------------------------------------------------
# Point-to-point
# ---------------------------------------------------------------------------


def _send_parts(run: PilotRun, call: CallRecord, channel: PI_CHANNEL,
                items: Sequence[FormatItem], parts: list[list[WirePart]]) -> None:
    from repro.vmpi.datatypes import sizeof

    for item, partlist in zip(items, parts):
        for part in partlist:
            envelope = (_MARKER, channel.cid, item.signature(), part.payload,
                        part.note)
            run.comm.send(envelope, dest=channel.reader.rank, tag=channel.tag)
            run.hooks.on_send(call, channel.reader.rank, channel.tag,
                              sizeof(part.payload))
            run.hooks.on_bubble(
                call, f"Sent: {part.note} on {channel.name}")


def do_write(run: PilotRun, channel: PI_CHANNEL, fmt: str, args: tuple,
             callsite: CallSite) -> None:
    _require_exec(run, "PI_Write", callsite)
    if not isinstance(channel, PI_CHANNEL):
        run.check(perr.CHECK_API, False, "BAD_ARGUMENTS",
                  f"PI_Write needs a channel, got {type(channel).__name__}",
                  callsite)
    _require_writer(run, channel, "PI_Write", callsite)
    items = _parse_or_fail(run, fmt, callsite)
    parts = _encode_or_fail(run, items, args, callsite)
    call = make_call(run, "PI_Write", callsite, channel=channel)
    run.hooks.on_call_begin(call)
    run.charge_call()
    _send_parts(run, call, channel, items, parts)
    run.hooks.on_call_end(call)


def _recv_parts(run: PilotRun, call: CallRecord, channel: PI_CHANNEL,
                items: Sequence[FormatItem], callsite: CallSite) -> list[list[Any]]:
    """Receive one wire part per expected message, with L2 signature checks."""
    parts_per_item: list[list[Any]] = []
    for item in items:
        nparts = 2 if item.count == "^" else 1
        received: list[Any] = []
        for _ in range(nparts):
            envelope = run.comm.recv(source=channel.writer.rank, tag=channel.tag)
            marker, cid, sig, payload, note = envelope
            if marker != _MARKER or cid != channel.cid:  # pragma: no cover
                run.fail("INTERNAL", f"crossed wires on {channel.name}", callsite)
            if run.options.check_level >= perr.CHECK_FORMATS and sig != item.signature():
                run.fail(
                    "FORMAT_MISMATCH",
                    f"reader format item {item.signature()!r} does not match "
                    f"writer's {sig!r} on {channel.name}", callsite)
            received.append(payload)
            run.hooks.on_receive(call, channel.writer.rank, channel.tag,
                                 _payload_bytes(payload))
            run.hooks.on_bubble(call, f"Arrived: {note} on {channel.name}")
        parts_per_item.append(received)
    return parts_per_item


def _payload_bytes(payload: Any) -> int:
    from repro.vmpi.datatypes import sizeof

    return sizeof(payload)


def do_read(run: PilotRun, channel: PI_CHANNEL, fmt: str, args: tuple,
            callsite: CallSite) -> Any:
    _require_exec(run, "PI_Read", callsite)
    if not isinstance(channel, PI_CHANNEL):
        run.check(perr.CHECK_API, False, "BAD_ARGUMENTS",
                  f"PI_Read needs a channel, got {type(channel).__name__}",
                  callsite)
    _require_reader(run, channel, "PI_Read", callsite)
    items = _parse_or_fail(run, fmt, callsite)
    call = make_call(run, "PI_Read", callsite, channel=channel)
    run.hooks.on_call_begin(call)
    run.charge_call()
    run.hooks.on_block(call, [channel.writer.rank])
    parts = _recv_parts(run, call, channel, items, callsite)
    run.hooks.on_unblock(call)
    try:
        values = decode_read(items, args, parts)
    except FormatError as exc:
        run.fail("BAD_ARGUMENTS", str(exc), callsite)
        raise AssertionError("unreachable")
    run.hooks.on_call_end(call)
    return _unwrap(values)


def _unwrap(values: list[Any]) -> Any:
    return values[0] if len(values) == 1 else tuple(values)


# ---------------------------------------------------------------------------
# Collectives (common-end side; leaves use PI_Write / PI_Read)
# ---------------------------------------------------------------------------


def do_broadcast(run: PilotRun, bundle: PI_BUNDLE, fmt: str, args: tuple,
                 callsite: CallSite) -> None:
    _require_exec(run, "PI_Broadcast", callsite)
    _require_common(run, bundle, BundleUsage.BROADCAST, "PI_Broadcast", callsite)
    items = _parse_or_fail(run, fmt, callsite)
    parts = _encode_or_fail(run, items, args, callsite)
    call = make_call(run, "PI_Broadcast", callsite, bundle=bundle)
    run.hooks.on_call_begin(call)
    run.charge_call()
    for channel in bundle.channels:
        _send_parts(run, call, channel, items, parts)
    run.hooks.on_call_end(call)


def do_scatter(run: PilotRun, bundle: PI_BUNDLE, fmt: str, args: tuple,
               callsite: CallSite) -> None:
    _require_exec(run, "PI_Scatter", callsite)
    _require_common(run, bundle, BundleUsage.SCATTER, "PI_Scatter", callsite)
    items = _parse_or_fail(run, fmt, callsite)
    run.check(perr.CHECK_API, all(i.count != "^" for i in items), "BAD_FORMAT",
              "%^ auto-alloc is not meaningful in PI_Scatter", callsite)
    n = bundle.size
    call = make_call(run, "PI_Scatter", callsite, bundle=bundle)
    run.hooks.on_call_begin(call)
    run.charge_call()
    per_channel_args = _slice_scatter_args(run, items, args, n, callsite)
    for ci, channel in enumerate(bundle.channels):
        parts = _encode_or_fail(run, items, per_channel_args[ci], callsite)
        _send_parts(run, call, channel, items, parts)
    run.hooks.on_call_end(call)


def _slice_scatter_args(run: PilotRun, items: Sequence[FormatItem], args: tuple,
                        n: int, callsite: CallSite) -> list[tuple]:
    """Split the root's arguments into one argument tuple per channel.

    A scalar item consumes an N-element sequence (element i to channel
    i); a count-c array item consumes c*N elements (chunk i to channel
    i); a ``%*`` item's runtime count is the per-channel count.
    """
    per: list[list[Any]] = [[] for _ in range(n)]
    pos = 0
    for item in items:
        if item.count is None:
            seq = np.asarray(args[pos])
            pos += 1
            if len(seq) < n:
                run.fail("BAD_ARGUMENTS",
                         f"PI_Scatter scalar item needs {n} values, got {len(seq)}",
                         callsite)
            for i in range(n):
                per[i].append(seq[i])
        elif item.count == "*":
            count, seq = int(args[pos]), np.asarray(args[pos + 1])
            pos += 2
            if len(seq) < count * n:
                run.fail("BAD_ARGUMENTS",
                         f"PI_Scatter %*{item.type_code} needs {count * n} "
                         f"elements, got {len(seq)}", callsite)
            for i in range(n):
                per[i].extend([count, seq[i * count:(i + 1) * count]])
        else:
            c = int(item.count)
            seq = np.asarray(args[pos])
            pos += 1
            if len(seq) < c * n:
                run.fail("BAD_ARGUMENTS",
                         f"PI_Scatter %{c}{item.type_code} needs {c * n} "
                         f"elements, got {len(seq)}", callsite)
            for i in range(n):
                per[i].append(seq[i * c:(i + 1) * c])
    if pos != len(args):
        run.fail("BAD_ARGUMENTS",
                 f"PI_Scatter format consumes {pos} argument(s), got {len(args)}",
                 callsite)
    return [tuple(p) for p in per]


def do_gather(run: PilotRun, bundle: PI_BUNDLE, fmt: str, args: tuple,
              callsite: CallSite) -> Any:
    _require_exec(run, "PI_Gather", callsite)
    _require_common(run, bundle, BundleUsage.GATHER, "PI_Gather", callsite)
    items = _parse_or_fail(run, fmt, callsite)
    run.check(perr.CHECK_API, all(i.count != "^" for i in items), "BAD_FORMAT",
              "%^ auto-alloc is not meaningful in PI_Gather", callsite)
    call = make_call(run, "PI_Gather", callsite, bundle=bundle)
    run.hooks.on_call_begin(call)
    run.charge_call()
    run.hooks.on_block(call, [c.writer.rank for c in bundle.channels])
    per_channel: list[list[Any]] = []
    for channel in bundle.channels:
        parts = _recv_parts(run, call, channel, items, callsite)
        try:
            per_channel.append(decode_read(items, args, parts))
        except FormatError as exc:
            run.fail("BAD_ARGUMENTS", str(exc), callsite)
    run.hooks.on_unblock(call)
    run.hooks.on_call_end(call)
    # Concatenate per item across channels, preserving channel order.
    out: list[Any] = []
    for idx, item in enumerate(items):
        contributions = [vals[idx] for vals in per_channel]
        if item.count is None:
            out.append(np.asarray(contributions))
        else:
            out.append(np.concatenate([np.asarray(c) for c in contributions]))
    return _unwrap(out)


def do_reduce(run: PilotRun, bundle: PI_BUNDLE, fmt: str, args: tuple,
              callsite: CallSite) -> Any:
    _require_exec(run, "PI_Reduce", callsite)
    _require_common(run, bundle, BundleUsage.REDUCE, "PI_Reduce", callsite)
    items = _parse_or_fail(run, fmt, callsite, allow_ops=True)
    for item in items:
        if item.op is None:
            run.check(perr.CHECK_API, False, "BAD_FORMAT",
                      f"PI_Reduce format item {item.signature()!r} needs an "
                      "operator (one of + * < > & | ^)", callsite)
    call = make_call(run, "PI_Reduce", callsite, bundle=bundle)
    run.hooks.on_call_begin(call)
    run.charge_call()
    run.hooks.on_block(call, [c.writer.rank for c in bundle.channels])
    per_channel = []
    for channel in bundle.channels:
        parts = _recv_parts(run, call, channel, items, callsite)
        try:
            per_channel.append(decode_read(items, args, parts))
        except FormatError as exc:
            run.fail("BAD_ARGUMENTS", str(exc), callsite)
    run.hooks.on_unblock(call)
    run.hooks.on_call_end(call)
    out: list[Any] = []
    for idx, item in enumerate(items):
        # %^ is rejected by the parser here; %* returns count+array pairs
        # only for ^, so vals[idx] is directly the contribution.
        contributions = [vals[idx] for vals in per_channel]
        out.append(apply_reduce(item, contributions))
    return _unwrap(out)
