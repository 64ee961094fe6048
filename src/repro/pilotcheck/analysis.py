"""The program-analysis pass: PC001-PC005 over a captured topology.

The analysis is deliberately *optimistic*: a finding is only reported
when every resolution needed to prove it succeeded.  Unresolvable
channel targets or format strings suppress the affected check (with a
note) rather than producing guesses — a linter for teaching code must
not cry wolf on correct programs.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

import networkx as nx

from repro.pilot.formats import signature
from repro.pilot.objects import BundleUsage, PI_CHANNEL
from repro.pilot.config import PilotConfig

from repro.pilotcheck.astwalk import (
    CommOp,
    RankOps,
    extract_main_ops,
    extract_worker_ops,
)
from repro.pilotcheck.capture import CapturedProgram, capture_program
from repro.pilotcheck.findings import Finding, render_findings
from repro.pilotcheck.valueflow import MAX_FLOW_PASSES, ChannelValues


@dataclass
class ProgramAnalysis:
    """Everything the analyzer learned about one Pilot program."""

    findings: list[Finding]
    notes: list[str]
    captured: CapturedProgram
    rank_ops: dict[int, RankOps] = field(default_factory=dict)
    flow: ChannelValues | None = None  # committed cross-process values
    flow_passes: int = 0  # extraction passes the fixpoint took

    @property
    def clean(self) -> bool:
        return not self.findings

    def by_code(self, code: str) -> list[Finding]:
        return [f for f in self.findings if f.code == code]

    def render(self) -> str:
        if self.clean:
            return "pilotcheck: no findings"
        return render_findings(
            self.findings,
            header=f"pilotcheck: {len(self.findings)} finding(s)")


def analyze_program(main: Callable[[list[str]], Any], nprocs: int,
                    argv: list[str] | tuple[str, ...] = (), *,
                    config: PilotConfig | None = None) -> ProgramAnalysis:
    """Capture ``main``'s topology and run every static check."""
    captured = capture_program(main, nprocs, argv, config=config)
    notes: list[str] = []
    if not captured.started:
        notes.append("main returned without calling PI_StartAll; "
                     "execution-phase checks skipped")
        return ProgramAnalysis([], notes, captured)

    # Interprocedural value-flow fixpoint: each pass re-extracts every
    # rank against the channel values the previous pass committed, so a
    # constant PI_Write on one rank resolves the matching PI_Read on
    # its peer.  Extraction is deterministic, so the store grows
    # monotonically up to its caps and the loop terminates.
    flow = ChannelValues()
    rank_ops: dict[int, RankOps] = {}
    for _ in range(MAX_FLOW_PASSES):
        flow.begin_pass()
        rank_ops = {0: extract_main_ops(captured, flow=flow)}
        for proc in captured.processes[1:]:
            rank_ops[proc.rank] = extract_worker_ops(proc, flow=flow)
        if not flow.commit_pass():
            break
    else:
        notes.append(f"value flow did not converge within "
                     f"{MAX_FLOW_PASSES} passes; remaining channel "
                     "values widened")
    for ro in rank_ops.values():
        notes.extend(ro.notes)

    findings: list[Finding] = []
    findings.extend(_check_direction(captured, rank_ops))
    findings.extend(_check_formats(captured, rank_ops, notes))
    findings.extend(_check_orphans(captured, rank_ops, notes))
    findings.extend(_check_reachability(captured))
    findings.extend(_check_deadlock(captured, rank_ops, notes))
    findings.sort(key=lambda f: (f.code, f.callsite.lineno if f.callsite
                                 else 0))
    return ProgramAnalysis(findings, notes, captured, rank_ops,
                           flow=flow, flow_passes=flow.passes)


def _chan_desc(chan: PI_CHANNEL) -> str:
    return (f"{chan.name} ({chan.writer.name} -> {chan.reader.name})")


# ---------------------------------------------------------------------------
# PC002: direction misuse
# ---------------------------------------------------------------------------


def _check_direction(captured: CapturedProgram,
                     rank_ops: dict[int, RankOps]) -> list[Finding]:
    findings = []
    for ro in rank_ops.values():
        for op in ro.ops:
            if op.channels is None:
                continue
            if op.kind in ("write", "read", "hasdata"):
                side = "writer" if op.kind == "write" else "reader"
                ends = {getattr(c, side).rank for c in op.channels}
                if op.rank not in ends:
                    chan = op.channels[0]
                    expected = sorted(ends)
                    verb = ("writes to" if op.kind == "write"
                            else "reads from")
                    findings.append(Finding(
                        "PC002",
                        f"rank {op.rank} {verb} a channel whose "
                        f"{side} end is rank"
                        f"{'s' if len(expected) > 1 else ''} "
                        f"{expected if len(expected) > 1 else expected[0]}"
                        f" — {op.func} from the wrong end",
                        callsite=op.callsite, rank=op.rank,
                        obj=_chan_desc(chan) if op.exact else chan.name))
            elif op.bundle is not None:
                common = op.bundle.common.rank
                usage = op.bundle.usage
                expected_kind = {
                    BundleUsage.BROADCAST: "broadcast",
                    BundleUsage.SCATTER: "scatter",
                    BundleUsage.GATHER: "gather",
                    BundleUsage.REDUCE: "reduce",
                    BundleUsage.SELECT: "select",
                }.get(usage)
                if op.rank != common:
                    findings.append(Finding(
                        "PC002",
                        f"rank {op.rank} issues {op.func} on a "
                        f"{usage.value} bundle whose common end is rank "
                        f"{common}",
                        callsite=op.callsite, rank=op.rank,
                        obj=op.bundle.name))
                elif (expected_kind is not None
                      and op.kind not in (expected_kind, "select",
                                          "tryselect")
                      and not (usage is BundleUsage.SELECT
                               and op.kind in ("select", "tryselect"))):
                    findings.append(Finding(
                        "PC002",
                        f"{op.func} issued on a {usage.value} bundle",
                        callsite=op.callsite, rank=op.rank,
                        obj=op.bundle.name))
    return findings


# ---------------------------------------------------------------------------
# PC001: format mismatches
# ---------------------------------------------------------------------------


def _op_write_channels(op: CommOp) -> list[PI_CHANNEL]:
    """Candidate channels this op deposits into, direction-filtered."""
    if op.channels is None:
        return []
    if op.kind == "write":
        return [c for c in op.channels if c.writer.rank == op.rank]
    if op.kind in ("broadcast", "scatter"):
        return list(op.channels) if (op.bundle is None
                                     or op.bundle.common.rank == op.rank) \
            else []
    return []


def _op_read_channels(op: CommOp) -> list[PI_CHANNEL]:
    """Candidate channels this op consumes from, direction-filtered."""
    if op.channels is None:
        return []
    if op.kind in ("read", "hasdata"):
        return [c for c in op.channels if c.reader.rank == op.rank]
    if op.kind in ("gather", "reduce", "select", "tryselect"):
        return list(op.channels) if (op.bundle is None
                                     or op.bundle.common.rank == op.rank) \
            else []
    return []


def _check_formats(captured: CapturedProgram, rank_ops: dict[int, RankOps],
                   notes: list[str]) -> list[Finding]:
    findings = []
    writes: dict[int, list[tuple[CommOp, str]]] = defaultdict(list)
    reads: dict[int, list[tuple[CommOp, str]]] = defaultdict(list)
    unknown_write_cids: set[int] = set()
    unknown_read_cids: set[int] = set()
    wildcard_write = wildcard_read = False

    for ro in rank_ops.values():
        if ro.opaque:
            # An opaque rank might touch any channel either way.
            wildcard_write = wildcard_read = True
        for op in ro.ops:
            if op.fmt_error is not None:
                pos = getattr(op.fmt_error, "pos", None)
                findings.append(Finding(
                    "PC001",
                    f"malformed format string passed to {op.func}: "
                    f"{op.fmt_error}",
                    callsite=op.callsite, rank=op.rank,
                    char_range=None if pos is None else (pos, pos + 1)))
                continue
            if op.kind == "write" and op.channels is None:
                wildcard_write = True
            if op.kind in ("read", "gather", "reduce") \
                    and op.channels is None:
                wildcard_read = True
            wchans = _op_write_channels(op)
            rchans = _op_read_channels(op)
            if op.kind in ("select", "tryselect", "hasdata"):
                continue  # no format
            sig = signature(op.items) if op.items is not None else None
            for c in wchans:
                if sig is None:
                    unknown_write_cids.add(c.cid)
                else:
                    writes[c.cid].append((op, sig))
            for c in rchans:
                if sig is None:
                    unknown_read_cids.add(c.cid)
                else:
                    reads[c.cid].append((op, sig))

    if wildcard_write or wildcard_read:
        notes.append("some communication targets were unresolvable; "
                     "PC001 format matching skipped")
        return findings

    for chan in captured.channels:
        cid = chan.cid
        if cid in unknown_write_cids or cid in unknown_read_cids:
            continue
        wsigs = {s for _, s in writes.get(cid, [])}
        rsigs = {s for _, s in reads.get(cid, [])}
        if not wsigs or not rsigs or wsigs & rsigs:
            continue
        wop, wsig = writes[cid][0]
        rop, rsig = reads[cid][0]
        detail, span = _mismatch_detail(wop, rop)
        findings.append(Finding(
            "PC001",
            f"write end sends {sorted(wsigs)} but read end expects "
            f"{sorted(rsigs)} — no format in common{detail}; "
            f"write at {wop.callsite}, read at {rop.callsite}",
            callsite=rop.callsite, obj=_chan_desc(chan), char_range=span))
    return findings


def _mismatch_detail(wop: CommOp,
                     rop: CommOp) -> tuple[str, tuple[int, int] | None]:
    """Pinpoint the first differing conversion using parse offsets.

    Returns the human-readable detail plus the character span of the
    offending item in the *read* format string (the finding's anchor),
    so SARIF output can point at the exact conversion.
    """
    if not wop.items or not rop.items:
        return "", None
    for wi, ri in zip(wop.items, rop.items):
        if wi.signature() != ri.signature():
            text = (f" (first mismatch: wrote %{wi.signature()} at offset "
                    f"{wi.pos} of {wop.fmt!r}, read %{ri.signature()} at "
                    f"offset {ri.pos} of {rop.fmt!r})")
            return text, (ri.pos, ri.pos + len(ri.signature()))
    shorter = "write" if len(wop.items) < len(rop.items) else "read"
    longer_items = (rop.items if shorter == "write" else wop.items)
    extra = longer_items[min(len(wop.items), len(rop.items))]
    text = (f" (the {shorter} format ends before the %{extra.signature()} "
            f"item at offset {extra.pos})")
    return text, (extra.pos, extra.pos + len(extra.signature()))


# ---------------------------------------------------------------------------
# PC004: orphan channels
# ---------------------------------------------------------------------------


def _check_orphans(captured: CapturedProgram, rank_ops: dict[int, RankOps],
                   notes: list[str]) -> list[Finding]:
    written: dict[int, CommOp] = {}
    read_cids: set[int] = set()
    for ro in rank_ops.values():
        if ro.opaque:
            notes.append("opaque rank present; PC004 orphan detection "
                         "skipped")
            return []
        for op in ro.ops:
            if op.channels is None and (op.is_write or op.is_read
                                        or op.kind in ("select", "tryselect",
                                                       "hasdata")):
                notes.append("unresolvable communication target; PC004 "
                             "orphan detection skipped")
                return []
            for c in _op_write_channels(op):
                written.setdefault(c.cid, op)
            for c in _op_read_channels(op):
                read_cids.add(c.cid)
    findings = []
    for chan in captured.channels:
        if chan.cid in written and chan.cid not in read_cids:
            op = written[chan.cid]
            site = captured.channel_sites.get(chan.cid)
            findings.append(Finding(
                "PC004",
                f"written (e.g. {op.func} at {op.callsite}) but no rank "
                "ever reads it"
                + (f"; created at {site}" if site else ""),
                severity="warning", callsite=op.callsite,
                obj=_chan_desc(chan)))
    return findings


# ---------------------------------------------------------------------------
# PC005: unreachable processes
# ---------------------------------------------------------------------------


def _check_reachability(captured: CapturedProgram) -> list[Finding]:
    graph = nx.Graph()
    graph.add_nodes_from(p.rank for p in captured.processes)
    for chan in captured.channels:
        graph.add_edge(chan.writer.rank, chan.reader.rank)
    reachable = nx.node_connected_component(graph, 0) if graph.has_node(0) \
        else {0}
    findings = []
    for proc in captured.processes[1:]:
        if proc.rank not in reachable:
            site = captured.process_sites.get(proc.rank)
            findings.append(Finding(
                "PC005",
                "no channel path connects it to PI_MAIN — the process "
                "can neither receive work nor report results",
                severity="warning", callsite=site, rank=proc.rank,
                obj=proc.name))
    return findings


# ---------------------------------------------------------------------------
# PC003: potential deadlock cycles (abstract token simulation)
# ---------------------------------------------------------------------------


def _check_deadlock(captured: CapturedProgram, rank_ops: dict[int, RankOps],
                    notes: list[str]) -> list[Finding]:
    if any(ro.opaque for ro in rank_ops.values()):
        notes.append("opaque rank present; PC003 deadlock simulation "
                     "skipped")
        return []
    for ro in rank_ops.values():
        for op in ro.ops:
            if op.channels is None:
                notes.append("unresolvable communication target; PC003 "
                             "deadlock simulation skipped")
                return []

    tokens: dict[int, int] = defaultdict(int)
    cursor = {rank: 0 for rank in rank_ops}
    ops = {rank: ro.ops for rank, ro in rank_ops.items()}
    blocked_on: dict[int, CommOp] = {}

    def try_step(rank: int) -> bool:
        op = ops[rank][cursor[rank]]
        wchans = _op_write_channels(op)
        rchans = _op_read_channels(op)
        if op.is_write:
            # Optimistic: a possible-set write feeds every candidate.
            for c in wchans:
                tokens[c.cid] += 1
            return True
        if op.kind == "read":
            avail = [c for c in rchans if tokens[c.cid] > 0]
            if not rchans:  # direction bug (PC002 reports it); skip
                return True
            if not op.exact:
                # A possible-set read may pick any ready candidate.
                if avail:
                    tokens[avail[0].cid] -= 1
                    return True
                return False
            chan = rchans[0]
            if tokens[chan.cid] > 0:
                tokens[chan.cid] -= 1
                return True
            return False
        if op.kind in ("gather", "reduce"):
            if not rchans:
                return True
            if all(tokens[c.cid] > 0 for c in rchans):
                for c in rchans:
                    tokens[c.cid] -= 1
                return True
            return False
        if op.kind == "select":
            if not rchans:
                return True
            return any(tokens[c.cid] > 0 for c in rchans)
        return True  # tryselect / hasdata never block

    progress = True
    while progress:
        progress = False
        for rank in sorted(ops):
            while cursor[rank] < len(ops[rank]):
                if try_step(rank):
                    cursor[rank] += 1
                    progress = True
                else:
                    break

    blocked_on = {rank: ops[rank][cursor[rank]]
                  for rank in ops if cursor[rank] < len(ops[rank])}
    if not blocked_on:
        return []

    wait = nx.DiGraph()
    wait.add_nodes_from(blocked_on)
    for rank, op in blocked_on.items():
        waited = _op_read_channels(op)
        if op.kind == "read" and not op.exact:
            waited = [c for c in waited if tokens[c.cid] == 0]
        for c in waited:
            if c.writer.rank in blocked_on and c.writer.rank != rank:
                wait.add_edge(rank, c.writer.rank, channel=c)

    findings = []
    seen: set[frozenset] = set()
    for cycle in nx.simple_cycles(wait):
        key = frozenset(cycle)
        if key in seen:
            continue
        seen.add(key)
        names = {p.rank: p.name for p in captured.processes}
        legs = []
        cycle_cids = []
        for i, rank in enumerate(cycle):
            op = blocked_on[rank]
            legs.append(f"rank {rank} ({names.get(rank, f'P{rank}')}) "
                        f"blocked in {op.func} at {op.callsite}")
            edge = wait.get_edge_data(rank, cycle[(i + 1) % len(cycle)])
            if edge is not None:
                cycle_cids.append(edge["channel"].cid)
        cids = tuple(sorted(set(cycle_cids)))
        via = (" (cycle runs through channel"
               f"{'s' if len(cids) > 1 else ''} "
               + ", ".join(f"C{c}" for c in cids) + ")") if cids else ""
        findings.append(Finding(
            "PC003",
            f"circular wait among ranks {sorted(cycle)}: "
            + "; ".join(legs) + via,
            ranks=tuple(sorted(cycle)),
            cids=cids,
            callsite=blocked_on[cycle[0]].callsite))
        if len(findings) >= 5:
            notes.append("more deadlock cycles exist; reporting the "
                         "first 5")
            break
    return findings
