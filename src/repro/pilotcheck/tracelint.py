"""The trace linter: machine-check CLOG2/SLOG2 invariants.

``pilotcheck lint-trace`` validates what the log pipeline *promises*:
per-rank timestamps never run backwards (TR001), every send half has a
receive half and vice versa (TR002), receives never precede their sends
(TR003), state halves nest properly (TR004), the file itself is intact
(TR005), CRC-framed blocks checksum clean (TR008), and — for salvaged
logs — the :class:`RecoveryReport` actually accounts for the records
that survived (TR006).  The pairing rules
mirror :mod:`repro.slog2.convert` exactly, so a log that lints clean
converts clean.

Journal directories add TR009 over their delivery log (the rank WALs,
which are also message-logging recovery's determinants): no lane may
show the same sequence number delivered twice (a replay double-delivery
or a failed duplicate-send suppression), sequence regressions are
flagged (legitimate only under fault-injected reordering), and each
:class:`RecoveryReport` episode's replay accounting is cross-checked
against the deliveries that actually exist before its crash time.
"""

from __future__ import annotations

import os
from collections import defaultdict, deque

from repro.mpe.clog2 import (
    Clog2ChecksumError,
    Clog2File,
    Clog2FormatError,
    read_log,
)
from repro.mpe.records import RECV, SEND, BareEvent, EventDef, MsgEvent, StateDef
from repro.pilotcheck.findings import Finding

_MAX_PER_CODE = 8  # cap repeated findings of one code per file


def _capped(findings: list[Finding]) -> list[Finding]:
    by_code: dict[str, int] = defaultdict(int)
    out = []
    dropped: dict[str, int] = defaultdict(int)
    for f in findings:
        by_code[f.code] += 1
        if by_code[f.code] <= _MAX_PER_CODE:
            out.append(f)
        else:
            dropped[f.code] += 1
    for code, n in dropped.items():
        out.append(Finding(code, f"... and {n} more {code} finding(s) "
                           "suppressed", severity="warning"))
    return out


# ---------------------------------------------------------------------------
# CLOG2
# ---------------------------------------------------------------------------


def lint_clog2_records(log: Clog2File, *,
                       crashed_ranks: dict[int, float | None] | None = None
                       ) -> list[Finding]:
    """Record-level invariants of an in-memory CLOG2 log."""
    findings: list[Finding] = []
    crashed = crashed_ranks or {}

    # TR001: monotone per-rank timestamps (records are kept in file
    # order, which the writer emits per rank in causal order).
    last_t: dict[int, float] = {}
    for rec in log.records:
        prev = last_t.get(rec.rank)
        if prev is not None and rec.timestamp < prev:
            findings.append(Finding(
                "TR001",
                f"rank {rec.rank}: timestamp runs backwards "
                f"({rec.timestamp:.9f} after {prev:.9f})"))
        last_t[rec.rank] = max(prev, rec.timestamp) \
            if prev is not None else rec.timestamp

    # Definitions index.
    start_of: dict[int, StateDef] = {}
    end_of: dict[int, StateDef] = {}
    event_ids: set[int] = set()
    for d in log.definitions:
        if isinstance(d, StateDef):
            start_of[d.start_id] = d
            end_of[d.end_id] = d
        elif isinstance(d, EventDef):
            event_ids.add(d.event_id)

    # TR002/TR003: FIFO send/recv pairing, exactly as convert.py pairs
    # arrows.
    pending_sends: dict[tuple[int, int, int], deque[MsgEvent]] = \
        defaultdict(deque)
    pending_recvs: dict[tuple[int, int, int], deque[MsgEvent]] = \
        defaultdict(deque)
    for rec in log.records:
        if not isinstance(rec, MsgEvent):
            continue
        if rec.kind == SEND:
            key = (rec.rank, rec.other_rank, rec.tag)
            if pending_recvs[key]:
                recv = pending_recvs[key].popleft()
                if recv.timestamp < rec.timestamp:
                    findings.append(Finding(
                        "TR003",
                        f"message {rec.rank}->{rec.other_rank} tag "
                        f"{rec.tag}: received at {recv.timestamp:.9f} "
                        f"before it was sent at {rec.timestamp:.9f}"))
            else:
                pending_sends[key].append(rec)
        elif rec.kind == RECV:
            key = (rec.other_rank, rec.rank, rec.tag)
            if pending_sends[key]:
                send = pending_sends[key].popleft()
                if rec.timestamp < send.timestamp:
                    findings.append(Finding(
                        "TR003",
                        f"message {send.rank}->{rec.rank} tag {rec.tag}: "
                        f"received at {rec.timestamp:.9f} before it was "
                        f"sent at {send.timestamp:.9f}"))
            else:
                pending_recvs[key].append(rec)
    for key, sends in pending_sends.items():
        if sends:
            src, dst, tag = key
            sev = "warning" if (src in crashed or dst in crashed) else \
                "warning"
            findings.append(Finding(
                "TR002",
                f"{len(sends)} send(s) {src}->{dst} tag {tag} have no "
                "matching receive", severity=sev))
    for key, recvs in pending_recvs.items():
        if recvs:
            src, dst, tag = key
            findings.append(Finding(
                "TR002",
                f"{len(recvs)} receive(s) {src}->{dst} tag {tag} have "
                "no matching send", severity="warning"))

    # TR004/TR007: state nesting per rank.  Recovery-interval drawables
    # (reserved-band ids injected by repro.mpe.recovery_marks) are an
    # overlay spanning the replayed window: they legitimately straddle
    # ordinary state boundaries, so they are exempt from nesting.
    from repro.mpe.recovery_marks import RESERVED_EVENT_IDS

    stacks: dict[int, list[StateDef]] = defaultdict(list)
    for rec in log.records:
        if not isinstance(rec, BareEvent):
            continue
        eid = rec.event_id
        if eid in RESERVED_EVENT_IDS:
            continue
        if eid in start_of:
            stacks[rec.rank].append(start_of[eid])
        elif eid in end_of:
            stack = stacks[rec.rank]
            sdef = end_of[eid]
            if stack and stack[-1] is sdef:
                stack.pop()
            elif sdef in stack:
                findings.append(Finding(
                    "TR004",
                    f"rank {rec.rank}: state {sdef.name!r} ends while "
                    f"{stack[-1].name!r} is still open (improper "
                    "nesting)"))
                stack.remove(sdef)
            else:
                findings.append(Finding(
                    "TR004",
                    f"rank {rec.rank}: end of state {sdef.name!r} "
                    "without a matching start"))
        elif eid not in event_ids:
            findings.append(Finding(
                "TR007",
                f"rank {rec.rank}: record references undefined event "
                f"id {eid}", severity="warning"))
    for rank, stack in stacks.items():
        if stack:
            names = ", ".join(s.name for s in stack)
            findings.append(Finding(
                "TR004",
                f"rank {rank}: {len(stack)} state(s) never closed "
                f"({names})",
                severity="warning"))
    return _capped(findings)


def lint_recovery(log: Clog2File, report) -> list[Finding]:
    """TR005/TR006/TR008: the salvage accounting matches the salvaged
    log.  Checksum-failing blocks (version-2 CRC framing) get their own
    code — present-but-wrong bytes are a different failure class from
    torn tails, and the fsck repair policy treats them differently."""
    findings: list[Finding] = []
    for rng in report.dropped_ranges:
        code = ("TR008" if "checksum mismatch" in rng.reason.lower()
                else "TR005")
        findings.append(Finding(
            code,
            f"{rng.source}: bytes {rng.start}..{rng.end} dropped "
            f"({rng.reason})"))
    ranks_present = {rec.rank for rec in log.records}
    for rank in report.missing_ranks:
        if rank in ranks_present:
            findings.append(Finding(
                "TR006",
                f"rank {rank} is reported missing but the log contains "
                "its records"))
    for rank, crash_time in report.crashed_ranks.items():
        if crash_time is None:
            continue
        margin = max(1e-3, 0.05 * abs(crash_time))
        late = [rec for rec in log.records
                if rec.rank == rank and rec.timestamp > crash_time + margin]
        if late:
            findings.append(Finding(
                "TR006",
                f"rank {rank} reportedly crashed at {crash_time:.6f} but "
                f"{len(late)} of its records are timestamped later "
                f"(first at {late[0].timestamp:.6f})"))
    if report.records_kept < len(log.records):
        findings.append(Finding(
            "TR006",
            f"report accounts for {report.records_kept} kept records "
            f"but the log carries {len(log.records)}"))
    return _capped(findings)


def lint_clog2(path: str) -> list[Finding]:
    """Lint a CLOG2 file on disk, strict first, salvaging on damage."""
    findings: list[Finding] = []
    crashed: dict[int, float | None] = {}
    try:
        log = read_log(path).log
    except FileNotFoundError:
        return [Finding("TR005", f"{path}: no such file")]
    except Clog2FormatError as exc:
        code = "TR008" if isinstance(exc, Clog2ChecksumError) else "TR005"
        findings.append(Finding(
            code,
            f"strict parse failed ({exc}); file is damaged or truncated"))
        log, report = read_log(path, errors="salvage")
        findings.extend(lint_recovery(log, report))
        crashed = dict(report.crashed_ranks)
    findings.extend(lint_clog2_records(log, crashed_ranks=crashed))
    return findings


# ---------------------------------------------------------------------------
# journal delivery log (TR009)
# ---------------------------------------------------------------------------


def lint_determinants(deliveries, report=None) -> list[Finding]:
    """TR009: sanity of a run's delivery stream.

    ``deliveries`` are the journal's ``K_DELIVER`` records (dicts with
    world-rank ``src``/``dest``, ``ctx``, ``seq``, ``t``), each rank's
    in delivery order.  Three checks:

    * *duplicate delivery* — the same ``(src, dest, ctx, seq)``
      delivered twice.  Never legitimate: replayed routings bypass
      determinant logging, so a duplicate means replay double-delivered
      or duplicate-send suppression failed.  Error.
    * *sequence regression* — a lane delivers a seq below one it
      already delivered.  Legitimate only under fault-injected message
      reordering, so it is a warning (an excusing note is added when
      the run recovered ranks in between).
    * *episode accounting* — a :class:`RecoveryReport` episode must not
      claim more replayed deliveries than the journal actually holds
      for that rank before its crash time.  Error.
    """
    findings: list[Finding] = []
    episodes = list(getattr(report, "recoveries", []) or [])
    recovered = {int(ep["rank"]) for ep in episodes}
    seen: dict[tuple[int, int, int], set[int]] = defaultdict(set)
    high: dict[tuple[int, int, int], int] = {}
    for d in deliveries:
        src, dest, ctx, seq = d["src"], d["dest"], d["ctx"], d["seq"]
        lane = (src, dest, ctx)
        if seq in seen[lane]:
            msg = (f"lane {src}->{dest} ctx {ctx}: seq {seq} "
                   f"delivered twice (t={d['t']:.9f})")
            if dest in recovered:
                msg += (f" — rank {dest} was recovered in-run; replay "
                        "double-delivery or failed send suppression")
            findings.append(Finding("TR009", msg))
        else:
            seen[lane].add(seq)
        h = high.get(lane)
        if h is not None and seq < h:
            findings.append(Finding(
                "TR009",
                f"lane {src}->{dest} ctx {ctx}: seq {seq} "
                f"delivered after seq {h} (out of order; fault-injected "
                "reordering, or replay misordering)", severity="warning"))
        high[lane] = seq if h is None else max(h, seq)
    for ep in episodes:
        rank = int(ep["rank"])
        crash = float(ep["crash_time"])
        claimed = int(ep.get("determinants_replayed", 0))
        avail = sum(1 for d in deliveries
                    if d["dest"] == rank and d["t"] <= crash + 1e-12)
        if claimed > avail:
            findings.append(Finding(
                "TR009",
                f"recovery episode for rank {rank} claims {claimed} "
                f"replayed deliveries but the journal holds only "
                f"{avail} before its crash at {crash:.6f}"))
    return _capped(findings)


def lint_journal(journal_dir: str, report=None) -> list[Finding]:
    """Lint a journal directory's delivery log on disk.

    Each ``rankNNNN.wal`` loads through
    :func:`repro.vmpi.journal.read_wal`; a torn tail is a TR005
    warning (the valid prefix still counts), and TR009 runs over the
    ``K_DELIVER`` records of every rank.
    """
    from repro.vmpi.journal import K_DELIVER, MANIFEST_NAME, read_wal

    if not os.path.exists(os.path.join(journal_dir, MANIFEST_NAME)):
        return [Finding("TR005", f"{journal_dir}: no {MANIFEST_NAME}; "
                        "not a journal directory")]
    findings: list[Finding] = []
    deliveries: list[dict] = []
    for name in sorted(os.listdir(journal_dir)):
        if not (name.startswith("rank") and name.endswith(".wal")):
            continue
        path = os.path.join(journal_dir, name)
        entries, torn = read_wal(path)
        if torn:
            findings.append(Finding(
                "TR005", f"{path}: {torn} torn byte(s) at the tail",
                severity="warning"))
        deliveries.extend(e.data for e in entries if e.kind == K_DELIVER)
    findings.extend(lint_determinants(deliveries, report))
    return findings


# ---------------------------------------------------------------------------
# SLOG2
# ---------------------------------------------------------------------------


def lint_slog2_doc(doc) -> list[Finding]:
    """Drawable-level invariants of an in-memory SLOG2 document."""
    findings: list[Finding] = []
    ncats = len(doc.categories)
    for state in doc.states:
        if state.end < state.start:
            findings.append(Finding(
                "TR001",
                f"rank {state.rank}: state runs backwards "
                f"({state.start:.9f} -> {state.end:.9f})"))
        if not 0 <= state.category < ncats:
            findings.append(Finding(
                "TR005",
                f"state references undefined category {state.category}"))
    for arrow in doc.arrows:
        if arrow.end < arrow.start:
            findings.append(Finding(
                "TR003",
                f"arrow {arrow.src_rank}->{arrow.dst_rank} tag "
                f"{arrow.tag}: received at {arrow.end:.9f} before sent "
                f"at {arrow.start:.9f}", severity="warning"))
        if not 0 <= arrow.category < ncats:
            findings.append(Finding(
                "TR005",
                f"arrow references undefined category {arrow.category}"))
    for event in doc.events:
        if not 0 <= event.category < ncats:
            findings.append(Finding(
                "TR005",
                f"event references undefined category {event.category}"))
    max_rank = max((d.rank for d in (*doc.states, *doc.events)),
                   default=-1)
    max_rank = max(max_rank,
                   max((max(a.src_rank, a.dst_rank) for a in doc.arrows),
                       default=-1))
    if max_rank >= doc.num_ranks:
        findings.append(Finding(
            "TR005",
            f"drawables reference rank {max_rank} but the document "
            f"declares only {doc.num_ranks} ranks", severity="warning"))
    return _capped(findings)


def lint_slog2(path: str) -> list[Finding]:
    from repro.slog2.file import Slog2FormatError, read_slog2

    try:
        doc = read_slog2(path)
    except FileNotFoundError:
        return [Finding("TR005", f"{path}: no such file")]
    except Slog2FormatError as exc:
        return [Finding("TR005", f"strict parse failed ({exc}); file is "
                        "damaged or truncated")]
    return lint_slog2_doc(doc)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def lint_path(path: str) -> list[Finding]:
    """Lint any supported trace file, sniffing the format by magic, or
    a journal directory (one holding ``manifest.json``)."""
    if not os.path.exists(path):
        return [Finding("TR005", f"{path}: no such file")]
    if os.path.isdir(path):
        return lint_journal(path)
    with open(path, "rb") as fh:
        magic = fh.read(8)
    if magic == b"CLOG2PY1":
        return lint_clog2(path)
    if magic == b"SLOG2PY1":
        return lint_slog2(path)
    if magic == b"CLOGPARA":
        from repro.mpe.salvage import read_partial_log

        partial, report = read_partial_log(path, errors="salvage")
        assert report is not None
        findings = [Finding(
            "TR005",
            f"{rng.source}: bytes {rng.start}..{rng.end} dropped "
            f"({rng.reason})") for rng in report.dropped_ranges]
        if partial.rank < 0:
            findings.append(Finding(
                "TR005", f"{path}: partial log unrecoverable"))
        return findings
    # A truncated file may not even carry its magic.
    if b"CLOG2PY1".startswith(magic) or b"SLOG2PY1".startswith(magic):
        return [Finding("TR005",
                        f"{path}: truncated before the end of the magic "
                        f"({len(magic)} bytes)")]
    return [Finding("TR005",
                    f"{path}: unrecognised trace format "
                    f"(magic {magic!r})")]
