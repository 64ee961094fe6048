"""Diagnostic findings and the stable code catalogue.

Every problem any analysis pass reports is a :class:`Finding` with a
stable code from one registry: ``PCnnn`` (program analysis), ``TRnnn``
(trace linter), ``DFnnn`` (trace diff / fault localization) or
``MNnnn`` (MP net conformance), so CI scripts and tests can assert on
codes instead of message text.

The registry here is the *single source*: the ``pilotcheck codes``
listing, the SARIF rule table and :class:`Finding` validation are all
generated from it, so a code added in one place exists everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util.callsite import CallSite

#: Code families, keyed by prefix.
FAMILIES: dict[str, str] = {
    "PC": "static program analysis",
    "TR": "trace linter",
    "DF": "trace diff / fault localization",
    "MN": "MP net conformance",
}


@dataclass(frozen=True)
class CodeInfo:
    """One registry entry: what a diagnostic code means."""

    code: str
    meaning: str
    severity: str  # default severity: "error" | "warning"

    @property
    def family(self) -> str:
        return self.code[:2]

    @property
    def family_name(self) -> str:
        return FAMILIES.get(self.family, "unknown")


def _table(entries: dict[str, tuple[str, str]]) -> dict[str, CodeInfo]:
    return {code: CodeInfo(code, meaning, severity)
            for code, (meaning, severity) in entries.items()}


#: The one registry every surface generates from.
REGISTRY: dict[str, CodeInfo] = _table({
    "PC001": ("format-string mismatch between the write and read ends "
              "of a channel", "error"),
    "PC002": ("channel direction misuse (write to a read end, or a "
              "collective issued from a non-common end)", "error"),
    "PC003": ("potential deadlock cycle in the channel wait graph", "error"),
    "PC004": ("orphan channel: written but never read (or never-read "
              "bundle member)", "warning"),
    "PC005": ("process created but unreachable from PI_MAIN through "
              "any channel", "warning"),
    "TR001": ("non-monotone per-rank timestamps", "error"),
    "TR002": ("unmatched send/receive arrow half", "warning"),
    "TR003": ("causality violation: receive timestamped before its send",
              "warning"),
    "TR004": ("broken state nesting (end without start, interleaved or "
              "dangling states)", "warning"),
    "TR005": ("damaged or truncated log file", "error"),
    "TR006": ("RecoveryReport inconsistent with the salvaged log", "error"),
    "TR007": ("record references an undefined event id", "warning"),
    "TR008": ("block checksum mismatch: a CRC-framed CLOG2 block's "
              "stored CRC32 does not match its payload", "error"),
    "TR009": ("message-log delivery anomaly: duplicate delivery of a "
              "logged sequence number, an out-of-order sequence on a "
              "lane, or a recovery episode whose replay accounting "
              "disagrees with the journal's delivery log", "error"),
    "DF001": ("traces diverge structurally; the listed rank is the one "
              "most likely at fault (first divergence + blame "
              "propagation)", "error"),
    "DF002": ("events present in only one trace (missing/extra sends, "
              "receives or states on a rank's timeline)", "warning"),
    "DF003": ("same events on a rank, different order (reordered "
              "sends/receives or states)", "warning"),
    "DF004": ("matched message half with a different payload size, or "
              "events replaced wholesale at the same position", "warning"),
    "DF005": ("matched events shifted in virtual time beyond the "
              "comparison tolerance", "warning"),
    "DF006": ("partial alignment: a diff input was salvaged/truncated, "
              "so the comparison covers only the readable spans",
              "warning"),
    "DF007": ("rank recorded as crashed/recovered on exactly one side "
              "of the diff", "warning"),
    "MN001": ("phantom edge: the trace carries messages on a channel "
              "edge the static MP net does not predict", "error"),
    "MN002": ("unexercised edge: the static MP net predicts "
              "communication the trace never performs", "warning"),
    "MN003": ("multiplicity mismatch: observed message count on an "
              "edge differs from the statically proven count", "error"),
    "MN004": ("direction flip: messages observed flowing against the "
              "channel's declared writer->reader direction", "error"),
    "MN005": ("order divergence: a rank's observed send/receive "
              "sequence deviates from the statically predicted "
              "sequence", "error"),
})

#: Legacy view ``code -> (meaning, severity)``; kept because the SARIF
#: emitter and a fair amount of test code index it directly.
CODES: dict[str, tuple[str, str]] = {
    info.code: (info.meaning, info.severity) for info in REGISTRY.values()}


def codes_by_family() -> dict[str, list[CodeInfo]]:
    """Registry grouped by family prefix, codes sorted, for listings."""
    out: dict[str, list[CodeInfo]] = {}
    for code in sorted(REGISTRY):
        out.setdefault(REGISTRY[code].family, []).append(REGISTRY[code])
    return out


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by pilotcheck."""

    code: str
    message: str
    severity: str = "error"  # "error" | "warning"
    callsite: CallSite | None = None
    rank: int | None = None
    obj: str | None = None  # channel/process/bundle display name
    ranks: tuple[int, ...] = field(default=())  # PC003 cycle members
    # Character span inside the offending format string (from
    # FormatItem.pos / FormatError.pos); machine-readable twin of the
    # "at offset N" phrasing in the message.  SARIF regions reuse it.
    char_range: tuple[int, int] | None = None
    # Channel ids this finding is about: MN edge findings and PC003
    # cycles carry them so the net renderer can highlight the exact
    # edges (the deadlock <-> net-cycle cross-link).
    cids: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.code not in REGISTRY:
            raise ValueError(f"unknown diagnostic code {self.code!r}; "
                             "register it in repro.pilotcheck.findings")

    def render(self) -> str:
        parts = [self.code]
        if self.obj:
            parts.append(f"[{self.obj}]")
        parts.append(self.message)
        text = " ".join(parts)
        if self.callsite is not None:
            text += f"  ({self.callsite})"
        return text


def max_severity(findings: list[Finding]) -> str | None:
    """``"error"`` if any error finding, else ``"warning"``, else None."""
    if any(f.severity == "error" for f in findings):
        return "error"
    if findings:
        return "warning"
    return None


def render_findings(findings: list[Finding], *, header: str | None = None) -> str:
    lines = []
    if header is not None:
        lines.append(header)
    for f in findings:
        lines.append(f"  {f.severity.upper():7s} {f.render()}")
    return "\n".join(lines)
