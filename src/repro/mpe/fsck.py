"""``fsck`` for the log pipeline's on-disk artifacts.

``python -m repro.mpe fsck <file>`` scans a CLOG2 file (version 1 or
the CRC-framed version 2) or a salvage partial, verifies it, and
reports every damaged byte range with a classification:

``checksum``
    a version-2 block whose CRC32 does not match its payload — the
    bytes are present but wrong;
``truncation``
    the file ends mid-item, mid-block, or before its header — the
    classic kill-mid-write artifact, repairable by dropping the tail;
``corruption``
    an unparseable span inside a version-1 body (no framing, so the
    tolerant resync scan bounds it as tightly as it can).

With ``--repair OUT`` the surviving items are re-emitted as a clean
log of the same format (a repaired version-2 input stays checksummed);
with ``--quarantine OUT`` the damaged byte spans are copied verbatim
to a sidecar for post-mortem analysis before anyone overwrites them.
``--json`` prints the full :class:`FsckReport` machine-readably — the
chaos CI jobs archive these.

The scan itself is the salvage reader
(:func:`repro.mpe.clog2.read_log` with ``errors="salvage"``), so fsck
can never disagree with what the pipeline's own recovery path would
keep: the report is the :class:`~repro.mpe.recovery.RecoveryReport`,
re-cut by damage kind.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field

from repro._util.retry import RetryPolicy
from repro.mpe.clog2 import (
    _HDR,
    Clog2File,
    read_header,
    read_log,
    write_clog2,
)
from repro.mpe.recovery import RecoveryReport
from repro.perf import NO_PERF, PerfRecorder

#: How a damaged range is classified, by matching its drop reason.
KIND_CHECKSUM = "checksum"
KIND_TRUNCATION = "truncation"
KIND_CORRUPTION = "corruption"

_TRUNCATION_MARKERS = ("truncat", "too short", "torn")


def classify_reason(reason: str) -> str:
    """Map a :class:`DroppedRange` reason onto an fsck damage kind."""
    low = reason.lower()
    if "checksum mismatch" in low:
        return KIND_CHECKSUM
    if any(marker in low for marker in _TRUNCATION_MARKERS):
        return KIND_TRUNCATION
    return KIND_CORRUPTION


@dataclass(frozen=True)
class FsckIssue:
    """One damaged byte range, classified."""

    source: str
    start: int
    end: int
    kind: str
    reason: str

    @property
    def nbytes(self) -> int:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"source": self.source, "start": self.start, "end": self.end,
                "nbytes": self.nbytes, "kind": self.kind,
                "reason": self.reason}

    def __str__(self) -> str:
        return (f"[{self.kind}] {self.source}[{self.start}:{self.end}] "
                f"({self.nbytes} bytes): {self.reason}")


@dataclass
class FsckReport:
    """Everything one fsck pass found (and did)."""

    path: str
    format: str  # "clog2" | "clog2-checksummed" | "partial" | "unknown"
    records_kept: int = 0
    records_dropped: int = 0
    issues: list[FsckIssue] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    repaired_to: str | None = None
    quarantined_to: str | None = None

    @property
    def clean(self) -> bool:
        return not self.issues

    @property
    def bytes_damaged(self) -> int:
        return sum(i.nbytes for i in self.issues)

    @property
    def truncation_only(self) -> bool:
        """All damage is torn tails — nothing inside the kept prefix is
        suspect, so a repair loses only what the kill already lost."""
        return bool(self.issues) and all(
            i.kind == KIND_TRUNCATION for i in self.issues)

    def kinds(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for i in self.issues:
            out[i.kind] = out.get(i.kind, 0) + 1
        return out

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "format": self.format,
            "clean": self.clean,
            "records_kept": self.records_kept,
            "records_dropped": self.records_dropped,
            "bytes_damaged": self.bytes_damaged,
            "truncation_only": self.truncation_only,
            "issues": [i.as_dict() for i in self.issues],
            "notes": list(self.notes),
            "repaired_to": self.repaired_to,
            "quarantined_to": self.quarantined_to,
        }

    def summary(self) -> str:
        if self.clean:
            return (f"{self.path}: clean ({self.format}, "
                    f"{self.records_kept} records)")
        kinds = ", ".join(f"{n} {k}" for k, n in sorted(self.kinds().items()))
        return (f"{self.path}: {len(self.issues)} issue(s) [{kinds}], "
                f"kept {self.records_kept} records, "
                f"dropped {self.records_dropped}, "
                f"{self.bytes_damaged} bytes damaged")


def _issues_from(report: RecoveryReport) -> list[FsckIssue]:
    return [FsckIssue(r.source, r.start, r.end, classify_reason(r.reason),
                      r.reason)
            for r in report.dropped_ranges]


def _sniff(path: str) -> tuple[str, int]:
    """(format, header version) by magic; version 0 when not CLOG2."""
    with open(path, "rb") as fh:
        head = fh.read(_HDR.size)
    if head[:8] == b"CLOG2PY1":
        try:
            header = read_header(io.BytesIO(head))
        except Exception:
            return "clog2", 1
        return ("clog2-checksummed" if header.checksummed else "clog2",
                header.version)
    if head[:8] == b"CLOGPARA":
        return "partial", 0
    return "unknown", 0


#: Policy for the quarantine re-read of the damaged source: the scan
#: just read this file, so a failure here is transient (another process
#: rotating it, a flaky network mount) and worth a few backed-off
#: retries before fsck gives up on preserving the evidence.
QUARANTINE_RETRY = RetryPolicy(deadline=1.0, initial=0.02, max_delay=0.25)


def _quarantine(path: str, issues: list[FsckIssue], out_path: str) -> None:
    """Copy every damaged span verbatim to a sidecar file.

    Layout: for each span, an ASCII line ``source start end reason\\n``
    followed by the raw bytes — greppable provenance, exact payloads.
    """
    def reread() -> bytes:
        with open(path, "rb") as src:
            return src.read()

    data = QUARANTINE_RETRY.call(reread,
                                 describe=f"re-reading {path} to quarantine")
    with open(out_path, "wb") as out:
        for issue in issues:
            head = (f"{issue.source} {issue.start} {issue.end} "
                    f"{issue.reason}\n")
            out.write(head.encode("utf-8"))
            out.write(data[issue.start:issue.end])
            out.write(b"\n")


def fsck_path(path: str, *, repair_to: str | None = None,
              quarantine_to: str | None = None,
              perf: PerfRecorder = NO_PERF) -> FsckReport:
    """Scan (and optionally repair) one log file; see the module
    docstring.  Never raises on damage — a file fsck cannot even
    identify comes back as ``format="unknown"`` with one issue."""
    with perf.stage("fsck-scan"):
        report = _scan(path, perf)
    if quarantine_to is not None and report.issues:
        _quarantine(path, report.issues, quarantine_to)
        report.quarantined_to = quarantine_to
    if repair_to is not None and report.format != "unknown":
        with perf.stage("fsck-repair"):
            _repair(path, report, repair_to)
        report.repaired_to = repair_to
    return report


def _scan(path: str, perf: PerfRecorder) -> FsckReport:
    if not os.path.exists(path):
        report = FsckReport(path=path, format="unknown")
        report.issues.append(FsckIssue(os.path.basename(path), 0, 0,
                                       KIND_TRUNCATION, "no such file"))
        return report
    size = os.path.getsize(path)
    fmt, _version = _sniff(path)
    source = os.path.basename(path)
    if fmt == "unknown":
        report = FsckReport(path=path, format=fmt)
        report.issues.append(FsckIssue(
            source, 0, size, KIND_CORRUPTION,
            "unrecognised trace format (bad or truncated magic)"))
        return report
    if fmt == "partial":
        from repro.mpe.salvage import read_partial_log

        partial, recovery = read_partial_log(path, errors="salvage")
        assert recovery is not None
        report = FsckReport(path=path, format=fmt,
                            records_kept=len(partial.records),
                            records_dropped=recovery.records_dropped,
                            issues=_issues_from(recovery),
                            notes=list(recovery.notes))
        if partial.rank < 0:
            report.issues.append(FsckIssue(
                source, 0, size, KIND_CORRUPTION,
                "partial log unrecoverable (no readable header)"))
        perf.count("fsck-scan", records=len(partial.records), bytes=size)
        return report
    log, recovery = read_log(path, errors="salvage")
    assert recovery is not None
    report = FsckReport(path=path, format=fmt,
                        records_kept=len(log.records),
                        records_dropped=recovery.records_dropped,
                        issues=_issues_from(recovery),
                        notes=list(recovery.notes))
    if report.records_dropped and not report.issues:
        # Records are missing but no byte range is damaged: a cut that
        # landed exactly on a block boundary (every surviving CRC is
        # valid, the header just promised more).  Still damage.
        report.issues.append(FsckIssue(
            source, size, size, KIND_TRUNCATION,
            f"header promised {report.records_dropped} more record(s) "
            "than the body holds (tail cut on a block boundary)"))
    perf.count("fsck-scan", records=len(log.records), bytes=size)
    return report


def _repair(path: str, report: FsckReport, repair_to: str) -> None:
    """Re-emit the surviving items as a clean log of the same format."""
    if report.format == "partial":
        from repro.mpe.api import RankLog
        from repro.mpe.salvage import read_partial_log, write_partial

        partial, _ = read_partial_log(path, errors="salvage")
        rank = max(partial.rank, 0)
        write_partial(repair_to, rank,
                      RankLog(records=list(partial.records),
                              definitions=list(partial.definitions),
                              sync_points=list(partial.sync_points)),
                      partial.clock_resolution)
        return
    log, _ = read_log(path, errors="salvage")
    checksum = report.format == "clog2-checksummed"
    write_clog2(repair_to, Clog2File(log.clock_resolution, log.num_ranks,
                                     log.definitions, log.records),
                checksum=checksum)
