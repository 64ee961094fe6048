"""Loading the two sides of a trace diff, tolerantly.

A diff input may be a pristine merged CLOG2, a salvaged/repaired one, a
CRC-framed v2 file with quarantined blocks, or — after an abort — no
merged file at all, just per-rank ``*.rankNNNN.part`` salvage partials.
:func:`load_side` accepts all of them through the unified reader API
(``errors="salvage"`` never raises on damage the tolerant readers can
step over) and records what could not be aligned, so the diff can say
"partial alignment" instead of lying or crashing.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

from repro.mpe.clog2 import Clog2File, read_log
from repro.mpe.recovery import RecoveryReport
from repro.mpe.salvage import find_partials, salvage_merge
from repro.perf import NO_PERF, PerfRecorder


@dataclass
class TraceSide:
    """One loaded input of a diff: the log plus its damage accounting."""

    label: str
    log: Clog2File
    report: RecoveryReport | None = None
    path: str | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def salvaged(self) -> bool:
        """True when damage was stepped over to produce :attr:`log`."""
        return self.report is not None and not self.report.clean

    @property
    def crashed_ranks(self) -> dict[int, float | None]:
        return dict(self.report.crashed_ranks) if self.report else {}

    def salvage_notes(self) -> list[str]:
        """Human lines describing what could not be aligned on this side."""
        out = list(self.notes)
        report = self.report
        if report is None or report.clean:
            return out
        if report.records_dropped:
            out.append(f"{self.label}: {report.records_dropped} record(s) "
                       f"dropped from damaged spans")
        if report.dropped_ranges:
            out.append(f"{self.label}: {len(report.dropped_ranges)} damaged "
                       f"byte range(s) skipped")
        if report.missing_ranks:
            out.append(f"{self.label}: no readable data for rank(s) "
                       f"{report.missing_ranks}")
        if report.crashed_ranks:
            out.append(f"{self.label}: crashed rank(s) "
                       f"{sorted(report.crashed_ranks)}")
        return out


def _merge_partials_in_memory(base_path: str, label: str) -> TraceSide:
    """Salvage-merge ``base.clog2.rankNNNN.part`` files without writing
    anything: the post-abort equivalent of the finalize merge."""
    paths = find_partials(base_path)
    report = RecoveryReport(source=os.path.basename(base_path))
    log = salvage_merge(paths, report)
    report.note(f"merged {len(paths)} salvage partial(s) in memory")
    return TraceSide(label, log, report, path=base_path,
                     notes=[f"{label}: no merged log; aligned "
                            f"{len(paths)} salvage partial(s)"])


def load_side(source: "str | Clog2File | TraceSide", label: str, *,
              errors: str = "salvage",
              perf: PerfRecorder = NO_PERF) -> TraceSide:
    """Resolve one diff input into a :class:`TraceSide`.

    ``source`` may be a path to a merged CLOG2 (or, when that file is
    absent, the base path of an aborted run's salvage partials), an
    in-memory :class:`Clog2File`, or an already-built side.
    """
    if isinstance(source, TraceSide):
        return source
    if isinstance(source, Clog2File):
        return TraceSide(label, source)
    path = source
    if not os.path.exists(path):
        if find_partials(path):
            side = _merge_partials_in_memory(path, label)
            perf.count("diff-load", records=len(side.log.records))
            return side
        raise FileNotFoundError(
            f"{label}: no trace at {path!r} and no salvage partials "
            f"({path}.rankNNNN.part)")
    result = read_log(path, errors=errors)
    side = TraceSide(label, result.log, result.recovery, path=path)
    perf.count("diff-load", records=len(result.log.records),
               bytes=os.path.getsize(path))
    return side


def file_digest(path: str) -> str:
    """SHA-256 of a file, streamed (the byte-identity fast path)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


__all__ = ["TraceSide", "file_digest", "load_side"]
