"""Abort-surviving MPE logs — the paper's stated future work.

Section V: "we would like to solve the problem of losing the MPE
logfile if the program aborts ... it would be better if the MPE log
could be finalized in all cases, and this will be a subject of future
efforts."

The root cause (Section III.B) is that MPE's merge *needs MPI
messaging*, which ``MPI_Abort`` destroys.  The fix implemented here
sidesteps messaging entirely:

* each rank periodically **checkpoints its buffer to a per-rank partial
  file** (rank-local disk I/O needs no messages — the same property
  that makes Pilot's native log abort-proof);
* on abort, whatever was checkpointed survives;
* an offline tool, :func:`merge_partial_logs`, later collects the
  partial files into one CLOG2 — including timestamp correction from
  whatever sync points were checkpointed.

The cost is the paper's trade-off in reverse: buffering stays cheap,
but every checkpoint pays a disk write during the run (measured in
benchmark A5).

A partial is append-only (:class:`AppendPartialWriter`): sync points
and new records are appended as framed chunks, O(new records) per
checkpoint.  A torn final chunk (the abort can land mid-write) is
detected by its length frame and dropped.  Each checkpoint that wrote
raises :func:`repro._util.fsio.notify_written`, which wakes a live
follower in the same process at once.  :func:`write_partial`
writes one whole :class:`~repro.mpe.api.RankLog` as a fresh partial
of the same layout, atomically (``fsck`` repair uses it).

Reading and merging go through two entry points, each taking
``errors="strict"`` (damage raises) or ``errors="salvage"`` (damage is
skipped and accounted):

* :func:`read_partial_log` parses one partial and returns
  ``(Partial, RecoveryReport | None)``;
* :func:`merge_partial_logs` collects every rank's partial into one
  CLOG2 via a heap-based k-way merge (see :mod:`repro.mpe.merge`) and
  returns ``(Clog2File, RecoveryReport | None)``.

:func:`tail_partial` reads a growing partial incrementally for live
following.  All three decode with the two loops of
:mod:`repro.mpe.clog2`: the chunk walk is
:func:`~repro.mpe.clog2.iter_frames` and every record chunk goes
through :func:`~repro.mpe.clog2.decode_items`.  A strict read is the
tail read from offset 0.

Layout: magic ``CLOGPARA``, rank, clock resolution, then framed
chunks — each chunk is ``u8 kind ('S' sync point | 'R' record
block)``, ``u32 length``, payload (sync: packed floats; records: a
headerless CLOG2 record stream).
"""

from __future__ import annotations

import glob
import io
import os
import struct
from dataclasses import dataclass
from typing import NamedTuple

from repro._util.fsio import notify_written
from repro.mpe.api import RankLog
from repro.mpe.clocksync import SyncPoint
from repro.mpe.clog2 import (
    Clog2File,
    Clog2FormatError,
    check_errors_mode,
    iter_frames,
    scan_items,
    timed,
    write_clog2,
    write_items,
)
from repro.mpe.merge import dedup_definitions, merged_records, rank_stream
from repro.mpe.records import Definition, LogRecord
from repro.mpe.recovery import RecoveryReport
from repro.perf import NO_PERF, PerfRecorder

APPEND_MAGIC = b"CLOGPARA"
#: Below this many bytes a file is reported as too short for any
#: partial header, before its magic is looked at.
_MIN_HEADER = 16
_AHDR = struct.Struct("<8sIdI")  # magic, rank, clock resolution, reserved
_CHUNK = struct.Struct("<BI")  # kind, payload length
_SYNC = struct.Struct("<dd")

_K_SYNC = ord("S")
_K_RECORDS = ord("R")


def partial_path(base_path: str, rank: int) -> str:
    """Naming convention for per-rank partials of ``base_path``."""
    return f"{base_path}.rank{rank:04d}.part"


def write_partial(path: str, rank: int, log: RankLog,
                  clock_resolution: float) -> None:
    """Write one rank's whole buffer as a fresh partial (atomic via
    rename)."""
    tmp = path + ".tmp"
    AppendPartialWriter(tmp, rank, clock_resolution).checkpoint(log)
    os.replace(tmp, path)


class AppendPartialWriter:
    """O(new records) checkpointing: framed chunks appended to one file.

    Create once per rank; call :meth:`checkpoint` with the rank's
    :class:`~repro.mpe.api.RankLog` whenever enough new records have
    accumulated.  Each call appends only what is new since the last
    call.  A torn final chunk (abort mid-write) is detected at read
    time by its length frame and dropped.
    """

    def __init__(self, path: str, rank: int, clock_resolution: float) -> None:
        self.path = path
        self.rank = rank
        self._records_written = 0
        self._syncs_written = 0
        self._defs_written = False
        with open(path, "wb") as fh:
            fh.write(_AHDR.pack(APPEND_MAGIC, rank, clock_resolution, 0))

    def checkpoint(self, log: RankLog) -> int:
        """Append new sync points and records; returns records appended."""
        new_records = log.records[self._records_written:]
        new_syncs = log.sync_points[self._syncs_written:]
        # Definitions ride in the first record chunk (they are complete
        # before any event is logged).
        defs = [] if self._defs_written else log.definitions
        if not new_records and not new_syncs and not defs:
            return 0
        with open(self.path, "ab") as fh:
            for p in new_syncs:
                fh.write(_CHUNK.pack(_K_SYNC, _SYNC.size))
                fh.write(_SYNC.pack(p.local_time, p.offset))
            if new_records or not self._defs_written:
                buf = io.BytesIO()
                write_items(buf, defs, timed(new_records))
                payload = buf.getvalue()
                fh.write(_CHUNK.pack(_K_RECORDS, len(payload)))
                fh.write(payload)
                self._defs_written = True
        notify_written(self.path)
        self._records_written = len(log.records)
        self._syncs_written = len(log.sync_points)
        return len(new_records)


@dataclass
class Partial:
    rank: int
    sync_points: list[SyncPoint]
    definitions: list[Definition]
    records: list[LogRecord]
    clock_resolution: float


class PartialReadResult(NamedTuple):
    """What :func:`read_partial_log` hands back."""

    partial: Partial
    recovery: "RecoveryReport | None"


class MergeResult(NamedTuple):
    """What :func:`merge_partial_logs` hands back."""

    log: Clog2File
    recovery: "RecoveryReport | None"


class PartialTail(NamedTuple):
    """One poll of a growing partial (see
    :func:`tail_partial`).  ``offset`` resumes the next poll at the
    first unconsumed byte; ``torn_bytes`` counts the held tail (a chunk
    the writer has not finished appending — re-examined next poll, not
    damage)."""

    rank: int
    clock_resolution: float
    sync_points: list[SyncPoint]
    definitions: list[Definition]
    records: list[LogRecord]
    offset: int
    torn_bytes: int


def tail_partial(path: str, offset: int = 0) -> PartialTail | None:
    """Incrementally read a partial that a rank may still be
    checkpointing to.

    Pass ``offset=0`` on first attach, then the returned ``offset`` on
    every later poll — whole chunks between the two are parsed, a
    partial chunk at the tail is held (never emitted, never dropped).
    Returns ``None`` while the file is still shorter than its header.
    """
    with open(path, "rb") as fh:
        head = fh.read(_AHDR.size)
        if offset == 0:
            if len(head) < 8:
                return None
            if head[:8] != APPEND_MAGIC:
                raise Clog2FormatError(f"bad partial magic {head[:8]!r}")
            if len(head) < _AHDR.size:
                return None
            offset = _AHDR.size
        elif len(head) < _AHDR.size:
            raise Clog2FormatError(f"{path}: shrank below its header")
        fh.seek(offset)
        data = fh.read()
    _, rank, resolution, _ = _AHDR.unpack(head)
    part = Partial(rank, [], [], [], resolution)
    held = _read_chunks(data, 0, part)
    return PartialTail(rank, resolution, part.sync_points, part.definitions,
                       part.records, offset + held, len(data) - held)


def _read_chunks(data: bytes, pos: int, part: Partial,
                 report: RecoveryReport | None = None,
                 source: str = "") -> int:
    """Read the partial chunks of ``data[pos:]`` into ``part``.

    Strict and tail reads (no ``report``): a malformed whole chunk
    raises, and a torn final chunk — one the writer has not finished,
    or an abort cut short — is held: the returned offset is its start
    (``len(data)`` when nothing is held).  Salvage: a bad chunk is
    dropped into ``report``, and the complete records before the tear
    of a torn final record chunk are kept.
    """
    end = len(data)
    for start, fields, body, stop in iter_frames(data, pos, _CHUNK, 1):
        torn = fields is None or stop > end
        if report is None:
            if torn:
                return start
            kind, length = fields
            if kind == _K_RECORDS:
                scan_items(data, body, stop, part.definitions, part.records)
            elif kind != _K_SYNC:
                raise Clog2FormatError(
                    f"unknown partial chunk kind 0x{kind:02x}")
            elif length != _SYNC.size:
                raise Clog2FormatError(
                    f"sync chunk at offset {start} holds {length} bytes, "
                    f"not {_SYNC.size}")
            else:
                part.sync_points.append(
                    SyncPoint(*_SYNC.unpack_from(data, body)))
            continue
        if fields is None:
            report.drop(source, start, end, "torn chunk frame header")
            break
        kind, length = fields
        if kind == _K_SYNC:
            if min(stop, end) - body < _SYNC.size:
                report.drop(source, start, end, "torn sync chunk")
                break
            part.sync_points.append(SyncPoint(*_SYNC.unpack_from(data, body)))
        elif kind == _K_RECORDS:
            scan_items(data, body, min(stop, end), part.definitions,
                       part.records, report, source)
            if torn:
                # The missing tail held at least one record we cannot
                # recover (possibly cut mid-write by the abort).
                report.note(f"{source}: final record chunk torn at byte "
                            f"{end} (frame promised {length} bytes)")
                report.drop(source, end, stop,
                            "torn final chunk (abort mid-write)", records=1)
        elif torn:
            report.drop(source, start, end,
                        f"torn chunk with unknown kind 0x{kind:02x}")
        else:
            report.drop(source, start, stop,
                        f"unknown chunk kind 0x{kind:02x}, skipped")
    return end


def _read_partial(data: bytes, report: RecoveryReport | None = None,
                  source: str = "") -> Partial:
    """Parse a partial held in memory: strict without a ``report``;
    with one, damage is accounted and a file too damaged to identify
    yields a ``Partial`` with ``rank == -1``."""
    end = len(data)
    if end < _MIN_HEADER:
        reason = f"too short for a partial header ({end} bytes)"
    elif data[:8] != APPEND_MAGIC:
        reason = f"bad partial magic {data[:8]!r}"
    elif end < _AHDR.size:
        reason = f"too short for an append header ({end} bytes)"
    else:
        _, rank, resolution, _ = _AHDR.unpack_from(data)
        part = Partial(rank, [], [], [], resolution)
        _read_chunks(data, _AHDR.size, part, report, source)
        if report is not None:
            report.records_kept += len(part.records)
        return part
    if report is None:
        raise Clog2FormatError(reason)
    report.drop(source, 0, end, reason)
    return Partial(-1, [], [], [], 1e-6)


def read_partial_log(path: str, *, errors: str = "strict"
                     ) -> PartialReadResult:
    """Parse one partial — the one entry point.

    ``errors="strict"`` raises on damage and returns
    ``(partial, None)``; ``errors="salvage"`` skips torn/corrupt spans
    and returns ``(partial, report)``.  Under salvage a file too
    damaged to identify (no readable header) yields a ``Partial`` with
    ``rank == -1`` and everything accounted as dropped.
    """
    check_errors_mode(errors)
    with open(path, "rb") as fh:
        data = fh.read()
    if errors == "strict":
        return PartialReadResult(_read_partial(data), None)
    report = RecoveryReport(source=os.path.basename(path))
    return PartialReadResult(_read_partial(data, report, report.source),
                             report)


def find_partials(base_path: str) -> list[str]:
    return sorted(glob.glob(f"{base_path}.rank[0-9][0-9][0-9][0-9].part"))


def _merge_partial_objects(partials: list[Partial], *,
                           perf: PerfRecorder = NO_PERF) -> Clog2File:
    """Dedup definitions, correct timestamps, and k-way merge records
    from already-parsed partials: the strict/salvage merge core, and
    exactly what the ``merge`` stage times."""
    with perf.stage("merge") as timer:
        definitions = dedup_definitions(p.definitions for p in partials)
        num_ranks = max((p.rank + 1 for p in partials), default=0)
        resolution = partials[0].clock_resolution if partials else 1e-6
        streams = [rank_stream(p.rank, p.records, p.sync_points)
                   for p in partials]
        records = list(merged_records(streams))
    timer.count(records=len(records))
    return Clog2File(resolution, num_ranks, definitions, records)


def merge_partial_logs(base_path: str, out_path: str | None = None, *,
                       errors: str = "strict",
                       expected_ranks: int | None = None,
                       crashed_ranks: "dict[int, float | None] | None" = None,
                       perf: PerfRecorder = NO_PERF) -> MergeResult:
    """Post-mortem merge of per-rank partials into one CLOG2 — the one
    entry point.

    Equivalent to what ``MPE_Finish_log`` would have produced up to the
    last checkpoint before the abort.  Writes ``out_path`` (default:
    the base path itself).

    ``errors="strict"`` raises on a missing or corrupt partial and
    returns ``(log, None)``.  ``errors="salvage"`` salvages every
    readable partial, skips the unreadable, and returns
    ``(log, report)`` saying exactly what happened (see
    :func:`salvage_merge`).
    """
    check_errors_mode(errors)
    paths = find_partials(base_path)
    if errors == "salvage":
        report = RecoveryReport(source=os.path.basename(base_path))
        if not paths:
            report.note(f"no partial logs found for {base_path!r}")
            return MergeResult(Clog2File(1e-6, 0, [], []), report)
        log = salvage_merge(paths, report, expected_ranks=expected_ranks,
                            crashed_ranks=crashed_ranks, perf=perf)
    else:
        if not paths:
            raise FileNotFoundError(
                f"no partial logs found for {base_path!r} "
                f"(pattern {base_path}.rankNNNN.part)")
        report = None
        log = _merge_partial_objects(
            [read_partial_log(p).partial for p in paths], perf=perf)
    write_clog2(out_path or base_path, log, perf=perf)
    return MergeResult(log, report)


def salvage_merge(paths: list[str], report: RecoveryReport, *,
                  expected_ranks: int | None = None,
                  crashed_ranks: "dict[int, float | None] | None" = None,
                  perf: PerfRecorder = NO_PERF) -> Clog2File:
    """Salvage-read ``paths`` and merge every usable partial in memory,
    writing nothing; what was skipped or lost lands in ``report``.

    ``expected_ranks`` widens the missing-rank check beyond the highest
    rank seen (an all-ranks-crashed run may have no partial for the top
    ranks at all), and ``crashed_ranks`` annotates the report with
    crash times from a fault plan or an
    :class:`~repro.vmpi.errors.AbortedError` so the viewers can mark
    the timelines.
    """
    usable: list[Partial] = []
    for p in paths:
        try:
            part, sub = read_partial_log(p, errors="salvage")
        except OSError as exc:
            report.note(f"{os.path.basename(p)}: unreadable ({exc})")
            continue
        report.absorb(sub)
        if part.rank < 0:
            report.note(f"{os.path.basename(p)}: unidentifiable, skipped")
            continue
        usable.append(part)
        report.note(f"{os.path.basename(p)}: rank {part.rank}, "
                    f"{len(part.records)} records, "
                    f"{len(part.sync_points)} sync points")
    log = _merge_partial_objects(usable, perf=perf)
    have = {part.rank for part in usable}
    width = max(expected_ranks or 0, (max(have) + 1) if have else 0)
    for rank in range(width):
        if rank not in have:
            report.missing_ranks.append(rank)
    if width > log.num_ranks:
        log = Clog2File(log.clock_resolution, width, log.definitions,
                        log.records)
    for rank, at in (crashed_ranks or {}).items():
        report.mark_crashed(rank, at)
    return log


def cleanup_partials(base_path: str) -> int:
    """Remove per-rank partials (after a successful normal finalize)."""
    removed = 0
    for path in find_partials(base_path):
        os.remove(path)
        removed += 1
    return removed
