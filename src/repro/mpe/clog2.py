"""CLOG2 binary file format: streaming writer and reader.

A real on-disk format, struct-packed, with a round-trippable reader —
the paper's workflow keeps CLOG2 as an inspectable intermediate
("diagnosing problems with the log contents", Section II.A), and so do
we.  Layout:

``header`` — magic ``CLOG2PY1``, version u16, clock resolution f64,
rank count i32, record count u32.

Version 1 stores the item stream raw after the header.  Version 2
(``checksum=True``) frames the same item stream into CRC32-checked
blocks: each block is ``length u32, crc32 u32`` followed by ``length``
bytes holding whole items (a block boundary never splits an item —
blocks are exactly the writer's flush slabs).  The framing
makes silent corruption detectable: a flipped byte anywhere in a block
fails that block's checksum instead of decoding into a plausible but
wrong record, and the salvage reader drops *exactly* the damaged block
because the frame lengths tell it where the next one starts.  Old
version-1 files remain readable byte-for-byte.

Each record starts with a type byte:

=====  ==========  =======================================================
byte   kind        payload
=====  ==========  =======================================================
0x01   StateDef    start i32, end i32, name str, color str
0x02   EventDef    id i32, name str, color str
0x03   BareEvent   t f64, rank i32, id i32, text str (<= 40 bytes)
0x04   MsgEvent    t f64, rank i32, kind u8, other i32, tag i32, size i64
0x05   RankName    rank i32, name str
=====  ==========  =======================================================

Strings are u16 length-prefixed UTF-8.  All integers little-endian.

The I/O layer is the pipeline's hot path, so it is streaming and
batched:

* every ``struct`` format is precompiled at import time, and the type
  byte is fused into the record pack (one C call per record instead of
  two-to-four Python-level writes);
* :func:`write_items` is the one record packer: it packs
  ``(timestamp, rank, record)`` items (the k-way merge's own tuples,
  or :func:`timed` over plain records) into an in-memory batch and
  flushes in ~256 KiB slabs;
* :func:`write_clog2_to` is the one header writer: it streams
  :func:`write_items` to disk without ever holding the whole log, and
  patches the header's record count at the end;
* reading is two loops: :func:`decode_items` decodes item bytes with
  one fused ``unpack_from`` per record, and :func:`iter_frames` steps
  over length-prefixed frames (the version-2 CRC blocks here, the
  append-partial chunks in :mod:`repro.mpe.salvage`).

Byte-for-byte output compatibility with the original eager writer is a
contract (see ``benchmarks/_legacy.py`` and the equivalence tests).

The one reader entry point is :func:`read_log` with
``errors="strict"`` (raise on damage) or ``errors="salvage"``
(skip torn spans, account them in a RecoveryReport); it always returns
a :class:`Clog2ReadResult` ``(log, recovery)`` pair.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from repro._util.text import clamp_text
from repro.mpe.records import (
    TEXT_LIMIT,
    BareEvent,
    Definition,
    EventDef,
    LogRecord,
    MsgEvent,
    RankName,
    StateDef,
)

from repro.mpe.recovery import RecoveryReport
from repro.perf import NO_PERF, PerfRecorder

MAGIC = b"CLOG2PY1"
VERSION = 1
#: Header version of CRC32-block-framed files (``checksum=True``).
CHECKSUM_VERSION = 2
_KNOWN_VERSIONS = (VERSION, CHECKSUM_VERSION)

_T_STATEDEF = 0x01
_T_EVENTDEF = 0x02
_T_BARE = 0x03
_T_MSG = 0x04
_T_RANKNAME = 0x05

_HDR = struct.Struct("<8sHdiI")
#: Version-2 block frame: payload length u32, crc32-of-payload u32.
_BLOCK = struct.Struct("<II")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

# Fused type-byte + payload formats ("<" means no padding, so packing
# the type byte together with the fields yields exactly the same bytes
# as writing them separately — the equivalence tests hold us to it).
_MSG_FULL = struct.Struct("<BdiBiiq")
_STATEDEF_FULL = struct.Struct("<Bii")
_IDONLY_FULL = struct.Struct("<Bi")  # EventDef / RankName heads
# BareEvent head with the text's u16 length prefix fused in as well:
# one pack call covers everything but the text bytes themselves.
_BARE_FULL_U16 = struct.Struct("<BdiiH")

#: Flush threshold for the batched writer (bytes of packed parts).
_WRITE_BATCH = 256 * 1024


class Clog2FormatError(ValueError):
    """The bytes do not look like a CLOG2 file we wrote."""


class Clog2ChecksumError(Clog2FormatError):
    """A version-2 block's CRC32 does not match its payload."""


class _BlockWriter:
    """File-like adapter that frames every ``write`` as one CRC block.

    :func:`write_items` calls ``write`` only at item boundaries (a
    flush slab always ends on a whole item), so one write = one valid
    version-2 block.  Empty writes emit nothing.
    """

    __slots__ = ("_out",)

    def __init__(self, out) -> None:
        self._out = out

    def write(self, data) -> int:
        if not data:
            return 0
        self._out.write(_BLOCK.pack(len(data), zlib.crc32(data)))
        self._out.write(data)
        return len(data)


def _str_bytes(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise Clog2FormatError(f"string too long for CLOG2 ({len(raw)} bytes)")
    return _U16.pack(len(raw)) + raw


@dataclass
class Clog2File:
    """Parsed contents of a CLOG2 file."""

    clock_resolution: float
    num_ranks: int
    definitions: list[Definition]
    records: list[LogRecord]

    @property
    def states(self) -> list[StateDef]:
        return [d for d in self.definitions if isinstance(d, StateDef)]

    @property
    def events(self) -> list[EventDef]:
        return [d for d in self.definitions if isinstance(d, EventDef)]

    @property
    def rank_names(self) -> dict[int, str]:
        return {d.rank: d.name for d in self.definitions
                if isinstance(d, RankName)}


class Clog2ReadResult(NamedTuple):
    """What :func:`read_log` hands back: the log plus the recovery
    accounting (``None`` under ``errors="strict"``, where damage raises
    instead of being accounted)."""

    log: Clog2File
    recovery: "RecoveryReport | None"


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------


def _pack_definition(d: Definition) -> bytes:
    if isinstance(d, StateDef):
        return (_STATEDEF_FULL.pack(_T_STATEDEF, d.start_id, d.end_id)
                + _str_bytes(d.name) + _str_bytes(d.color))
    if isinstance(d, EventDef):
        return (_IDONLY_FULL.pack(_T_EVENTDEF, d.event_id)
                + _str_bytes(d.name) + _str_bytes(d.color))
    return _IDONLY_FULL.pack(_T_RANKNAME, d.rank) + _str_bytes(d.name)


def timed(records: Iterable[LogRecord]
          ) -> "Iterator[tuple[float, int, LogRecord]]":
    """``records`` as the ``(timestamp, rank, record)`` items
    :func:`write_items` packs, each record at its own timestamp."""
    return ((r.timestamp, r.rank, r) for r in records)


def write_items(fh, definitions: Iterable[Definition],
                items: "Iterable[tuple[float, int, LogRecord]]") -> int:
    """The one CLOG2 record packer: serialise a headerless
    definition+record stream (shared by the file writer and the salvage
    partials).

    ``items`` are ``(timestamp, rank, record)`` tuples — the k-way
    merge's own items (:mod:`repro.mpe.merge`), or :func:`timed` over
    plain records — and each record is packed at its item's timestamp,
    so the fused merge→write never rebuilds a record just to serialise
    it.  Accepts any iterables; packs into an in-memory batch flushed in
    slabs so the caller pays one ``write`` per ~256 KiB instead of per
    field.  Returns the number of records written.
    """
    parts: list[bytes] = []
    append = parts.append
    pending = 0
    nrecords = 0
    bare_pack = _BARE_FULL_U16.pack
    msg_pack = _MSG_FULL.pack
    msg_size = _MSG_FULL.size
    bare_head = _BARE_FULL_U16.size
    batch = _WRITE_BATCH
    write = fh.write
    join = b"".join
    for d in definitions:
        piece = _pack_definition(d)
        append(piece)
        pending += len(piece)
    for t, _rank, r in items:
        nrecords += 1
        if type(r) is MsgEvent:
            append(msg_pack(_T_MSG, t, r.rank, r.kind,
                            r.other_rank, r.tag, r.size))
            pending += msg_size
        elif type(r) is BareEvent:
            raw = r.text.encode("utf-8")
            n = len(raw)
            if n > 0xFFFF:
                raise Clog2FormatError(
                    f"string too long for CLOG2 ({n} bytes)")
            append(bare_pack(_T_BARE, t, r.rank, r.event_id, n))
            append(raw)
            pending += bare_head + n
        else:
            raise Clog2FormatError(f"unknown record {r!r}")
        if pending >= batch:
            write(join(parts))
            parts.clear()
            pending = 0
    if parts:
        write(join(parts))
    return nrecords


def write_clog2_to(fh, clock_resolution: float, num_ranks: int,
                   definitions: Iterable[Definition],
                   items: "Iterable[tuple[float, int, LogRecord]]", *,
                   checksum: bool = False,
                   perf: PerfRecorder = NO_PERF) -> int:
    """Stream a whole CLOG2 image (header + items) to an open, seekable
    binary stream without ever holding the whole log; returns the
    number of records written.

    The header's record count is not known until ``items`` runs out, so
    a placeholder goes in first and is patched at the end.  The header
    is never block-framed, so the patch goes straight to ``fh`` in both
    versions.  ``checksum=True`` writes version 2: every slab
    :func:`write_items` flushes becomes one CRC32 block.
    """
    version = CHECKSUM_VERSION if checksum else VERSION
    start = fh.tell()
    fh.write(_HDR.pack(MAGIC, version, clock_resolution, num_ranks, 0))
    nrecords = write_items(_BlockWriter(fh) if checksum else fh,
                           definitions, items)
    end = fh.tell()
    fh.seek(start + _HDR.size - 4)  # the trailing u32 of "<8sHdiI"
    fh.write(_U32.pack(nrecords))
    fh.seek(end)
    perf.count("clog2-write", records=nrecords, bytes=end - start)
    return nrecords


def write_clog2(path: str, log: Clog2File, *, checksum: bool = False,
                perf: PerfRecorder = NO_PERF) -> None:
    """Serialise definitions + merged records to ``path``.

    ``checksum=True`` writes version-2 CRC32 block framing (see the
    module docstring); the default stays version 1 so existing logs and
    golden hashes are bit-stable.
    """
    with perf.stage("clog2-write"), open(path, "wb") as fh:
        write_clog2_to(fh, log.clock_resolution, log.num_ranks,
                       log.definitions, timed(log.records),
                       checksum=checksum, perf=perf)


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------
#
# Two loops do all the decoding: decode_items (item bytes -> definitions
# and records) and iter_frames (length-prefixed frames).  Strict and
# salvage reading are a few lines over them each, in scan_items and
# read_image below and in repro.mpe.salvage.

#: Definition type byte -> (fused head struct, string count, class).
_DEFINITIONS = {
    _T_STATEDEF: (_STATEDEF_FULL, 2, StateDef),
    _T_EVENTDEF: (_IDONLY_FULL, 2, EventDef),
    _T_RANKNAME: (_IDONLY_FULL, 1, RankName),
}
_VALID_TYPE_BYTES = frozenset((_T_BARE, _T_MSG, *_DEFINITIONS))


class Damage(NamedTuple):
    """Why :func:`decode_items` stopped before the end of its span.

    ``kind`` is ``"torn"`` (the item runs past the end), ``"type"`` (an
    unknown type byte) or ``"text"`` (a string that is not UTF-8);
    ``detail`` is what salvage reports for it, ``message`` what strict
    reading raises."""

    kind: str
    detail: str
    message: str


_TORN = Damage("torn", "truncated CLOG2 file", "truncated CLOG2 file")


def decode_items(data: bytes, pos: int, end: int, definitions: list,
                 records: list) -> "tuple[int, Damage | None]":
    """The one item loop: decode the items in ``data[pos:end]``.

    Definitions and records are appended to the caller's lists in file
    order.  Returns ``(stop, damage)``: ``stop`` is the offset of the
    first byte not decoded, and ``damage`` is ``None`` when ``stop ==
    end``, else the :class:`Damage` of the item starting at ``stop``.

    BareEvent/MsgEvent (the overwhelming bulk of any log) take one
    ``unpack_from`` each — type byte, fields and (for BareEvent) the
    text's u16 length together — and are built the way
    :meth:`repro.slog2.convert.StreamConverter.feed_all` builds
    drawables: ``object.__new__``, then one ``object.__setattr__`` per
    field.  A text is clamped only when its on-disk length exceeds
    :data:`TEXT_LIMIT` (a foreign writer's); anything shorter is already
    within it.  Definitions are rare and use their constructors.
    """
    drec = definitions.append
    rrec = records.append
    bare_unpack = _BARE_FULL_U16.unpack_from
    msg_unpack = _MSG_FULL.unpack_from
    u16_unpack = _U16.unpack_from
    bare_size = _BARE_FULL_U16.size
    msg_size = _MSG_FULL.size
    new = object.__new__
    sa = object.__setattr__
    try:
        while pos < end:
            t = data[pos]
            if t == _T_BARE:
                _, ts, rank, eid, n = bare_unpack(data, pos)
                cursor = pos + bare_size
                tail = cursor + n
                if tail > end:
                    return pos, _TORN
                text = data[cursor:tail].decode("utf-8")
                if n > TEXT_LIMIT:
                    text = clamp_text(text, TEXT_LIMIT)
                rec = new(BareEvent)
                sa(rec, "timestamp", ts)
                sa(rec, "rank", rank)
                sa(rec, "event_id", eid)
                sa(rec, "text", text)
                rrec(rec)
                pos = tail
            elif t == _T_MSG:
                if pos + msg_size > end:
                    return pos, _TORN
                _, ts, rank, kind, other, tag, size = msg_unpack(data, pos)
                rec = new(MsgEvent)
                sa(rec, "timestamp", ts)
                sa(rec, "rank", rank)
                sa(rec, "kind", kind)
                sa(rec, "other_rank", other)
                sa(rec, "tag", tag)
                sa(rec, "size", size)
                rrec(rec)
                pos += msg_size
            elif t in _DEFINITIONS:
                head, nstrs, cls = _DEFINITIONS[t]
                fields = list(head.unpack_from(data, pos)[1:])
                cursor = pos + head.size
                for _ in range(nstrs):
                    if cursor + 2 > end:
                        return pos, _TORN
                    (n,) = u16_unpack(data, cursor)
                    cursor += 2
                    if cursor + n > end:
                        return pos, _TORN
                    fields.append(data[cursor:cursor + n].decode("utf-8"))
                    cursor += n
                drec(cls(*fields))
                pos = cursor
            else:
                what = f"unknown record type byte 0x{t:02x}"
                return pos, Damage("type", what, what)
    except struct.error:
        # unpack_from ran past the buffer: an item torn at its end.
        return pos, _TORN
    except UnicodeDecodeError as exc:
        # A damaged text byte; unframed (version-1) logs have no CRC to
        # catch it first.
        return pos, Damage("text", str(exc),
                           f"undecodable text in the item at offset {pos} "
                           f"({exc.reason})")
    return pos, None


def scan_items(data: bytes, pos: int, end: int, definitions: list,
               records: list, report: RecoveryReport | None = None,
               source: str = "") -> None:
    """Decode ``data[pos:end]`` with :func:`decode_items`.

    Strict (no ``report``): damage raises :class:`Clog2FormatError`.
    Salvage: each damaged span is dropped into ``report`` up to the
    first later offset where an item decodes and is followed by the end
    or another plausible item, and decoding resumes there — the resync
    probes run the same loop, and the accepted probe's items are kept.
    """
    stop, damage = decode_items(data, pos, end, definitions, records)
    while damage is not None:
        if report is None:
            raise Clog2FormatError(damage.message)
        resync = end
        for off in range(stop + 1, end):
            if data[off] not in _VALID_TYPE_BYTES:
                continue
            defs: list = []
            recs: list = []
            after, next_damage = decode_items(data, off, end, defs, recs)
            n = len(defs) + len(recs)
            if n > 1 or (n == 1 and (next_damage is None
                                     or next_damage.kind != "type")):
                resync = off
                break
        report.drop(source, stop, resync,
                    f"unparseable record ({damage.detail})")
        if resync >= end:
            return
        definitions.extend(defs)
        records.extend(recs)
        stop, damage = after, next_damage


def iter_frames(data: bytes, pos: int, head: struct.Struct,
                length_at: int) -> Iterator[tuple]:
    """The one walk over length-prefixed frames from ``data[pos]`` on.

    ``head`` is the frame header (version-2 blocks: ``<II`` length,
    crc; append-partial chunks: ``<BI`` kind, length) and ``length_at``
    the index of its payload length.  Yields ``(start, fields, body,
    stop)`` per frame, the payload being ``data[body:stop]``.  Only the
    last frame may be torn: its ``fields`` are ``None`` when the header
    itself is cut short, else its ``stop`` lies past ``len(data)``.
    What a torn or bad frame means is the caller's mode: strict raises,
    salvage drops exactly that frame, tail holds it and resumes at
    ``start`` on the next poll.
    """
    end = len(data)
    size = head.size
    while pos < end:
        if pos + size > end:
            yield pos, None, end, end
            return
        fields = head.unpack_from(data, pos)
        body = pos + size
        stop = body + fields[length_at]
        yield pos, fields, body, stop
        pos = stop


class Clog2Header(NamedTuple):
    """The fixed header of a CLOG2 file."""

    clock_resolution: float
    num_ranks: int
    num_records: int
    version: int = VERSION

    @property
    def checksummed(self) -> bool:
        return self.version >= CHECKSUM_VERSION


def read_header(fh) -> Clog2Header:
    """Parse and validate the CLOG2 header from an open binary file."""
    head = fh.read(_HDR.size)
    if len(head) != _HDR.size:
        raise Clog2FormatError("truncated CLOG2 file")
    magic, version, resolution, num_ranks, nrecords = _HDR.unpack(head)
    if magic != MAGIC:
        raise Clog2FormatError(f"bad magic {magic!r}")
    if version not in _KNOWN_VERSIONS:
        raise Clog2FormatError(f"unsupported CLOG2 version {version}")
    return Clog2Header(resolution, num_ranks, nrecords, version)


def _scan_blocks(data: bytes, pos: int, definitions: list, records: list,
                 report: RecoveryReport | None, source: str) -> None:
    """Read the version-2 CRC blocks from ``data[pos]`` on: strict raises
    on a torn or mismatching block; salvage drops exactly that block
    (its frame length says where the next one starts)."""
    end = len(data)
    for start, fields, body, stop in iter_frames(data, pos, _BLOCK, 0):
        if fields is None or stop > end:
            what = ("block header" if fields is None else
                    f"block (promised {fields[0]} bytes, got {end - body})")
            if report is None:
                raise Clog2FormatError(f"truncated CLOG2 {what}")
            report.drop(source, start, end, f"truncated {what}")
            return
        crc = fields[1]
        computed = zlib.crc32(data[body:stop])
        if computed != crc:
            crcs = f"(stored 0x{crc:08x}, computed 0x{computed:08x})"
            if report is None:
                raise Clog2ChecksumError(
                    f"block checksum mismatch at offset {start} {crcs}")
            report.drop(source, start, stop, f"block checksum mismatch {crcs}")
            continue
        scan_items(data, body, stop, definitions, records, report, source)


def read_image(data: bytes, report: RecoveryReport | None = None,
               source: str = "") -> Clog2File:
    """Read the CLOG2 image (header + items) held in ``data``.

    Strict without a ``report``; with one, damage is accounted into it
    and whatever survives is returned.
    """
    end = len(data)
    try:
        header = read_header(io.BytesIO(data[:_HDR.size]))
    except Clog2FormatError as exc:
        if report is None:
            raise
        reason = (f"too short for a CLOG2 header ({end} bytes)"
                  if end < _HDR.size else str(exc))
        report.drop(source, 0, end, reason)
        return Clog2File(1e-6, 0, [], [])
    definitions: list[Definition] = []
    records: list[LogRecord] = []
    pos = _HDR.size
    if not header.checksummed:
        scan_items(data, pos, end, definitions, records, report, source)
    else:
        _scan_blocks(data, pos, definitions, records, report, source)
    nrecords = header.num_records
    if report is None:
        if len(records) != nrecords:
            raise Clog2FormatError(
                f"header promised {nrecords} records, found {len(records)}")
    else:
        report.records_kept += len(records)
        if len(records) < nrecords:
            # The header knows how many records the writer meant to
            # store; anything the torn spans swallowed is the difference.
            report.records_dropped = max(report.records_dropped,
                                         nrecords - len(records))
            report.note(f"{source}: header promised {nrecords} records, "
                        f"salvaged {len(records)}")
    return Clog2File(header.clock_resolution, header.num_ranks,
                     definitions, records)


def check_errors_mode(errors: str) -> None:
    if errors not in ("strict", "salvage"):
        raise ValueError(
            f"errors must be 'strict' or 'salvage', got {errors!r}")


def read_log(path: str, *, errors: str = "strict",
             perf: PerfRecorder = NO_PERF) -> Clog2ReadResult:
    """Parse a CLOG2 file — the one reader entry point.

    ``errors="strict"`` raises :class:`Clog2FormatError` on any damage
    and returns ``(log, None)``; ``errors="salvage"`` skips torn and
    corrupt spans, never raises on damage, and returns ``(log, report)``
    with a byte-accurate :class:`~repro.mpe.recovery.RecoveryReport`.
    Strict remains the right mode for logs that are supposed to be
    intact — silent tolerance of a writer bug would be a regression,
    not robustness.
    """
    check_errors_mode(errors)
    if errors == "salvage":
        report = RecoveryReport(source=os.path.basename(path))
        with open(path, "rb") as fh:
            data = fh.read()
        return Clog2ReadResult(read_image(data, report, report.source),
                               report)
    with perf.stage("clog2-read") as timer:
        with open(path, "rb") as fh:
            data = fh.read()
        log = read_image(data)
    timer.count(records=len(log.records), bytes=len(data))
    return Clog2ReadResult(log, None)
