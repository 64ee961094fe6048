"""Seeded corruption fuzzer over the CLOG2 readers.

The acceptance bar from the durability work: for every fuzzer-injected
corruption of a version-2 (CRC-framed) log — random byte flips anywhere
in the body, truncations at any byte including exact block boundaries
— ``fsck`` must report damage (100% detection), and both readers must
either salvage to a valid prefix/subset or raise a clean
:class:`Clog2FormatError`; never a crash, hang, or silently wrong
parse.  Unframed version-1 logs (the ``-pisvc=j`` default) cannot
detect every flip, so the bar there is the readers' contract alone:
strict parses or raises :class:`Clog2FormatError`, salvage always
returns.  The per-rank salvage partials of both layouts are held to the
same contract, and the live tail reader with them.  Seeds are fixed so
every run fuzzes the same corpus.
"""

import io
import os
import random

import pytest

from repro.mpe.api import RankLog
from repro.mpe.clocksync import SyncPoint
from repro.mpe.clog2 import (
    _HDR,
    Clog2File,
    Clog2FormatError,
    parse_clog2_bytes,
    read_log,
    write_clog2,
    write_items,
)
from repro.mpe.fsck import KIND_TRUNCATION, fsck_path
from repro.mpe.records import BareEvent, EventDef, MsgEvent, StateDef
from repro.mpe.salvage import (
    AppendPartialWriter,
    read_partial_log,
    tail_partial,
    write_partial,
)

SEEDS = (101, 202, 303)
FLIPS_PER_SEED = 40
CUTS_PER_SEED = 25


def fuzz_log(rng):
    defs = [StateDef(1, 2, "S", "red"), EventDef(3, "E", "blue")]
    recs = []
    t = 0.0
    for i in range(rng.randint(300, 600)):
        t += rng.random() * 1e-4
        rank = rng.randrange(3)
        kind = rng.randrange(3)
        if kind == 0:
            recs.append(BareEvent(t, rank, rng.choice((1, 2, 3)),
                                  f"t{i}" if rng.random() < 0.5 else ""))
        else:
            recs.append(MsgEvent(t, rank, kind - 1, (rank + 1) % 3,
                                 rng.randrange(8), rng.randrange(256)))
    return Clog2File(1e-6, 3, defs, recs)


def write_fuzz_base(tmp_path, seed, *, checksum=True):
    rng = random.Random(seed)
    path = str(tmp_path / f"base{seed}.clog2")
    log = fuzz_log(rng)
    write_clog2(path, log, checksum=checksum)
    with open(path, "rb") as fh:
        return path, fh.read(), rng


def encoded_size(definitions, records):
    buf = io.BytesIO()
    write_items(buf, definitions, records)
    return len(buf.getvalue())


def text_offsets(data):
    """Offsets of every BareEvent text byte in an unframed image (its
    items sit back to back, so re-encoding each one locates it)."""
    log = parse_clog2_bytes(data)
    offsets = []
    pos = _HDR.size + encoded_size(log.definitions, [])
    for rec in log.records:
        end = pos + encoded_size([], [rec])
        if isinstance(rec, BareEvent):
            offsets.extend(range(end - len(rec.text.encode("utf-8")), end))
        pos = end
    return offsets


def reader_survives(path):
    """Strict read raises cleanly or parses; salvage always returns."""
    strict_failed = False
    try:
        read_log(path)
    except (Clog2FormatError, FileNotFoundError):
        strict_failed = True
    log, report = read_log(path, errors="salvage")
    assert report is not None
    return strict_failed, log, report


@pytest.mark.parametrize("seed", SEEDS)
class TestByteFlips:
    def test_every_body_flip_is_detected(self, tmp_path, seed):
        path, data, rng = write_fuzz_base(tmp_path, seed)
        target = str(tmp_path / "flipped.clog2")
        missed = []
        for trial in range(FLIPS_PER_SEED):
            pos = rng.randrange(_HDR.size, len(data))
            flipped = bytearray(data)
            flipped[pos] ^= 1 << rng.randrange(8)
            with open(target, "wb") as fh:
                fh.write(bytes(flipped))
            report = fsck_path(target)
            if report.clean:
                missed.append((trial, pos))
            strict_failed, _, salvage_report = reader_survives(target)
            # The strict reader must refuse a file fsck calls damaged.
            assert strict_failed
            assert not salvage_report.clean
        assert missed == [], f"fsck missed body corruptions at {missed}"

    def test_header_flips_never_parse_silently_wrong(self, tmp_path, seed):
        original = fuzz_log(random.Random(seed))
        path, data, rng = write_fuzz_base(tmp_path, seed)
        target = str(tmp_path / "hdr.clog2")
        for _ in range(10):
            pos = rng.randrange(_HDR.size)
            flipped = bytearray(data)
            flipped[pos] ^= 1 << rng.randrange(8)
            if bytes(flipped) == data:
                continue
            with open(target, "wb") as fh:
                fh.write(bytes(flipped))
            report = fsck_path(target)
            strict_failed, log, _ = reader_survives(target)
            # Either the damage is flagged outright, or the surviving
            # parse carries intact records (a flip in clock resolution
            # or rank count cannot fake record content — the body CRCs
            # still held).
            if report.clean and not strict_failed:
                assert log.records == original.records

    def test_flip_corpus_is_deterministic(self, tmp_path, seed):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = write_fuzz_base(tmp_path / "a", seed)[1]
        b = write_fuzz_base(tmp_path / "b", seed)[1]
        assert a == b


@pytest.mark.parametrize("seed", SEEDS)
class TestTruncations:
    def test_every_truncation_is_detected(self, tmp_path, seed):
        path, data, rng = write_fuzz_base(tmp_path, seed)
        target = str(tmp_path / "cut.clog2")
        cuts = {rng.randrange(len(data)) for _ in range(CUTS_PER_SEED)}
        # Exact block boundaries are the adversarial case: every
        # surviving CRC is valid, only the header count disagrees.
        import struct
        pos = _HDR.size
        while pos < len(data):
            length, _ = struct.unpack_from("<II", data, pos)
            pos += 8 + length
            cuts.add(min(pos, len(data) - 1))
        for cut in sorted(cuts):
            with open(target, "wb") as fh:
                fh.write(data[:cut])
            report = fsck_path(target)
            assert not report.clean, f"fsck missed truncation at {cut}"
            if report.format != "unknown":
                assert report.truncation_only
                assert report.kinds() == {
                    KIND_TRUNCATION: len(report.issues)}
            strict_failed, log, salvage_report = reader_survives(target)
            assert strict_failed
            if report.format != "unknown":
                # Whatever survived is a prefix of the original stream.
                full = read_log(path).log
                assert log.records == full.records[:len(log.records)]

    def test_repair_then_rescan_is_clean(self, tmp_path, seed):
        path, data, rng = write_fuzz_base(tmp_path, seed)
        target = str(tmp_path / "cut.clog2")
        repaired = str(tmp_path / "repaired.clog2")
        for cut in sorted(rng.randrange(_HDR.size + 8, len(data))
                          for _ in range(5)):
            with open(target, "wb") as fh:
                fh.write(data[:cut])
            report = fsck_path(target, repair_to=repaired)
            assert report.truncation_only
            again = fsck_path(repaired)
            assert again.clean
            assert again.records_kept == report.records_kept


@pytest.mark.parametrize("seed", SEEDS)
class TestUnframedByteFlips:
    """Version-1 logs: no CRC, so a flip may decode into a different
    but well-formed record; what must hold is that strict either
    parses or raises Clog2FormatError and salvage always returns."""

    def test_random_body_flips(self, tmp_path, seed):
        path, data, rng = write_fuzz_base(tmp_path, seed, checksum=False)
        target = str(tmp_path / "flipped.clog2")
        for _ in range(FLIPS_PER_SEED):
            pos = rng.randrange(_HDR.size, len(data))
            flipped = bytearray(data)
            flipped[pos] ^= 1 << rng.randrange(8)
            with open(target, "wb") as fh:
                fh.write(bytes(flipped))
            reader_survives(target)

    def test_text_byte_flips(self, tmp_path, seed):
        # Random flips rarely land in a text, so aim these there,
        # setting the high bit: in an ASCII text that byte can no
        # longer decode.
        path, data, rng = write_fuzz_base(tmp_path, seed, checksum=False)
        offsets = text_offsets(data)
        assert offsets
        target = str(tmp_path / "flipped.clog2")
        for _ in range(FLIPS_PER_SEED):
            flipped = bytearray(data)
            flipped[rng.choice(offsets)] |= 0x80
            with open(target, "wb") as fh:
                fh.write(bytes(flipped))
            strict_failed, _, report = reader_survives(target)
            assert strict_failed
            assert not report.clean


#: Records per fuzzed partial: small enough to cut at every byte.
PARTIAL_RECORDS = 40


def write_fuzz_partial(tmp_path, seed, layout):
    """One rank's partial of ``layout`` ("rewrite" or "append") built
    from the seed's fuzz log, checkpointed every 8 records with a sync
    point midway; returns ``(path, bytes, rng)``."""
    rng = random.Random(seed)
    base = fuzz_log(rng)
    path = str(tmp_path / f"{layout}{seed}.part")
    log = RankLog(definitions=list(base.definitions),
                  sync_points=[SyncPoint(0.0, 0.0)])
    writer = (AppendPartialWriter(path, 0, base.clock_resolution)
              if layout == "append" else None)
    for i, rec in enumerate(base.records[:PARTIAL_RECORDS]):
        log.records.append(rec)
        if i == PARTIAL_RECORDS // 2:
            log.sync_points.append(SyncPoint(rec.timestamp, 1e-6))
        if writer is not None and i % 8 == 7:
            writer.checkpoint(log)
    if writer is None:
        write_partial(path, 0, log, base.clock_resolution)
    with open(path, "rb") as fh:
        return path, fh.read(), rng


def partial_readers_survive(path):
    """Strict read and tail either return or raise Clog2FormatError;
    salvage always returns a report.  Returns what strict and tail
    returned (``None`` where they raised or found no header)."""
    parsed = []
    for read in (lambda p: read_partial_log(p).partial, tail_partial):
        try:
            parsed.append(read(path))
        except Clog2FormatError:
            parsed.append(None)
    _, report = read_partial_log(path, errors="salvage")
    assert report is not None
    return parsed


@pytest.mark.parametrize("layout", ["rewrite", "append"])
@pytest.mark.parametrize("seed", SEEDS)
class TestPartialLayouts:
    def test_every_truncation(self, tmp_path, seed, layout):
        path, data, _ = write_fuzz_partial(tmp_path, seed, layout)
        full = read_partial_log(path).partial
        target = str(tmp_path / "cut.part")
        for cut in range(len(data)):
            with open(target, "wb") as fh:
                fh.write(data[:cut])
            for part in partial_readers_survive(target):
                # Strict and tail hold back a torn tail: whatever they
                # return is a prefix of the original stream.
                if part is not None:
                    assert part.records == full.records[:len(part.records)]

    def test_random_body_flips(self, tmp_path, seed, layout):
        path, data, rng = write_fuzz_partial(tmp_path, seed, layout)
        target = str(tmp_path / "flipped.part")
        for _ in range(FLIPS_PER_SEED):
            pos = rng.randrange(len(data))
            flipped = bytearray(data)
            flipped[pos] ^= 1 << rng.randrange(8)
            with open(target, "wb") as fh:
                fh.write(bytes(flipped))
            partial_readers_survive(target)
