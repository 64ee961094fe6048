"""Salvage partials: O(new records) checkpoints and torn-chunk
recovery."""

import os
import struct

import pytest

from repro.mpe.api import RankLog
from repro.mpe.clocksync import SyncPoint
from repro.mpe.clog2 import Clog2FormatError
from repro.mpe.records import BareEvent, EventDef, StateDef
from repro.mpe.salvage import (
    AppendPartialWriter,
    read_partial_log,
    tail_partial,
)


def fresh_log():
    log = RankLog()
    log.definitions.append(StateDef(1, 2, "S", "red"))
    log.definitions.append(EventDef(3, "E", "yellow"))
    log.sync_points.append(SyncPoint(0.0, 0.0))
    return log


class TestAppendWriter:
    def test_incremental_checkpoints_accumulate(self, tmp_path):
        path = str(tmp_path / "a.part")
        log = fresh_log()
        writer = AppendPartialWriter(path, rank=1, clock_resolution=1e-8)
        log.records.extend(BareEvent(0.001 * i, 1, 3, f"r{i}")
                           for i in range(5))
        assert writer.checkpoint(log) == 5
        log.records.extend(BareEvent(0.01 + 0.001 * i, 1, 3, f"s{i}")
                           for i in range(3))
        assert writer.checkpoint(log) == 3
        part = read_partial_log(path).partial
        assert part.rank == 1
        assert len(part.records) == 8
        assert part.records == log.records
        assert part.definitions == log.definitions
        assert part.sync_points == log.sync_points

    def test_noop_checkpoint_appends_nothing(self, tmp_path):
        path = str(tmp_path / "b.part")
        log = fresh_log()
        writer = AppendPartialWriter(path, 0, 1e-8)
        log.records.append(BareEvent(0.0, 0, 3, ""))
        writer.checkpoint(log)
        size1 = os.path.getsize(path)
        assert writer.checkpoint(log) == 0
        assert os.path.getsize(path) == size1

    def test_definitions_written_once_even_without_records(self, tmp_path):
        path = str(tmp_path / "f.part")
        log = RankLog(definitions=fresh_log().definitions)
        writer = AppendPartialWriter(path, 0, 1e-8)
        # What ``fsck --repair`` writes when no record survived.
        writer.checkpoint(log)
        assert read_partial_log(path).partial.definitions == log.definitions
        log.sync_points.append(SyncPoint(0.0, 0.0))
        writer.checkpoint(log)
        log.records.append(BareEvent(0.0, 0, 3, ""))
        writer.checkpoint(log)
        part = read_partial_log(path).partial
        assert part.definitions == log.definitions
        assert len(part.records) == 1

    def test_appends_grow_linearly_not_quadratically(self, tmp_path):
        path = str(tmp_path / "c.part")
        log = fresh_log()
        writer = AppendPartialWriter(path, 0, 1e-8)
        sizes = []
        for batch in range(5):
            log.records.extend(BareEvent(batch + 0.001 * i, 0, 3, "x")
                               for i in range(10))
            writer.checkpoint(log)
            sizes.append(os.path.getsize(path))
        deltas = [b - a for a, b in zip(sizes, sizes[1:])]
        # Each batch appends ~the same number of bytes (re-serialising
        # the buffer would grow each delta by a whole buffer).
        assert max(deltas) - min(deltas) <= 4

    def test_torn_final_chunk_dropped(self, tmp_path):
        path = str(tmp_path / "d.part")
        log = fresh_log()
        writer = AppendPartialWriter(path, 2, 1e-8)
        log.records.extend(BareEvent(0.001 * i, 2, 3, "keep")
                           for i in range(4))
        writer.checkpoint(log)
        whole = os.path.getsize(path)
        log.records.append(BareEvent(1.0, 2, 3, "lost"))
        writer.checkpoint(log)
        # Simulate the abort landing mid-write of the second chunk.
        with open(path, "rb+") as fh:
            fh.truncate(whole + 3)
        part = read_partial_log(path).partial
        assert len(part.records) == 4
        assert all(r.text == "keep" for r in part.records)

    def test_late_sync_points_captured(self, tmp_path):
        path = str(tmp_path / "e.part")
        log = fresh_log()
        writer = AppendPartialWriter(path, 0, 1e-8)
        log.records.append(BareEvent(0.0, 0, 3, ""))
        writer.checkpoint(log)
        log.sync_points.append(SyncPoint(10.0, 0.5))  # end-of-run sync
        log.records.append(BareEvent(10.0, 0, 3, ""))
        writer.checkpoint(log)
        part = read_partial_log(path).partial
        assert len(part.sync_points) == 2
        assert part.sync_points[1].offset == 0.5


class TestMalformedPartials:
    """Short or inconsistent partials raise Clog2FormatError, never a
    raw ``struct.error`` from an unpack running off the end."""

    CASES = {
        # the retired rewrite layout's magic: refused, not parsed
        "rewrite-torn-sync-section":
            struct.pack("<8sII", b"CLOGPART", 0, 3) + bytes(20),
        # header torn 10 bytes after the magic
        "append-torn-header": b"CLOGPARA" + bytes(10),
        # a complete sync chunk too short to hold a sync point
        "append-short-sync-chunk":
            struct.pack("<8sIdI", b"CLOGPARA", 0, 1e-6, 0)
            + struct.pack("<BI", ord("S"), 4) + bytes(4),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_strict_read_raises_format_error(self, tmp_path, name):
        path = str(tmp_path / "bad.part")
        with open(path, "wb") as fh:
            fh.write(self.CASES[name])
        with pytest.raises(Clog2FormatError):
            read_partial_log(path)

    def test_tail_rejects_short_sync_chunk(self, tmp_path):
        path = str(tmp_path / "bad.part")
        with open(path, "wb") as fh:
            fh.write(self.CASES["append-short-sync-chunk"])
        with pytest.raises(Clog2FormatError):
            tail_partial(path)
