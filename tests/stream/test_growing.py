"""Growing append-mode partials: a mid-write tail is held, never corrupted.

The regression this file pins down: reading a per-rank partial while
its writer is still appending must return the clean prefix plus a
resumable offset — the torn last chunk is *held* until the writer's
next checkpoint, not dropped and not misparsed.  Damage that waiting
cannot heal (a malformed chunk whose bytes are all present) raises.
"""

from __future__ import annotations

import struct
import threading
import time

import pytest

from repro.mpe.api import RankLog
from repro.mpe.clocksync import SyncPoint
from repro.mpe.clog2 import Clog2FormatError
from repro.mpe.records import BareEvent, EventDef, MsgEvent, StateDef
from repro.mpe.salvage import AppendPartialWriter, tail_partial

#: Append-partial header size (magic, rank, clock resolution, reserved).
HEADER = struct.calcsize("<8sIdI")


def sample_records(n_records: int) -> list:
    records = []
    for i in range(n_records):
        if i % 3 == 2:
            records.append(MsgEvent(i * 1e-3, 1, i % 2, 2, 7, 128))
        else:
            records.append(BareEvent(i * 1e-3, 1, 9, f"tick {i}"))
    return records


def fresh_log() -> RankLog:
    return RankLog(definitions=[StateDef(1, 2, "work", "RoyalBlue"),
                                EventDef(9, "tick", "red")],
                   sync_points=[SyncPoint(0.0, 0.0)])


def write_partial_bytes(tmp_path, n_records: int, *, syncs: bool) -> tuple:
    """An append partial checkpointed every 4 records (with a sync point
    per checkpoint when ``syncs``); returns ``(log, bytes)``."""
    path = str(tmp_path / "full.part")
    log = fresh_log()
    writer = AppendPartialWriter(path, 1, 1e-6)
    for i, rec in enumerate(sample_records(n_records)):
        log.records.append(rec)
        if i % 4 == 3:
            if syncs:
                log.sync_points.append(SyncPoint(rec.timestamp, i * 1e-7))
            writer.checkpoint(log)
    writer.checkpoint(log)
    with open(path, "rb") as fh:
        return log, fh.read()


def items_of(tail) -> list:
    return list(tail.definitions) + list(tail.records)


@pytest.mark.parametrize("magic_complete", [False, True])
def test_shorter_than_header_returns_none(tmp_path, magic_complete):
    _, data = write_partial_bytes(tmp_path, 4, syncs=False)
    path = str(tmp_path / "grow.part")
    with open(path, "wb") as fh:
        fh.write(data[:10 if magic_complete else 5])
    assert tail_partial(path) is None


@pytest.mark.parametrize("syncs", [False, True])
def test_every_cut_point_yields_clean_prefix(tmp_path, syncs):
    """Truncate the file at *every* byte boundary: no cut may ever
    produce a wrong item, a raise, or a non-resumable offset."""
    log, data = write_partial_bytes(tmp_path, 12, syncs=syncs)
    path = str(tmp_path / "grow.part")
    expected = list(log.definitions) + list(log.records)
    for cut in range(HEADER, len(data) + 1):
        with open(path, "wb") as fh:
            fh.write(data[:cut])
        got = tail_partial(path)
        # The held tail plus the consumed prefix always account for
        # every byte on disk — nothing silently vanishes.
        assert got.offset + got.torn_bytes == cut
        assert got.offset >= HEADER
        assert items_of(got) == expected[:len(items_of(got))]
    # The final (complete) cut parses everything.
    assert items_of(got) == expected
    assert got.sync_points == log.sync_points
    assert got.torn_bytes == 0


@pytest.mark.parametrize("syncs", [False, True])
def test_resume_from_offset_sees_no_duplicates(tmp_path, syncs):
    log, data = write_partial_bytes(tmp_path, 30, syncs=syncs)
    path = str(tmp_path / "grow.part")
    collected = []
    sync_points = []
    offset = 0
    # Grow the file in awkward 37-byte steps, polling after each.
    for cut in list(range(HEADER, len(data), 37)) + [len(data)]:
        with open(path, "wb") as fh:
            fh.write(data[:cut])
        got = tail_partial(path, offset)
        assert got.rank == 1
        assert got.offset >= offset
        offset = got.offset
        collected.extend(items_of(got))
        sync_points.extend(got.sync_points)
    assert collected == list(log.definitions) + list(log.records)
    assert sync_points == log.sync_points


def test_background_writer_thread_regression(tmp_path):
    """Poll ``tail_partial`` while a real ``AppendPartialWriter``
    checkpoints from another thread — the reader must converge on
    exactly the written items, once each, with only clean-prefix views
    on the way."""
    path = str(tmp_path / "live.part")
    log = fresh_log()
    records = sample_records(60)
    writer = AppendPartialWriter(path, 1, 1e-6)
    done = threading.Event()

    def write():
        for i, rec in enumerate(records):
            log.records.append(rec)
            if i % 3 == 2:
                writer.checkpoint(log)
                time.sleep(0.0005)
        writer.checkpoint(log)
        done.set()

    thread = threading.Thread(target=write, daemon=True)
    thread.start()
    try:
        collected: list = []
        offset = 0
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            finished = done.is_set()
            got = tail_partial(path, offset)
            if got is not None:
                offset = got.offset
                collected.extend(items_of(got))
                if finished and got.torn_bytes == 0:
                    break
            time.sleep(0.001)
        else:
            pytest.fail("reader never caught up with the writer")
    finally:
        thread.join(timeout=30.0)
    assert collected == list(log.definitions) + records


def test_malformed_complete_chunk_raises(tmp_path):
    """A *complete* chunk of an unknown kind is damage, not growth —
    waiting will not heal it, so the tail reader must raise, not hold."""
    _, data = write_partial_bytes(tmp_path, 8, syncs=False)
    path = str(tmp_path / "bad.part")
    with open(path, "wb") as fh:
        fh.write(data[:HEADER] + b"X" + data[HEADER + 1:])
    with pytest.raises(Clog2FormatError, match="unknown partial chunk kind"):
        tail_partial(path)


def test_v1_unknown_type_byte_raises(tmp_path):
    """An unknown type byte inside a complete record chunk (whose
    payload is a version-1 item stream) raises too."""
    _, data = write_partial_bytes(tmp_path, 8, syncs=False)
    pos = HEADER
    while data[pos] != ord("R"):  # skip the leading sync chunk(s)
        pos += 5 + struct.unpack_from("<BI", data, pos)[1]
    length = struct.unpack_from("<BI", data, pos)[1]
    path = str(tmp_path / "bad.part")
    with open(path, "wb") as fh:
        fh.write(data[:pos] + struct.pack("<BI", ord("R"), length + 1)
                 + b"\xee" + data[pos + 5:])
    with pytest.raises(Clog2FormatError, match="unknown record type"):
        tail_partial(path)
