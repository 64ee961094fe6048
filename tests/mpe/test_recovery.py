"""Tolerant readers and the RecoveryReport accounting.

The strict readers reject damage; these tests check the tolerant twins
salvage everything salvageable and account every loss: torn final
chunks, mid-stream corruption, partials whose header is gone, and
merges with whole ranks missing.
"""

import os
import struct

import pytest

from repro.mpe.api import RankLog
from repro.mpe.clocksync import SyncPoint
from repro.mpe.clog2 import read_log, write_clog2
from repro.mpe.recovery import DroppedRange, RecoveryReport
from repro.mpe.records import BareEvent, EventDef, StateDef
from repro.mpe.salvage import (
    AppendPartialWriter,
    merge_partial_logs,
    partial_path,
    read_partial_log,
)


def fresh_log(rank=0, n=6):
    log = RankLog()
    log.definitions.append(StateDef(1, 2, "S", "red"))
    log.definitions.append(EventDef(3, "E", "yellow"))
    log.sync_points.append(SyncPoint(0.0, 0.0))
    log.records.extend(BareEvent(0.001 * i, rank, 3, f"r{rank}e{i}")
                       for i in range(n))
    return log


class TestRecoveryReport:
    def test_clean_and_empty_transitions(self):
        rep = RecoveryReport(source="x")
        assert rep.clean and rep.empty
        rep.records_kept = 5
        assert rep.clean and not rep.empty
        rep.drop("x", 10, 20, "torn", records=2)
        assert not rep.clean
        assert rep.bytes_dropped == 10
        assert rep.records_dropped == 2

    def test_crash_annotation_alone_stays_clean(self):
        rep = RecoveryReport(source="x")
        rep.mark_crashed(1, 0.5)
        assert rep.clean and not rep.empty
        assert "crashed" in rep.banner()

    def test_absorb_aggregates_children(self):
        parent = RecoveryReport(source="merge")
        child = RecoveryReport(source="r0")
        child.records_kept = 3
        child.drop("r0", 0, 4, "bad")
        child.mark_crashed(0, 1.0)
        child.note("hello")
        parent.absorb(child)
        assert parent.records_kept == 3
        assert parent.dropped_ranges == [DroppedRange("r0", 0, 4, "bad")]
        assert parent.crashed_ranks == {0: 1.0}
        assert parent.notes == ["hello"]

    def test_banner_shows_bytes_when_record_count_unknown(self):
        rep = RecoveryReport(source="x")
        rep.drop("x", 0, 7, "mystery")
        assert "7 bytes" in rep.banner()

    def test_summary_names_everything(self):
        rep = RecoveryReport(source="job")
        rep.records_kept = 9
        rep.missing_ranks.append(2)
        rep.mark_crashed(1)
        s = rep.summary()
        assert "job" in s and "9" in s
        assert "missing ranks 2" in s
        assert "crashed ranks 1" in s


class TestTolerantClog2:
    def test_intact_file_reads_clean(self, tmp_path):
        from repro.mpe.clog2 import Clog2File

        path = str(tmp_path / "ok.clog2")
        log = fresh_log()
        write_clog2(path, Clog2File(1e-6, 1, log.definitions, log.records))
        strict = read_log(path).log
        tolerant, rep = read_log(path, errors="salvage")
        assert rep.clean
        assert tolerant.records == strict.records
        assert tolerant.definitions == strict.definitions

    def test_truncated_tail_drops_only_the_tail(self, tmp_path):
        from repro.mpe.clog2 import Clog2File

        path = str(tmp_path / "cut.clog2")
        log = fresh_log(n=10)
        write_clog2(path, Clog2File(1e-6, 1, log.definitions, log.records))
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 5)
        with pytest.raises(Exception):
            read_log(path)
        tolerant, rep = read_log(path, errors="salvage")
        assert len(tolerant.records) == 9
        assert not rep.clean
        assert rep.records_dropped >= 1
        assert rep.dropped_ranges

    def test_midstream_garbage_resyncs(self, tmp_path):
        from repro.mpe.clog2 import Clog2File, _HDR

        path = str(tmp_path / "garbage.clog2")
        log = fresh_log(n=8)
        write_clog2(path, Clog2File(1e-6, 1, log.definitions, log.records))
        with open(path, "rb") as fh:
            data = fh.read()
        # Overwrite one whole record's type byte with an invalid value;
        # the reader must resync at a later record rather than give up.
        # Record layout: type byte, 16-byte f64+i32+i32 body, u16 len,
        # text — so the type byte sits 19 bytes before the text.
        target = data.index(b"r0e3") - 19
        mangled = data[:target] + b"\xee" + data[target + 1:]
        with open(path, "wb") as fh:
            fh.write(mangled)
        tolerant, rep = read_log(path, errors="salvage")
        assert not rep.clean
        texts = [r.text for r in tolerant.records]
        assert "r0e0" in texts and "r0e7" in texts  # ends survived
        assert len(tolerant.records) >= 6

    def test_hopeless_file_returns_empty_not_raise(self, tmp_path):
        path = str(tmp_path / "noise.clog2")
        with open(path, "wb") as fh:
            fh.write(b"\x00" * 64)
        tolerant, rep = read_log(path, errors="salvage")
        assert tolerant.records == []
        assert not rep.clean


class TestTolerantPartials:
    def test_torn_final_chunk_keeps_leading_records(self, tmp_path):
        path = str(tmp_path / "t.part")
        log = fresh_log(rank=2, n=4)
        writer = AppendPartialWriter(path, 2, 1e-8)
        writer.checkpoint(log)
        log.records.extend(BareEvent(1.0 + 0.001 * i, 2, 3, "late")
                           for i in range(3))
        writer.checkpoint(log)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 6)
        part, rep = read_partial_log(path, errors="salvage")
        assert part.rank == 2
        # All of chunk 1 plus the complete leading records of chunk 2.
        assert len(part.records) >= 4
        assert rep.records_dropped >= 1
        assert any("torn" in r.reason for r in rep.dropped_ranges)

    def test_unknown_chunk_kind_skipped(self, tmp_path):
        path = str(tmp_path / "u.part")
        log = fresh_log(rank=0, n=3)
        writer = AppendPartialWriter(path, 0, 1e-8)
        writer.checkpoint(log)
        # Append a chunk of an unknown kind, then a valid sync chunk.
        with open(path, "ab") as fh:
            fh.write(struct.pack("<BI", ord("Z"), 4) + b"zzzz")
            fh.write(struct.pack("<BI", ord("S"), 16)
                     + struct.pack("<dd", 1.0, 0.25))
        part, rep = read_partial_log(path, errors="salvage")
        assert len(part.records) == 3
        assert SyncPoint(1.0, 0.25) in part.sync_points
        assert any("unknown chunk kind" in r.reason
                   for r in rep.dropped_ranges)

    def test_headerless_garbage_identified_as_unusable(self, tmp_path):
        path = str(tmp_path / "g.part")
        with open(path, "wb") as fh:
            fh.write(os.urandom(40))
        part, rep = read_partial_log(path, errors="salvage")
        assert part.rank == -1
        assert not rep.clean


class TestTolerantMerge:
    def build_partials(self, tmp_path, ranks=(0, 1, 2)):
        base = str(tmp_path / "job.clog2")
        for rank in ranks:
            writer = AppendPartialWriter(partial_path(base, rank), rank, 1e-8)
            writer.checkpoint(fresh_log(rank=rank, n=5))
        return base

    def test_one_corrupt_partial_does_not_block_the_rest(self, tmp_path):
        base = self.build_partials(tmp_path)
        with open(partial_path(base, 1), "r+b") as fh:
            fh.write(b"XXXXXXXX")  # destroy the magic
        log, rep = merge_partial_logs(base, errors="salvage")
        ranks_seen = {r.rank for r in log.records}
        assert ranks_seen == {0, 2}
        assert 1 in rep.missing_ranks
        assert not rep.clean
        # The merged file on disk is strict-readable.
        assert read_log(base).log.num_ranks == 3

    def test_missing_rank_partial_detected(self, tmp_path):
        base = self.build_partials(tmp_path, ranks=(0, 2))
        log, rep = merge_partial_logs(base, errors="salvage")
        assert rep.missing_ranks == [1]
        assert {r.rank for r in log.records} == {0, 2}

    def test_expected_ranks_widens_the_check(self, tmp_path):
        base = self.build_partials(tmp_path, ranks=(0, 1))
        log, rep = merge_partial_logs(base, errors="salvage",
                                      expected_ranks=4)
        assert rep.missing_ranks == [2, 3]
        assert log.num_ranks == 4

    def test_crashed_ranks_annotated(self, tmp_path):
        base = self.build_partials(tmp_path)
        _, rep = merge_partial_logs(base, errors="salvage",
                                    crashed_ranks={2: 0.75})
        assert rep.crashed_ranks == {2: 0.75}
        assert rep.clean  # crash annotation alone is not data loss

    def test_no_partials_yields_empty_log_and_note(self, tmp_path):
        base = str(tmp_path / "nothing.clog2")
        log, rep = merge_partial_logs(base, errors="salvage")
        assert log.records == []
        assert rep.notes
