"""Version-2 CRC block framing of CLOG2: round trips, backward
compatibility, detection and localization of corruption."""

import zlib

import pytest

from repro.mpe.api import MpeLogger, MpeOptions
from repro.mpe.clog2 import (
    CHECKSUM_VERSION,
    VERSION,
    Clog2ChecksumError,
    Clog2File,
    Clog2FormatError,
    read_header,
    read_log,
    timed,
    write_clog2,
    write_clog2_to,
)
from repro.mpe.records import BareEvent, EventDef, MsgEvent, StateDef
from repro.pilotcheck import lint_clog2
from repro.vmpi import mpirun

from tests.mpe.test_clog2 import sample_log


def big_log(n=400):
    defs = [StateDef(1, 2, "S", "red"), EventDef(3, "E", "blue")]
    recs = []
    for i in range(n):
        recs.append(BareEvent(i * 1e-4, i % 4, 1, f"i{i}"))
        recs.append(BareEvent(i * 1e-4 + 5e-5, i % 4, 2, ""))
        if i % 7 == 0:
            recs.append(MsgEvent(i * 1e-4 + 2e-5, i % 4, 0,
                                 (i + 1) % 4, 9, 64))
    return Clog2File(1e-6, 4, defs, recs)


class TestRoundTrip:
    def test_v2_round_trips_exactly(self, tmp_path):
        path = str(tmp_path / "v2.clog2")
        log = big_log()
        write_clog2(path, log, checksum=True)
        with open(path, "rb") as fh:
            header = read_header(fh)
        assert header.version == CHECKSUM_VERSION
        assert header.checksummed
        back = read_log(path).log
        assert back.definitions == log.definitions
        assert back.records == log.records

    def test_v1_default_unchanged(self, tmp_path):
        path = str(tmp_path / "v1.clog2")
        write_clog2(path, sample_log())
        with open(path, "rb") as fh:
            header = read_header(fh)
        assert header.version == VERSION
        assert not header.checksummed

    def test_framing_costs_only_block_headers(self, tmp_path):
        v1 = str(tmp_path / "a.clog2")
        v2 = str(tmp_path / "b.clog2")
        log = big_log()
        write_clog2(v1, log)
        write_clog2(v2, log, checksum=True)
        import os
        overhead = os.path.getsize(v2) - os.path.getsize(v1)
        # 8 bytes (length + crc32) per flushed block; a few blocks for
        # this log, never per-record.
        assert 0 < overhead < 8 * 64

    def test_streaming_writer_matches_eager_bytes(self, tmp_path):
        eager = str(tmp_path / "eager.clog2")
        streamed = str(tmp_path / "streamed.clog2")
        log = big_log()
        write_clog2(eager, log, checksum=True)
        # One-shot iterators: blocks are flushed and the header's record
        # count patched without the writer ever seeing the whole log.
        with open(streamed, "wb") as fh:
            write_clog2_to(fh, log.clock_resolution, log.num_ranks,
                           iter(log.definitions), timed(iter(log.records)),
                           checksum=True)
        with open(eager, "rb") as fa, open(streamed, "rb") as fb:
            assert fa.read() == fb.read()


class TestDetection:
    def corrupt(self, tmp_path, flip_at, *, n=400):
        path = str(tmp_path / "x.clog2")
        log = big_log(n)
        write_clog2(path, log, checksum=True)
        with open(path, "r+b") as fh:
            fh.seek(flip_at)
            byte = fh.read(1)
            fh.seek(flip_at)
            fh.write(bytes([byte[0] ^ 0xFF]))
        return path, log

    def test_strict_read_raises_checksum_error(self, tmp_path):
        path, _ = self.corrupt(tmp_path, 2000)
        with pytest.raises(Clog2ChecksumError):
            read_log(path)
        # ... which is still the general format-error family, so
        # existing error handling keeps working.
        with pytest.raises(Clog2FormatError):
            read_log(path)

    def test_salvage_localizes_damage_to_one_block(self, tmp_path):
        # Blocks are the writer's ~256 KiB flush slabs, so localization
        # only shows on a file big enough to span several of them.
        path, log = self.corrupt(tmp_path, 300_000, n=15_000)
        salvaged, report = read_log(path, errors="salvage")
        assert not report.clean
        assert report.records_dropped > 0
        # Exactly one block died; everything before and after survives.
        assert len(salvaged.records) > len(log.records) // 2
        assert len(report.dropped_ranges) == 1
        assert "checksum mismatch" in report.dropped_ranges[0].reason
        # Records from both sides of the dead block are present.
        assert salvaged.records[0] == log.records[0]
        assert salvaged.records[-1] == log.records[-1]

    def test_lint_reports_tr008(self, tmp_path):
        path, _ = self.corrupt(tmp_path, 2000)
        codes = {f.code for f in lint_clog2(path)}
        assert "TR008" in codes

    def test_v1_bitflip_is_not_tr008(self, tmp_path):
        # Version-1 damage stays TR005: no CRC, so "checksum mismatch"
        # would be a lie.
        path = str(tmp_path / "v1.clog2")
        write_clog2(path, big_log())
        with open(path, "r+b") as fh:
            fh.seek(900)
            fh.write(b"\xff\xff\xff\xff\xff\xff")
        codes = {f.code for f in lint_clog2(path)}
        assert "TR008" not in codes

    def test_crc_actually_covers_the_payload(self, tmp_path):
        path = str(tmp_path / "x.clog2")
        write_clog2(path, sample_log(), checksum=True)
        with open(path, "rb") as fh:
            data = fh.read()
        # Independent check of the on-disk framing: after the header,
        # each block is <u32 len><u32 crc><payload>.
        import struct
        from repro.mpe.clog2 import _HDR
        pos = _HDR.size
        blocks = 0
        while pos < len(data):
            length, crc = struct.unpack_from("<II", data, pos)
            payload = data[pos + 8:pos + 8 + length]
            assert zlib.crc32(payload) == crc
            pos += 8 + length
            blocks += 1
        assert blocks >= 1


class TestPipelineIntegration:
    def run_logged(self, path, options):
        def main(comm):
            mpe = MpeLogger(comm, options)
            mpe.init_log()
            pair = mpe.get_state_eventIDs()
            mpe.describe_state(*pair, "S", "red")
            for _ in range(4):
                mpe.log_event(pair[0])
                comm.engine.advance(1e-4, "work")
                mpe.log_event(pair[1])
            mpe.log_sync_clocks()
            return mpe.finish_log(path)

        return mpirun(main, 2)

    def test_mpe_options_checksum_threads_through(self, tmp_path):
        path = str(tmp_path / "merged.clog2")
        res = self.run_logged(path, MpeOptions(checksum=True))
        assert res.ok
        with open(path, "rb") as fh:
            assert read_header(fh).version == CHECKSUM_VERSION
        assert lint_clog2(path) == []

    def test_default_merge_stays_v1(self, tmp_path):
        path = str(tmp_path / "merged.clog2")
        self.run_logged(path, MpeOptions())
        with open(path, "rb") as fh:
            assert read_header(fh).version == VERSION

    def test_checksummed_and_plain_carry_identical_records(self, tmp_path):
        a = str(tmp_path / "plain.clog2")
        b = str(tmp_path / "crc.clog2")
        self.run_logged(a, MpeOptions())
        self.run_logged(b, MpeOptions(checksum=True))
        la = read_log(a).log
        lb = read_log(b).log
        assert la.records == lb.records
        assert la.definitions == lb.definitions
