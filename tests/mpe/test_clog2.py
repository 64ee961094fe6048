"""CLOG2 binary format: round-trips, limits, corruption handling."""

import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpe.clog2 import (
    Clog2File,
    Clog2FormatError,
    read_image,
    read_log,
    write_clog2,
)
from repro.mpe.records import TEXT_LIMIT, BareEvent, EventDef, MsgEvent, StateDef


def sample_log():
    return Clog2File(
        clock_resolution=1e-6,
        num_ranks=3,
        definitions=[
            StateDef(1, 2, "PI_Read", "red"),
            StateDef(3, 4, "PI_Write", "green"),
            EventDef(5, "PI_Read msg", "yellow"),
        ],
        records=[
            BareEvent(0.001, 0, 3, "Line: 10"),
            MsgEvent(0.0015, 0, 0, 1, 7, 128),
            BareEvent(0.002, 1, 1, "Line: 20"),
            MsgEvent(0.0025, 1, 1, 0, 7, 128),
            BareEvent(0.003, 1, 5, "Arrived: len=4"),
            BareEvent(0.004, 1, 2, ""),
            BareEvent(0.005, 0, 4, ""),
        ],
    )


class TestRoundTrip:
    def test_exact_roundtrip(self, tmp_path):
        path = str(tmp_path / "x.clog2")
        log = sample_log()
        write_clog2(path, log)
        back = read_log(path).log
        assert back.definitions == log.definitions
        assert back.records == log.records
        assert back.num_ranks == 3
        assert back.clock_resolution == 1e-6

    def test_states_events_accessors(self):
        log = sample_log()
        assert [s.name for s in log.states] == ["PI_Read", "PI_Write"]
        assert [e.name for e in log.events] == ["PI_Read msg"]

    def test_empty_log(self, tmp_path):
        path = str(tmp_path / "empty.clog2")
        write_clog2(path, Clog2File(1e-6, 1, [], []))
        back = read_log(path).log
        assert back.records == [] and back.definitions == []

    def test_unicode_text(self, tmp_path):
        path = str(tmp_path / "u.clog2")
        log = Clog2File(1e-6, 1, [EventDef(1, "é vén t", "blue")],
                        [BareEvent(0.0, 0, 1, "héllo wörld")])
        write_clog2(path, log)
        back = read_log(path).log
        assert back.records[0].text == "héllo wörld"

    @settings(deadline=None, max_examples=30)
    @given(rows=st.lists(st.tuples(
        st.floats(0, 1e6, allow_nan=False),
        st.integers(0, 31),
        st.integers(1, 1000),
        st.text(max_size=10),
    ), max_size=40))
    def test_bare_event_roundtrip_property(self, rows, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("clog") / "p.clog2")
        records = [BareEvent(t, r, e, txt) for t, r, e, txt in rows]
        write_clog2(path, Clog2File(1e-6, 32, [], records))
        assert read_log(path).log.records == records


class TestLimits:
    def test_event_text_capped_at_40_bytes(self):
        # The MPE limit from the paper (Section III): text is "limited
        # to 40 bytes".
        ev = BareEvent(0.0, 0, 1, "x" * 100)
        assert len(ev.text.encode()) <= TEXT_LIMIT

    def test_truncation_respects_utf8(self):
        ev = BareEvent(0.0, 0, 1, "é" * 40)  # 80 bytes of 2-byte chars
        raw = ev.text.encode("utf-8")
        assert len(raw) <= TEXT_LIMIT
        raw.decode("utf-8")  # must not raise


def foreign_image(texts: list[bytes]) -> bytes:
    """A version-1 image holding one BareEvent per raw text, packed by
    hand the way a writer that does not clamp (another MPE build, a
    hand-edited file) would store it."""
    image = struct.pack("<8sHdiI", b"CLOG2PY1", 1, 1e-6, 1, len(texts))
    for i, raw in enumerate(texts):
        image += struct.pack("<BdiiH", 0x03, i * 1e-3, 0, 1, len(raw)) + raw
    return image


class TestStrictFastPath:
    """The strict reader builds records without their constructor; the
    result must be indistinguishable from constructor-built records."""

    def test_records_equal_hash_and_pickle_like_constructed(self, tmp_path):
        path = str(tmp_path / "x.clog2")
        log = sample_log()
        write_clog2(path, log)
        back = read_log(path).log.records
        assert back == log.records
        for got, want in zip(back, log.records):
            assert type(got) is type(want)
            assert hash(got) == hash(want)
            assert vars(got) == vars(want)
            assert repr(got) == repr(want)
            assert pickle.loads(pickle.dumps(got)) == want
        assert pickle.loads(pickle.dumps(back)) == log.records

    def test_records_stay_frozen(self, tmp_path):
        path = str(tmp_path / "x.clog2")
        write_clog2(path, sample_log())
        rec = read_log(path).log.records[0]
        with pytest.raises(AttributeError):
            rec.timestamp = 1.0

    def test_foreign_long_text_clamped_at_char_boundary(self):
        # 1 + 30 * 2 = 61 bytes: the 40-byte cut falls inside an "é".
        long_text = ("a" + "é" * 30).encode("utf-8")
        exact = ("b" * TEXT_LIMIT).encode("utf-8")
        over = ("c" * (TEXT_LIMIT + 1)).encode("utf-8")
        log = read_image(foreign_image([long_text, exact, over]))
        texts = [r.text for r in log.records]
        assert texts[0] == "a" + "é" * 19
        assert len(texts[0].encode("utf-8")) == TEXT_LIMIT - 1
        assert texts[1] == "b" * TEXT_LIMIT
        assert texts[2] == "c" * TEXT_LIMIT
        # Same result as building the records through the constructor.
        assert log.records == [
            BareEvent(i * 1e-3, 0, 1, raw.decode("utf-8"))
            for i, raw in enumerate([long_text, exact, over])]


class TestCorruption:
    def test_damaged_text_byte_unframed_raises_format_error(self, tmp_path):
        # Version-1 logs (the -pisvc=j default) carry no CRC, so a
        # damaged text byte reaches the UTF-8 decoder.
        path = str(tmp_path / "text.clog2")
        write_clog2(path, sample_log())
        data = bytearray(open(path, "rb").read())
        at = data.index(b"Line: 10")
        data[at] = 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(Clog2FormatError, match="undecodable text"):
            read_log(path)
        log, report = read_log(path, errors="salvage")
        assert not report.clean
        assert len(log.records) < len(sample_log().records)

    def test_damaged_definition_name_unframed_raises_format_error(
            self, tmp_path):
        path = str(tmp_path / "def.clog2")
        write_clog2(path, sample_log())
        data = bytearray(open(path, "rb").read())
        data[data.index(b"PI_Write")] = 0xC3  # lead byte, no continuation
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(Clog2FormatError):
            read_log(path)

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.clog2")
        with open(path, "wb") as fh:
            fh.write(b"NOTCLOG2" + b"\0" * 40)
        with pytest.raises(Clog2FormatError):
            read_log(path)

    def test_truncated_file(self, tmp_path):
        path = str(tmp_path / "trunc.clog2")
        write_clog2(path, sample_log())
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[:len(data) - 5])
        with pytest.raises(Clog2FormatError):
            read_log(path)

    def test_record_count_mismatch(self, tmp_path):
        path = str(tmp_path / "count.clog2")
        write_clog2(path, sample_log())
        data = bytearray(open(path, "rb").read())
        # The u32 record count lives at header offset 22 (<8sHdiI).
        data[22:26] = (99).to_bytes(4, "little")
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(Clog2FormatError):
            read_log(path)

    def test_unknown_record_type_byte(self, tmp_path):
        path = str(tmp_path / "weird.clog2")
        write_clog2(path, Clog2File(1e-6, 1, [], []))
        with open(path, "ab") as fh:
            fh.write(b"\x7f")
        with pytest.raises(Clog2FormatError):
            read_log(path)
