"""PI_Read / PI_Write behaviour: all format kinds on the wire, endpoint
checks, and the level-2 / level-3 checking paths."""

import numpy as np
import pytest

from repro.pilot.api import PI_Read, PI_Write

from tests.pilot.helpers import expect_abort_with, run_main_worker


def echo_roundtrip(write_fmt, write_args, read_fmt, read_args=(), *,
                   argv=(), config=None, nprocs=3):
    """Main writes, worker reads and sends back a marker; returns what
    the worker read."""
    got = {}

    def main(ctx):
        PI_Write(ctx.to[0], write_fmt, *write_args)
        PI_Read(ctx.frm[0], "%d")  # worker done marker

    def worker(ctx):
        got["value"] = PI_Read(ctx.to[ctx.index], read_fmt, *read_args)
        PI_Write(ctx.frm[ctx.index], "%d", 1)

    res = run_main_worker(main, worker, nprocs=nprocs, argv=argv,
                          config=config)
    return res, got.get("value")


class TestBasicTransfers:
    def test_int(self):
        res, v = echo_roundtrip("%d", (123,), "%d")
        assert res.ok and v == 123

    def test_multiple_items_single_call(self):
        res, v = echo_roundtrip("%d %lf %s", (1, 2.5, "three"), "%d %lf %s")
        assert res.ok and v == (1, 2.5, "three")

    def test_fixed_array(self):
        res, v = echo_roundtrip("%4d", ([1, 2, 3, 4],), "%4d")
        assert res.ok and list(v) == [1, 2, 3, 4]

    def test_runtime_array_lab2_pattern(self):
        # lab2: PI_Write "%d" then "%*d"; reader passes myshare back in.
        got = {}

        def main(ctx):
            data = np.arange(10, dtype=np.int32)
            PI_Write(ctx.to[0], "%d", len(data))
            PI_Write(ctx.to[0], "%*d", len(data), data)
            got["sum"] = PI_Read(ctx.frm[0], "%d")

        def worker(ctx):
            myshare = PI_Read(ctx.to[ctx.index], "%d")
            buff = PI_Read(ctx.to[ctx.index], "%*d", myshare)
            PI_Write(ctx.frm[ctx.index], "%d", int(buff.sum()))

        res = run_main_worker(main, worker)
        assert res.ok and got["sum"] == 45

    def test_autoalloc_v21_pattern(self):
        # Footnote 3: single-call replacement for the two reads.
        got = {}

        def main(ctx):
            data = np.arange(7, dtype=np.int32)
            PI_Write(ctx.to[0], "%^d", len(data), data)
            got["back"] = PI_Read(ctx.frm[0], "%d")

        def worker(ctx):
            myshare, buff = PI_Read(ctx.to[ctx.index], "%^d")
            assert myshare == 7 == len(buff)
            PI_Write(ctx.frm[ctx.index], "%d", int(buff.sum()))

        res = run_main_worker(main, worker)
        assert res.ok and got["back"] == 21

    def test_bytes_payload(self):
        res, v = echo_roundtrip("%b", (b"\x00\x01binary",), "%b")
        assert res.ok and v == b"\x00\x01binary"

    def test_empty_bytes(self):
        res, v = echo_roundtrip("%b", (b"",), "%b")
        assert res.ok and v == b""

    def test_char(self):
        res, v = echo_roundtrip("%c", ("Q",), "%c")
        assert res.ok and v == "Q"

    def test_float_dtype_on_wire(self):
        res, v = echo_roundtrip("%3f", (np.array([0.5, 1.5, 2.5]),), "%3f")
        assert res.ok and v.dtype == np.float32

    def test_many_sequential_messages_fifo(self):
        got = {}

        def main(ctx):
            for i in range(20):
                PI_Write(ctx.to[0], "%d", i)
            got["seq"] = PI_Read(ctx.frm[0], "%20d")

        def worker(ctx):
            vals = [int(PI_Read(ctx.to[ctx.index], "%d")) for _ in range(20)]
            PI_Write(ctx.frm[ctx.index], "%20d", vals)

        res = run_main_worker(main, worker)
        assert res.ok and list(got["seq"]) == list(range(20))


class TestEndpointChecks:
    def test_read_on_write_end(self):
        def main(ctx):
            PI_Read(ctx.to[0], "%d")  # MAIN is the writer of to[0]

        res = run_main_worker(main, lambda ctx: None)
        expect_abort_with(res, "WRONG_ENDPOINT")

    def test_write_on_read_end(self):
        def main(ctx):
            PI_Write(ctx.frm[0], "%d", 1)  # MAIN is the reader of frm[0]

        res = run_main_worker(main, lambda ctx: None)
        expect_abort_with(res, "WRONG_ENDPOINT")

    def test_write_needs_channel(self):
        def main(ctx):
            PI_Write("nope", "%d", 1)

        res = run_main_worker(main, lambda ctx: None)
        expect_abort_with(res, "BAD_ARGUMENTS")

    def test_bad_format_aborts(self):
        def main(ctx):
            PI_Write(ctx.to[0], "%zz", 1)

        res = run_main_worker(main, lambda ctx: None)
        expect_abort_with(res, "BAD_FORMAT")


class TestFormatMatchLevel2:
    def test_mismatch_detected_at_level2(self):
        def main(ctx):
            PI_Write(ctx.to[0], "%d", 1)

        def worker(ctx):
            PI_Read(ctx.to[ctx.index], "%lf")

        res = run_main_worker(main, worker, argv=("-picheck=2",))
        expect_abort_with(res, "FORMAT_MISMATCH")

    def test_count_mismatch_detected(self):
        def main(ctx):
            PI_Write(ctx.to[0], "%3d", [1, 2, 3])

        def worker(ctx):
            PI_Read(ctx.to[ctx.index], "%4d")

        res = run_main_worker(main, worker, argv=("-picheck=2",))
        expect_abort_with(res, "FORMAT_MISMATCH")

    def test_mismatch_ignored_below_level2(self):
        # At level 1 the wrong value arrives silently — C Pilot without
        # format checking would garble memory the same way.
        def main(ctx):
            PI_Write(ctx.to[0], "%d", 7)
            PI_Read(ctx.frm[0], "%d")

        def worker(ctx):
            PI_Read(ctx.to[ctx.index], "%u")
            PI_Write(ctx.frm[ctx.index], "%d", 1)

        res = run_main_worker(main, worker, argv=("-picheck=1",))
        assert res.ok


class TestStrictLevel3:
    def test_oversized_fixed_array_rejected(self):
        def main(ctx):
            PI_Write(ctx.to[0], "%2d", [1, 2, 3])

        res = run_main_worker(main, lambda ctx: None, argv=("-picheck=3",))
        expect_abort_with(res, "BAD_ARGUMENTS")

    def test_same_call_passes_at_level_1(self):
        def main(ctx):
            PI_Write(ctx.to[0], "%2d", [1, 2, 3])
            PI_Read(ctx.frm[0], "%d")

        def worker(ctx):
            PI_Read(ctx.to[ctx.index], "%2d")
            PI_Write(ctx.frm[ctx.index], "%d", 1)

        res = run_main_worker(main, worker, argv=("-picheck=1",))
        assert res.ok


class TestBlockingSemantics:
    def test_read_blocks_until_write(self):
        times = {}

        def main(ctx):
            from repro.pilot.api import PI_Compute

            PI_Compute(1.0)
            PI_Write(ctx.to[0], "%d", 5)
            PI_Read(ctx.frm[0], "%d")

        def worker(ctx):
            from repro.pilot.program import current_run

            PI_Read(ctx.to[ctx.index], "%d")
            times["unblocked"] = current_run().engine.now
            PI_Write(ctx.frm[ctx.index], "%d", 1)

        res = run_main_worker(main, worker)
        assert res.ok
        assert times["unblocked"] >= 1.0

    def test_write_does_not_block(self):
        # Eager sends: MAIN can write before the worker ever reads.
        def main(ctx):
            for i in range(5):
                PI_Write(ctx.to[0], "%d", i)
            PI_Read(ctx.frm[0], "%d")

        def worker(ctx):
            from repro.pilot.api import PI_Compute

            PI_Compute(0.5)  # dawdle before reading anything
            for _ in range(5):
                PI_Read(ctx.to[ctx.index], "%d")
            PI_Write(ctx.frm[ctx.index], "%d", 1)

        assert run_main_worker(main, worker).ok
