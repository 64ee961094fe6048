"""Hook dispatch, PilotRun internals, and PilotResult timing fields."""

import pytest

from repro.pilot import PilotConfig, run_pilot
from repro.pilot.api import (
    PI_MAIN,
    PI_Compute,
    PI_Configure,
    PI_CreateChannel,
    PI_CreateProcess,
    PI_Read,
    PI_StartAll,
    PI_StopMain,
    PI_Write,
)
from repro.pilot.hooks import CallRecord, HookSet, PilotHooks


class Recorder(PilotHooks):
    """Captures every hook invocation for assertions."""

    def __init__(self):
        self.events = []

    def on_configure(self, rank, callsite):
        self.events.append(("configure", rank))

    def on_startall(self, rank, callsite):
        self.events.append(("startall", rank))

    def on_stopmain(self, rank, callsite):
        self.events.append(("stopmain", rank))

    def on_finalize(self, rank):
        self.events.append(("finalize", rank))

    def on_call_begin(self, call):
        self.events.append(("begin", call.rank, call.name))

    def on_call_end(self, call):
        self.events.append(("end", call.rank, call.name))

    def on_bubble(self, call, text):
        self.events.append(("bubble", call.rank, text.split(":")[0]))

    def on_send(self, call, dest, tag, nbytes):
        self.events.append(("send", call.rank, dest))

    def on_receive(self, call, src, tag, nbytes):
        self.events.append(("recv", call.rank, src))

    def on_block(self, call, waiting):
        self.events.append(("block", call.rank, tuple(waiting)))

    def on_unblock(self, call):
        self.events.append(("unblock", call.rank))


def pingpong(argv):
    chans = {}

    def work(i, _a):
        v = PI_Read(chans["to"], "%d")
        PI_Write(chans["back"], "%d", int(v) + 1)
        return 0

    PI_Configure(argv)
    p = PI_CreateProcess(work, 0)
    chans["to"] = PI_CreateChannel(PI_MAIN, p)
    chans["back"] = PI_CreateChannel(p, PI_MAIN)
    PI_StartAll()
    PI_Write(chans["to"], "%d", 1)
    assert int(PI_Read(chans["back"], "%d")) == 2
    PI_StopMain(0)


class TestHookDispatch:
    def run_recorded(self, **kw):
        rec = Recorder()
        res = run_pilot(pingpong, 2, extra_hooks=[rec], **kw)
        assert res.ok
        return rec.events

    def test_lifecycle_hooks_fire_per_rank(self):
        events = self.run_recorded()
        assert events.count(("configure", 0)) == 1
        assert events.count(("configure", 1)) == 1
        assert events.count(("startall", 0)) == 1
        assert events.count(("stopmain", 0)) == 1
        assert events.count(("stopmain", 1)) == 1  # work-function return
        assert events.count(("finalize", 0)) == 1
        assert events.count(("finalize", 1)) == 1

    def test_calls_bracketed(self):
        events = self.run_recorded()
        begins = [e for e in events if e[0] == "begin"]
        ends = [e for e in events if e[0] == "end"]
        assert len(begins) == len(ends) == 4  # 2 writes + 2 reads

    def test_block_unblock_pair_on_reads(self):
        events = self.run_recorded()
        blocks = [e for e in events if e[0] == "block"]
        unblocks = [e for e in events if e[0] == "unblock"]
        assert len(blocks) == len(unblocks) == 2
        # The worker waits on MAIN; MAIN waits on the worker.
        assert ("block", 1, (0,)) in events
        assert ("block", 0, (1,)) in events

    def test_sends_and_receives_symmetric(self):
        events = self.run_recorded()
        sends = [e for e in events if e[0] == "send"]
        recvs = [e for e in events if e[0] == "recv"]
        assert len(sends) == len(recvs) == 2

    def test_bubbles_on_both_sides(self):
        events = self.run_recorded()
        bubbles = [e for e in events if e[0] == "bubble"]
        sent = [b for b in bubbles if b[2] == "Sent"]
        arrived = [b for b in bubbles if b[2] == "Arrived"]
        assert len(sent) == 2 and len(arrived) == 2

    def test_multiple_hooks_all_fire_in_order(self):
        rec1, rec2 = Recorder(), Recorder()
        res = run_pilot(pingpong, 2, extra_hooks=[rec1, rec2])
        assert res.ok
        assert rec1.events == rec2.events


class TestHookSet:
    def test_dispatches_to_all(self):
        hooks = HookSet()
        a, b = Recorder(), Recorder()
        hooks.add(a)
        hooks.add(b)
        hooks.on_finalize(3)
        assert a.events == b.events == [("finalize", 3)]

    def test_unknown_attribute_rejected(self):
        with pytest.raises(AttributeError):
            HookSet().not_a_hook

    def test_event_no_hook_overrides_is_a_no_op(self):
        class FinalizeOnly(PilotHooks):
            def on_finalize(self, rank):
                pass

        hooks = HookSet()
        hooks.add(FinalizeOnly())
        call = CallRecord("PI_Read", 1, "P1", 0, None)
        assert hooks.on_block(call, [0]) is None
        assert hooks.on_block is HookSet().on_block

    def test_single_overriding_hook_is_bound_directly(self):
        hooks = HookSet()
        rec = Recorder()
        hooks.add(PilotHooks())
        hooks.add(rec)
        assert hooks.on_block == rec.on_block

    def test_second_hook_overriding_on_block_is_called(self):
        class BlockOnly(PilotHooks):
            def __init__(self):
                self.blocked = []

            def on_block(self, call, waiting):
                self.blocked.append(tuple(waiting))

        hooks = HookSet()
        rec, late = Recorder(), BlockOnly()
        hooks.add(rec)
        hooks.add(late)
        call = CallRecord("PI_Read", 1, "P1", 0, None)
        hooks.on_block(call, [0, 2])
        hooks.on_unblock(call)
        assert rec.events == [("block", 1, (0, 2)), ("unblock", 1)]
        assert late.blocked == [(0, 2)]

    def test_hooks_run_in_add_order(self):
        order = []

        class Named(PilotHooks):
            def __init__(self, name):
                self.name = name

            def on_finalize(self, rank):
                order.append((self.name, rank))

        hooks = HookSet()
        for name in "abc":
            hooks.add(Named(name))
        hooks.on_finalize(2)
        assert order == [("a", 2), ("b", 2), ("c", 2)]

    def test_fan_out_may_block_on_the_coroutine_scheduler(self, tmp_path):
        # With a second hook on the jumpshot logger's events, the
        # fan-out is what the rank calls; the logger's buffering charge
        # inside it must still advance virtual time, exactly as on the
        # threads backend.
        runs = {}
        for scheduler in ("threads", "coroutine"):
            rec = Recorder()
            log = tmp_path / f"{scheduler}.clog2"
            res = run_pilot(pingpong, 2, argv=("-pisvc=j",),
                            extra_hooks=[rec], config=PilotConfig(
                                scheduler=scheduler, mpe_log_path=str(log)))
            assert res.ok
            runs[scheduler] = (log.read_bytes(), res.total_time, rec.events)
        assert runs["threads"] == runs["coroutine"]

    def test_pilotcheck_capture_stops_at_startall(self):
        from repro.pilotcheck import capture_program

        def main(argv):
            PI_Configure(argv)
            worker = PI_CreateProcess(lambda i, a: 0, 0)
            to_worker = PI_CreateChannel(PI_MAIN, worker)
            PI_StartAll()
            raise AssertionError(f"ran past PI_StartAll ({to_worker})")

        captured = capture_program(main, 3)
        assert captured.started
        assert len(captured.channels) == 1
        assert "to_worker" in captured.main_locals


class TestResultTimings:
    def test_exec_end_before_total_with_mpe(self, tmp_path):
        opts = PilotConfig(mpe_log_path=str(tmp_path / "t.clog2"))
        res = run_pilot(pingpong, 2, argv=("-pisvc=j",), config=opts)
        assert res.exec_end_time <= res.total_time
        assert res.wrapup_time > 0
        assert res.mpe_log_path is not None

    def test_no_wrapup_without_logging(self):
        res = run_pilot(pingpong, 2)
        assert res.wrapup_time == pytest.approx(0.0, abs=1e-9)
        assert res.mpe_log_path is None

    def test_exec_ended_recorded_per_rank(self):
        res = run_pilot(pingpong, 2)
        assert set(res.run.exec_ended) == {0, 1}

    def test_compute_extends_exec_time(self):
        def slow(argv):
            PI_Configure(argv)
            PI_StartAll()
            PI_Compute(2.5)
            PI_StopMain(0)

        res = run_pilot(slow, 2)
        assert res.exec_end_time >= 2.5


class TestCallRecord:
    def test_detail_travels_to_call_end(self):
        captured = []

        class DetailHook(PilotHooks):
            def on_call_end(self, call: CallRecord):
                if call.name == "PI_Select":
                    captured.append(call.detail)

        from repro.pilot.api import BundleUsage, PI_CreateBundle, PI_Select

        def main(argv):
            chans = []

            def work(i, _a):
                PI_Write(chans[0], "%d", 1)
                return 0

            PI_Configure(argv)
            p = PI_CreateProcess(work, 0)
            chans.append(PI_CreateChannel(p, PI_MAIN))
            b = PI_CreateBundle(BundleUsage.SELECT, chans)
            PI_StartAll()
            PI_Select(b)
            PI_Read(chans[0], "%d")
            PI_StopMain(0)

        res = run_pilot(main, 2, extra_hooks=[DetailHook()])
        assert res.ok
        assert captured == ["Ready: channel index 0 (C0)"]
