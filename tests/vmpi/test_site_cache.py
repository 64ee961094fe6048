"""Call-site caches and the threads backend's one-thread wake.

On the coroutine scheduler every woven ``repro`` call site remembers
its last callee (``repro.vmpi.weave``, "Call-site caches"): a call to
the same function runs the cached twin directly, any other callee
takes the slow path through ``w_call``.  These tests pin that a cache
never runs a stale callee — a rebound global or method, a twin
registered after the site was filled, engines on several threads
sharing a site — and that a callee the cache runs as a plain call
still fails loudly when it blocks.

On the threads scheduler a handoff wakes only the thread that runs
next: the scheduler notifies the resumed task's own condition, and a
task that yields notifies only the scheduler's.
"""

import io
import sys
import threading
import time

import pytest

from repro import vmpi
from repro.mpe import MpeLogger
from repro.pilot import PilotConfig, run_pilot
from repro.pilot import rw as pilot_rw
from repro.pilot.program import PilotRun
from repro.vmpi import engine as engine_mod
from repro.vmpi import weave
from repro.vmpi.collectives import allreduce
from repro.vmpi.engine import Engine
from repro.vmpi.errors import EngineError, TaskFailed

from tests.vmpi.test_weave_proof import _pingpong_main


def _pingpong():
    return run_pilot(_pingpong_main, 2,
                     config=PilotConfig(scheduler="coroutine"))


class TestRebinding:
    """``PI_Write``'s ``rw.do_write(...)`` is a function site and
    ``run.charge(...)`` a method site; both are filled by a first run
    before the callee is rebound."""

    def test_rebound_function_that_may_block_is_honoured(self, monkeypatch):
        assert _pingpong().ok
        real = pilot_rw.do_write
        formats = []

        def rebound(run, channel, fmt, args, cs):
            formats.append(fmt)
            return real(run, channel, fmt, args, cs)

        monkeypatch.setattr(pilot_rw, "do_write", rebound)
        assert _pingpong().ok
        assert formats == ["%d", "%d"]

    def test_rebound_method_that_may_block_is_honoured(self, monkeypatch):
        assert _pingpong().ok
        real = PilotRun.charge
        charged = []

        def rebound(self, seconds):
            charged.append(seconds)
            return real(self, seconds)

        monkeypatch.setattr(PilotRun, "charge", rebound)
        assert _pingpong().ok
        assert charged

    def test_rebound_function_that_blocks_synchronously_raises(
            self, monkeypatch):
        """A lambda is never woven, so the site caches it as a plain
        call; blocking from it must fail as loudly as before."""
        assert _pingpong().ok
        real = pilot_rw.do_write
        monkeypatch.setattr(pilot_rw, "do_write", lambda run, *args: (
            run.engine.advance(1e-6, "rebound"), real(run, *args))[1])
        with pytest.raises(TaskFailed) as ei:
            _pingpong()
        assert isinstance(ei.value.original, EngineError)
        assert "reached the engine synchronously" in str(ei.value.original)

    def test_rebound_method_that_blocks_synchronously_raises(
            self, monkeypatch):
        assert _pingpong().ok
        monkeypatch.setattr(PilotRun, "charge", lambda self, seconds: (
            self.engine.advance(seconds, "rebound")))
        with pytest.raises(TaskFailed) as ei:
            _pingpong()
        assert isinstance(ei.value.original, EngineError)
        assert "reached the engine synchronously" in str(ei.value.original)


def test_twin_registered_after_the_site_filled_is_honoured(monkeypatch):
    real = pilot_rw.do_write

    def shim(run, channel, fmt, args, cs):
        return real(run, channel, fmt, args, cs)

    monkeypatch.setattr(pilot_rw, "do_write", shim)
    assert _pingpong().ok  # the site now caches shim's woven twin
    formats = []

    def shim_twin(run, channel, fmt, args, cs):
        formats.append(fmt)
        return (yield from weave.woven_twin(real)(run, channel, fmt, args,
                                                   cs))

    # setitem first, so teardown deletes the registration again.
    monkeypatch.setitem(weave._TWINS, shim, shim_twin)
    weave.register_twin(shim, shim_twin)
    assert _pingpong().ok
    assert formats == ["%d", "%d"]


def test_with_over_c_type_managers_hits_the_cache(monkeypatch):
    """``type(mgr).__enter__``/``__exit__`` of a lock or a ``BytesIO``
    is an unbound C method; the sites cache it as a plain call, so a
    loop of 100 such ``with`` blocks per manager fills each site once
    (403 dispatches when C methods were never cached)."""
    slow = []
    real_w_call = weave.w_call

    def counting_w_call(fn, /, *args, **kwargs):
        slow.append(getattr(fn, "__name__", fn))
        return (yield from real_w_call(fn, *args, **kwargs))

    monkeypatch.setattr(weave, "w_call", counting_w_call)
    weave._empty_sites()
    lock = threading.Lock()

    def main(comm):
        for _ in range(100):
            with lock:
                pass
            with io.BytesIO() as buf:
                buf.write(b"x")
        return comm.rank

    res = vmpi.mpirun(main, 1, scheduler="coroutine")
    assert res.ok
    # One miss per site: two ``__enter__`` and two ``__exit__`` sites.
    assert slow.count("__enter__") == 2, slow
    assert slow.count("__exit__") == 2, slow
    assert len(slow) <= 7, slow


def _plus(a, b):
    return a + b


def _times(a, b):
    return a * b % 997 + 1


def _xor(a, b):
    return (a ^ b) + 3


_OPS = (_plus, _times, _xor)


def _reduce_world(op, path):
    """Four ranks allreduce with ``op`` 40 times; each result sets the
    next compute time and is logged, so a call of the wrong ``op``
    changes the CLOG2 bytes.  Every reduction goes through one call
    site: ``op(value, other)`` in ``repro.vmpi.collectives.reduce``."""
    box = {}

    def main(comm):
        mpe = box.setdefault("logger", MpeLogger(comm))
        mpe.init_log()
        start, end = mpe.get_state_eventIDs()
        mpe.describe_state(start, end, "reduce", "red")
        value = comm.rank + 1
        for _ in range(40):
            mpe.log_event(start)
            value = allreduce(comm, value, op=op) % 1000 + comm.rank
            comm.engine.advance(value * 1e-7, "work")
            mpe.log_event(end, str(value))
        mpe.log_sync_clocks()
        return mpe.finish_log(path)

    res = vmpi.mpirun(main, 4, scheduler="coroutine")
    assert res.ok
    with open(path, "rb") as fh:
        return fh.read()


def test_engines_on_several_threads_share_a_site(tmp_path):
    """Three coroutine engines, one per thread (more threads than the
    CPUs of a small host), call one site with different callees; the
    thread switch interval is cut so they swap the site's entry
    mid-run.  Each log equals its solo run's."""
    solo = {op: _reduce_world(op, str(tmp_path / f"solo-{op.__name__}"))
            for op in _OPS}
    assert len(set(solo.values())) == len(_OPS)
    out, errors = {}, []

    def run(op):
        try:
            out[op] = _reduce_world(op, str(tmp_path / f"duo-{op.__name__}"))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(op,)) for op in _OPS]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert out == solo


class _CountingCondition(threading.Condition):
    """A condition that logs who it notifies."""

    def __init__(self, lock, log, label):
        super().__init__(lock)
        self.log = log
        self.label = label

    def notify(self, n=1):
        self.log.append(self.label)
        super().notify(n)

    def notify_all(self):
        self.log.append(("all", self.label))
        super().notify_all()


def _counting_engine(log):
    class CountingEngine(Engine):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self._sched = _CountingCondition(self._lock, log, "sched")

        def _make_task(self, rank, fn, name):
            task = super()._make_task(rank, fn, name)
            task._wake = _CountingCondition(self._lock, log, rank)
            return task

    return CountingEngine(scheduler="threads")


class TestThreadsWake:
    def test_each_handoff_notifies_exactly_one_task(self, monkeypatch):
        """Three ranks pass a token round a ring, blocking and waking
        each other.  Every resume of a started rank notifies that
        rank's condition once and no other; every return to the
        scheduler notifies the scheduler's once."""
        log, resumed = [], []
        eng = _counting_engine(log)
        real_switch = engine_mod.ThreadTask._switch_to

        def switch_to(task):
            resumed.append((task.rank, task.thread.is_alive()))
            log.append(("resume", task.rank))
            real_switch(task)

        monkeypatch.setattr(engine_mod.ThreadTask, "_switch_to", switch_to)
        laps = 20

        def ring(rank):
            for lap in range(laps):
                if rank or lap:
                    eng.block("token")
                eng.advance(1e-6 * (rank + 1), "work")
                eng.wake(eng.tasks[(rank + 1) % 3])

        for rank in range(3):
            eng.spawn(lambda rank=rank: ring(rank), rank=rank)
        eng.run()
        assert not any(isinstance(e, tuple) and e[0] == "all" for e in log)
        # A resume notifies only the resumed rank (unless it starts the
        # rank's thread), and nothing else is notified until the
        # scheduler is told the rank yielded or ended.
        expect = []
        for rank, alive in resumed:
            expect.append(("resume", rank))
            if alive:
                expect.append(rank)
            expect.append("sched")
        assert log == expect
        assert len(resumed) > 3 * laps

    def test_rank_parked_outside_the_engine_still_times_out(
            self, monkeypatch):
        """While rank 0 waits on its own condition, rank 1 sleeps
        outside the engine: the scheduler's wait times out with no
        event having happened, and says so."""
        timeout = 0.05
        monkeypatch.setattr(engine_mod, "_HANDOFF_TIMEOUT", timeout)
        log = []
        eng = _counting_engine(log)
        eng.spawn(lambda: eng.block("forever"), rank=0)
        eng.spawn(lambda: time.sleep(4 * timeout), rank=1)
        with pytest.raises(EngineError,
                           match="handoff to task rank1 timed out"):
            eng.run()
        eng.tasks[1].thread.join()
        # Release rank 0 too, so no thread outlives the test.
        eng._abort_locked_free(1, -1, "teardown")
        eng._drain_threads()
        assert eng.tasks[0].aborted
        assert log == ["sched", "sched", 0, "sched"]
