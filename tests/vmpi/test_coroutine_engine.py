"""The coroutine task backend: parity with threads, and its edges.

The coroutine scheduler hosts every rank as a generator driven by one
trampoline; ``repro.vmpi.weave`` rewrites task code so blocking calls
``yield`` instead of parking an OS thread.  These tests pin the
contract down at the engine level: identical histories (results,
finish times, event/switch counts) on both backends, identical
deadlock diagnostics, loud errors — not silent deadlocks — when
un-woven code blocks, the comprehension desugaring that keeps the
common ``xs = [blocking(i) for i in ...]`` idiom working, and user
programs that must run alike on both: defaults, one twin per function
object, zero-argument ``super()``, ``with`` blocks, spread arguments,
call sites whose callee changes and call sites that let go of their
arguments once the call returns.
"""

import gc
import weakref

import pytest

from repro.vmpi import mpirun
from repro.vmpi.engine import SCHEDULERS, Engine
from repro.vmpi.errors import EngineError, SimulationDeadlock, TaskFailed

pytestmark = pytest.mark.parametrize("scheduler", SCHEDULERS)


def pipeline_history(scheduler):
    """A little app exercising advance, resources and rng determinism."""
    eng = Engine(seed=7, scheduler=scheduler)
    disk = eng.resource(capacity=1, name="disk")
    trace = []

    def body(rank):
        task = eng.current_task
        for step in range(3):
            eng.advance(task.rng.random() * 1e-3, "compute")
            with disk:
                eng.advance(2e-4, "io")
            trace.append((rank, step, round(eng.now, 9)))
        return rank * 10

    def make(rank):
        def fn():
            return body(rank)
        return fn

    for r in range(4):
        eng.spawn(make(r), rank=r)
    res = eng.run()
    return trace, res.results, res.finished_at, dict(eng.stats)


class TestParity:
    def test_history_matches_threads(self, scheduler):
        # The threads run is the reference; every backend must equal it.
        assert pipeline_history(scheduler) == pipeline_history("threads")

    def test_deadlock_diagnostics_match_threads(self, scheduler):
        def stalled(scheduler):
            eng = Engine(scheduler=scheduler)

            def fn():
                eng.block("waiting for a message that never comes")

            eng.spawn(fn, rank=0, name="lonely")
            eng.spawn(fn, rank=1, name="lonelier")
            with pytest.raises(SimulationDeadlock) as ei:
                eng.run()
            return ei.value

        exc, ref = stalled(scheduler), stalled("threads")
        assert exc.scheduler == scheduler
        assert ref.scheduler == "threads"
        # Everything user-facing is backend-independent.
        assert str(exc) == str(ref)
        assert exc.blocked == ref.blocked
        assert exc.details == ref.details
        assert exc.now == ref.now

    def test_check_then_set_needs_no_lock(self, scheduler):
        # Both backends run one rank at a time, so a critical section
        # that does not suspend (first creator wins, as in slot
        # creation) needs no lock on either.
        eng = Engine(scheduler=scheduler)
        slots = {}

        def fn():
            rank = eng.current_task.rank
            for _ in range(3):
                eng.advance(1e-4, "compute")
                if "owner" not in slots:
                    slots["owner"] = rank
            return slots["owner"]

        for r in range(3):
            eng.spawn(fn, rank=r)
        res = eng.run()
        assert set(res.results.values()) == {slots["owner"]}


class TestWeaveEdges:
    def test_blocking_lambda_raises_loudly(self, scheduler):
        eng = Engine(scheduler=scheduler)

        def fn():
            steps = list(map(lambda i: eng.advance(1e-4) or i, range(3)))
            return steps

        eng.spawn(fn, rank=0)
        if scheduler == "threads":
            assert eng.run().results[0] == [0, 1, 2]
        else:
            with pytest.raises(TaskFailed) as ei:
                eng.run()
            assert isinstance(ei.value.original, EngineError)
            assert "blocking call" in str(ei.value.original)

    def test_blocking_comprehension_in_call_position_raises(self, scheduler):
        # Not the whole value of an assignment => not desugared; on the
        # coroutine backend that must fail loudly, never deadlock.
        eng = Engine(scheduler=scheduler)

        def fn():
            return sum([eng.advance(1e-4) or i for i in range(3)])

        eng.spawn(fn, rank=0)
        if scheduler == "threads":
            assert eng.run().results[0] == 3
        else:
            with pytest.raises(TaskFailed) as ei:
                eng.run()
            assert "comprehension" in str(ei.value.original)


class TestComprehensionDesugaring:
    """Blocking list/set/dict comprehensions in assignment/return
    position run identically on both backends."""

    def test_assigned_listcomp_blocks_and_interleaves(self, scheduler):
        eng = Engine(seed=1, scheduler=scheduler)
        order = []

        def fn():
            rank = eng.current_task.rank
            stamps = [(order.append((rank, i)), eng.advance(1e-4), eng.now)[2]
                      for i in range(3)]
            return stamps

        eng.spawn(fn, rank=0)
        eng.spawn(fn, rank=1)
        res = eng.run()
        # Both ranks advance in lockstep: the comprehension really
        # yielded between elements (rather than running to completion
        # synchronously), so appends interleave.
        assert order == [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
        assert res.results[0] == res.results[1]
        assert res.results[0] == [pytest.approx(1e-4 * (i + 1))
                                  for i in range(3)]

    def test_returned_dictcomp_with_conditions(self, scheduler):
        eng = Engine(scheduler=scheduler)

        def cost(i):
            eng.advance(i * 1e-4)
            return eng.now

        def fn():
            return {i: cost(i) for i in range(5) if i % 2}

        eng.spawn(fn, rank=0)
        assert eng.run().results[0] == {1: pytest.approx(1e-4),
                                        3: pytest.approx(4e-4)}

    def test_nested_generators_and_setcomp(self, scheduler):
        eng = Engine(scheduler=scheduler)

        def tick(x):
            eng.advance(1e-5)
            return x

        def fn():
            pairs = [tick((a, b)) for a in range(3) for b in range(a)
                     if a + b != 3]
            seen = {tick(a + b) for a, b in pairs}
            return pairs, sorted(seen)

        eng.spawn(fn, rank=0)
        pairs, seen = eng.run().results[0]
        assert pairs == [(1, 0), (2, 0)]  # (2,1) filtered by the if
        assert seen == [1, 2]

    def test_loop_variables_do_not_leak_or_clobber(self, scheduler):
        eng = Engine(scheduler=scheduler)

        def tick(x):
            eng.advance(1e-5)
            return x

        def fn():
            i = "outer"
            doubled = [tick(i * 2) for i in range(3)]
            return i, doubled

        eng.spawn(fn, rank=0)
        assert eng.run().results[0] == ("outer", [0, 2, 4])


def _results(main, scheduler):
    res = mpirun(main, 2, scheduler=scheduler)
    assert res.ok
    return res.results


def _make_delayed(delay):
    # ``main`` closes over nothing: ``delay`` is read once, for the
    # default, in this frame.
    def main(comm, d=delay):
        comm.engine.advance(d, "work")
        return d
    return main


_DELAY = 0.1


def _make_global_delayed():
    # Every ``main`` shares one code object and no closure.
    def main(comm, d=_DELAY):
        comm.engine.advance(d, "work")
        return d
    return main


class _Base:
    def step(self, comm):
        comm.engine.advance(1e-3, "work")
        return comm.rank


class _Child(_Base):
    def step(self, comm):
        return super().step(comm) + 10


def _super_main(comm):
    return _Child().step(comm)


class _Traced:
    """A context manager that blocks on entry and exit, and logs both."""

    def __init__(self, comm, log, name, suppress=False):
        self.comm, self.log, self.name = comm, log, name
        self.suppress = suppress

    def __enter__(self):
        self.comm.engine.advance(1e-4, "enter")
        self.log.append(f"enter {self.name}")
        return self

    def __exit__(self, exc_type, exc, tb):
        self.comm.engine.advance(1e-4, "exit")
        self.log.append(f"exit {self.name} "
                        f"{exc_type and exc_type.__name__}")
        return self.suppress


class _NoExit:
    """A manager without ``__exit__``: ``with`` must refuse it before
    ``__enter__`` runs."""

    def __init__(self, log):
        self.log = log

    def __enter__(self):
        self.log.append("enter")
        return self


def _tick(comm, *xs, scale=1, **kw):
    comm.engine.advance(1e-4 * scale, "tick")
    return sum(xs) * scale, sorted(kw)


def _add_one(comm, x):
    comm.engine.advance(1e-4, "add")
    return x + 1


def _double(comm, x):
    comm.engine.advance(2e-4, "double")
    return x * 2


class _Negate:
    def apply(self, comm, x):
        comm.engine.advance(3e-4, "negate")
        return -x


class _Unhashable:
    """A callable object that defines ``__eq__`` and so has no hash."""

    def __eq__(self, other):
        return self is other

    def __call__(self, comm, x):
        return x * 3


class _Buffer:
    """A payload a weak reference can follow."""


class TestWovenUserCode:
    """User programs that run on threads run alike on coroutine."""

    def test_default_names_the_enclosing_scope(self, scheduler):
        assert _results(_make_delayed(0.5), scheduler) == {0: 0.5, 1: 0.5}

    def test_one_twin_per_function_object(self, scheduler, monkeypatch):
        first = _make_global_delayed()
        monkeypatch.setitem(globals(), "_DELAY", 0.7)
        second = _make_global_delayed()
        assert _results(first, scheduler) == {0: 0.1, 1: 0.1}
        assert _results(second, scheduler) == {0: 0.7, 1: 0.7}
        assert _results(first, scheduler) == {0: 0.1, 1: 0.1}

    def test_zero_argument_super(self, scheduler):
        assert _results(_super_main, scheduler) == {0: 10, 1: 11}

    def test_with_whose_exit_suppresses(self, scheduler):
        def main(comm):
            log = []
            with _Traced(comm, log, "m", suppress=True):
                comm.engine.advance(1e-4, "body")
                raise ValueError("suppressed")
            return log, round(comm.engine.now, 9)

        expect = (["enter m", "exit m ValueError"], 3e-4)
        assert _results(main, scheduler) == {0: expect, 1: expect}

    def test_with_two_items_and_as_targets(self, scheduler):
        def main(comm):
            log = []
            with _Traced(comm, log, "a") as a, _Traced(comm, log, "b") as b:
                log.append(a.name + b.name)
            return log, round(comm.engine.now, 9)

        expect = (["enter a", "enter b", "ab", "exit b None",
                   "exit a None"], 4e-4)
        assert _results(main, scheduler) == {0: expect, 1: expect}

    def test_with_whose_manager_has_no_exit(self, scheduler):
        def main(comm):
            log = []
            try:
                with _NoExit(log):
                    log.append("body")
            except Exception as exc:  # noqa: BLE001 - the type is the point
                log.append(type(exc).__name__)
            return log

        with pytest.raises(Exception) as plain:
            with _NoExit([]):
                pass
        expect = [type(plain.value).__name__]
        assert _results(main, scheduler) == {0: expect, 1: expect}

    def test_spread_arguments(self, scheduler):
        def main(comm):
            log = []

            def drain():
                for i in (1, 2):
                    log.append(i)
                    yield i

            args, kw = (1, 2), {"scale": 2, "tag": "t"}
            spread = _tick(comm, *args, **kw)
            nested = _tick(comm, *[_tick(comm, 3)[0]],
                           **{"z": _tick(comm, 4)[0]})
            # The iterator is drained where it is spread, between the
            # arguments around it.
            ordered = _tick(comm, log.append("g") or 0, *drain(),
                            log.append("h") or 0)
            return spread, nested, ordered, log, round(comm.engine.now, 9)

        expect = ((6, ["tag"]), (3, ["z"]), (3, []), ["g", 1, 2, "h"], 6e-4)
        assert _results(main, scheduler) == {0: expect, 1: expect}

    def test_unhashable_callable_object(self, scheduler):
        def main(comm):
            comm.engine.advance(1e-4, "work")
            return _Unhashable()(comm, comm.rank + 1)

        assert _results(main, scheduler) == {0: 3, 1: 6}

    def test_callee_changes_on_every_call(self, scheduler):
        def main(comm):
            x = comm.rank + 1
            for op in (_add_one, _double, _Negate().apply) * 3:
                x = op(comm, x)
            return x, round(comm.engine.now, 9)

        assert _results(main, scheduler) == {0: (-14, 1.8e-3),
                                             1: (-22, 1.8e-3)}

    def test_site_lets_go_of_its_arguments_once_the_call_returns(
            self, scheduler):
        refs = []

        def make():
            buf = _Buffer()
            refs.append(weakref.ref(buf))
            return buf

        def send(comm, buf):
            comm.send(buf, dest=1)

        def main(comm):
            if comm.rank == 1:
                comm.recv(source=0)
                comm.send(None, dest=0)
                return None
            send(comm, make())
            comm.recv(source=1)
            gc.collect()
            return refs[0]() is None

        assert _results(main, scheduler) == {0: True, 1: None}
