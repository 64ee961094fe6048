"""The coroutine task backend: parity with threads, and its edges.

The coroutine scheduler hosts every rank as a generator driven by one
trampoline; ``repro.vmpi.weave`` rewrites task code so blocking calls
``yield`` instead of parking an OS thread.  These tests pin the
contract down at the engine level: identical histories (results,
finish times, event/switch counts) on both backends, identical
deadlock diagnostics, loud errors — not silent deadlocks — when
un-woven code blocks, and the comprehension desugaring that keeps the
common ``xs = [blocking(i) for i in ...]`` idiom working.
"""

import pytest

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
