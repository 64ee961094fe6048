"""Property-based stress tests: random communication patterns must be
deterministic, live, and conservation-correct."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import vmpi


def random_program(n, plan, collect):
    """Build a main() from a per-rank plan of (op, arg) steps.

    Ops: ("compute", dt), ("send", dest), ("recv_count", k) — receive k
    messages from anyone.  The plan is constructed so global send and
    receive counts match, making the program deadlock-free.
    """

    def main(comm):
        rank = comm.rank
        for op, arg in plan[rank]:
            if op == "compute":
                vmpi.compute(comm, arg)
            elif op == "send":
                comm.send(("payload", rank), arg, tag=7)
            elif op == "recv_count":
                for _ in range(arg):
                    src, _ = comm.recv(tag=7), None
                    collect.append((rank, comm.engine.now))
        return rank

    return main


@st.composite
def plans(draw):
    """A random, globally-consistent communication plan."""
    n = draw(st.integers(2, 5))
    plan = {r: [] for r in range(n)}
    sends_to = {r: 0 for r in range(n)}
    nmsg = draw(st.integers(0, 12))
    for _ in range(nmsg):
        src = draw(st.integers(0, n - 1))
        dest = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            plan[src].append(("compute", draw(st.floats(0, 0.01))))
        plan[src].append(("send", dest))
        sends_to[dest] += 1
    # Receivers drain everything addressed to them at the end, so no
    # receive can wait on a send that never happens.
    for r in range(n):
        if draw(st.booleans()):
            plan[r].append(("compute", draw(st.floats(0, 0.01))))
        if sends_to[r]:
            plan[r].append(("recv_count", sends_to[r]))
    return n, plan


class TestRandomPrograms:
    @settings(deadline=None, max_examples=40)
    @given(plans())
    def test_all_messages_delivered(self, n_plan):
        n, plan = n_plan
        collect = []
        res = vmpi.mpirun(random_program(n, plan, collect), n)
        expected = sum(1 for steps in plan.values()
                       for op, arg in steps if op == "send")
        assert len(collect) == expected
        assert res.ok

    @settings(deadline=None, max_examples=20)
    @given(plans(), st.integers(0, 3))
    def test_deterministic_replay(self, n_plan, seed):
        n, plan = n_plan
        c1, c2 = [], []
        r1 = vmpi.mpirun(random_program(n, plan, c1), n, seed=seed)
        r2 = vmpi.mpirun(random_program(n, plan, c2), n, seed=seed)
        assert c1 == c2
        assert r1.finished_at == r2.finished_at
        assert r1.engine.stats == r2.engine.stats

    @settings(deadline=None, max_examples=20)
    @given(plans())
    def test_message_accounting(self, n_plan):
        n, plan = n_plan
        res = vmpi.mpirun(random_program(n, plan, []), n)
        expected = sum(1 for steps in plan.values()
                       for op, _ in steps if op == "send")
        assert res.comm.stats["messages"] == expected


class TestPilotStress:
    @settings(deadline=None, max_examples=15)
    @given(workers=st.integers(1, 6), rounds=st.integers(1, 8),
           seed=st.integers(0, 2))
    def test_master_worker_rounds(self, workers, rounds, seed):
        """Random-sized lab2-style programs always complete and their
        arithmetic always checks out."""
        from repro.pilot import PilotConfig, run_pilot
        from repro.pilot.api import (
            PI_MAIN,
            PI_Configure,
            PI_CreateChannel,
            PI_CreateProcess,
            PI_Read,
            PI_StartAll,
            PI_StopMain,
            PI_Write,
        )

        def main(argv):
            to_w, from_w = [], []

            def work(i, _a):
                for _ in range(rounds):
                    v = PI_Read(to_w[i], "%d")
                    PI_Write(from_w[i], "%d", int(v) * 2)
                return 0

            PI_Configure(argv)
            for i in range(workers):
                p = PI_CreateProcess(work, i)
                to_w.append(PI_CreateChannel(PI_MAIN, p))
                from_w.append(PI_CreateChannel(p, PI_MAIN))
            PI_StartAll()
            total = 0
            for r in range(rounds):
                for i in range(workers):
                    PI_Write(to_w[i], "%d", r + i)
                for i in range(workers):
                    total += int(PI_Read(from_w[i], "%d"))
            PI_StopMain(0)
            return total

        res = run_pilot(main, workers + 1, config=PilotConfig(seed=seed))
        expected = sum(2 * (r + i) for r in range(rounds)
                       for i in range(workers))
        assert res.vmpi.results[0] == expected
