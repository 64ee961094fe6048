"""The dedicated service rank: native call log + deadlock detector.

Pilot has always run these on one extra MPI process (paper Section I:
API events flow "to a central logging process (the same one running the
deadlock detector)").  This module reproduces that design *including
its documented flaws*, because the paper's motivation depends on them:

1. native-log timestamps are taken when the event **arrives** at the
   service rank, not when the call happened (complaint (1) — benchmark
   A4 measures the resulting error);
2. events from all processes are conglomerated into one file
   (complaint (2));
3. the format is terse to the point of being "scarcely human readable"
   (complaint (3)).

The deadlock detector builds a wait-for graph from block/unblock events
and is given a chance to analyse it whenever the simulation stalls.
Unlike the MPE log, the native log survives PI_Abort because every
record is flushed to disk as it is received (paper Section III.B).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import networkx as nx

from repro.pilot.hooks import CallRecord, PilotHooks
from repro.pilot.program import SERVICE_TAG, PilotRun
from repro.vmpi.comm import ANY_SOURCE, Message
from repro.vmpi.engine import Engine, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro._util.callsite import CallSite


class ServiceFeedHook(PilotHooks):
    """Runs on application ranks: streams events to the service rank.

    Exactly one event per API call is sent (the historical behaviour the
    paper criticises: "only one event per API call was reported, which
    is not enough to establish state duration", Section III.C).
    """

    def __init__(self, run: PilotRun) -> None:
        self.run = run

    def _send(self, record: tuple) -> None:
        svc = self.run.service_rank
        if svc is None or self.run.rank == svc:
            return
        self.run.comm.send(record, dest=svc, tag=SERVICE_TAG)

    # One event per call, sent at call entry (begin only, per the paper).
    def on_call_begin(self, call: CallRecord) -> None:
        if "c" in self.run.options.services:
            obj = call.channel or call.bundle
            self._send(("call", call.rank, call.name,
                        obj.name if obj else "-", str(call.callsite)))

    def on_solo(self, name: str, rank: int, text: str, callsite: "CallSite") -> None:
        if "c" in self.run.options.services:
            self._send(("call", rank, name, "-", str(callsite)))

    def on_block(self, call: CallRecord, waiting_for_ranks: list[int]) -> None:
        if "d" in self.run.options.services:
            obj = call.channel or call.bundle
            self._send(("block", call.rank, tuple(waiting_for_ranks), call.name,
                        obj.name if obj else "-", str(call.callsite)))

    def on_unblock(self, call: CallRecord) -> None:
        if "d" in self.run.options.services:
            self._send(("unblock", call.rank))

    def on_finalize(self, rank: int) -> None:
        self._send(("done", rank))


class NativeLogWriter:
    """Pilot's legacy text log: flushed per record, arrival-stamped."""

    def __init__(self, path: str, run: PilotRun) -> None:
        self.path = path
        self.run = run
        self._fh = open(path, "w", encoding="utf-8")
        self._fh.write("#pilot-native-log v1\n")
        self._fh.flush()
        self.records = 0

    def write(self, record: tuple, arrival_time: float) -> None:
        _, rank, name, obj, callsite = record
        # Terse on purpose; see module docstring.
        self._fh.write(f"@{arrival_time:.9f} r{rank} {name} o={obj} l={callsite}\n")
        self._fh.flush()
        self.records += 1

    def close(self) -> None:
        self._fh.write(f"#end records={self.records}\n")
        self._fh.close()


class DeadlockDetector:
    """Wait-for-graph analysis over block/unblock events.

    A node is a rank; a blocked PI_Read contributes one edge to its
    channel's writer, a blocked PI_Select/PI_Gather/PI_Reduce one edge
    per bundle channel writer.  When the engine stalls, a cycle in this
    graph is reported as a circular-wait deadlock; a stall without a
    cycle still aborts (e.g. reading a channel whose writer already
    terminated), with a differently-worded diagnostic — Pilot's own
    detector similarly distinguishes these cases in its messages.
    """

    def __init__(self, run: PilotRun) -> None:
        self.run = run
        # rank -> (waiting_for_ranks, op name, object name, callsite str)
        self.waits: dict[int, tuple[tuple[int, ...], str, str, str]] = {}

    def track(self, record: tuple) -> None:
        kind = record[0]
        if kind == "block":
            _, rank, waitranks, name, obj, callsite = record
            self.waits[rank] = (tuple(waitranks), name, obj, callsite)
        elif kind == "unblock":
            self.waits.pop(record[1], None)

    def _describe(self, rank: int) -> str:
        waitranks, name, obj, callsite = self.waits[rank]
        proc = (self.run.processes[rank].name
                if rank < len(self.run.processes) else f"P{rank}")
        targets = ", ".join(
            self.run.processes[r].name if r < len(self.run.processes) else f"P{r}"
            for r in waitranks)
        return f"{proc} blocked in {name} on {obj} at {callsite} waiting for {targets}"

    def analyze(self) -> None:
        """Called on a stall probe; never returns (aborts the job)."""
        graph = nx.DiGraph()
        for rank, (waitranks, *_rest) in self.waits.items():
            for target in waitranks:
                graph.add_edge(rank, target)
        cycles = [c for c in nx.simple_cycles(graph) if all(r in self.waits for r in c)]
        if cycles:
            cycle = min(cycles, key=len)
            lines = [self._describe(r) for r in cycle]
            message = ("circular wait among processes: "
                       + " | ".join(lines))
            code = "DEADLOCK_CYCLE"
        elif self.waits:
            lines = [self._describe(r) for r in sorted(self.waits)]
            message = ("processes blocked with no possible writer: "
                       + " | ".join(lines))
            code = "DEADLOCK_STALL"
        else:
            message = ("all processes stalled outside Pilot operations "
                       "(likely an internal protocol mismatch)")
            code = "DEADLOCK_UNKNOWN"
        self.run.fail(code, message)


def install_stall_probe(run: PilotRun) -> None:
    """Arrange for the service rank to be poked when the engine stalls.

    The probe is a synthetic message delivered straight into the service
    rank's mailbox, waking its ``recv`` loop so the detector can run
    while everything else is frozen.
    """
    svc = run.service_rank
    assert svc is not None

    def hook(engine: Engine) -> bool:
        task = engine.tasks.get(svc)
        if task is None or task.state is TaskState.DONE:
            return False
        probe = Message(src=svc, dest=svc, tag=SERVICE_TAG, payload=("stall",),
                        nbytes=0, send_start=engine.now,
                        arrive_time=engine.now, seq=-1)
        run.comm._deliver(probe)
        return True

    run.engine.on_stall.append(hook)


def run_service(run: PilotRun) -> None:
    """Body of the service rank during the execution phase."""
    opts = run.options
    writer = (NativeLogWriter(opts.native_log_path, run)
              if "c" in opts.services else None)
    detector = DeadlockDetector(run) if "d" in opts.services else None
    if detector is not None:
        install_stall_probe(run)
    run.service_detector = detector  # type: ignore[attr-defined]
    run.service_writer = writer  # type: ignore[attr-defined]
    expected = run.world_size - 1
    done = 0
    try:
        while done < expected:
            record = run.comm.recv(source=ANY_SOURCE, tag=SERVICE_TAG)
            kind = record[0]
            if kind == "done":
                done += 1
            elif kind == "stall":
                if detector is not None:
                    detector.analyze()  # aborts; never returns
            else:
                run.engine.advance(1e-7, "service processing")
                if writer is not None and kind == "call":
                    writer.write(record, run.comm.wtime())
                if detector is not None:
                    detector.track(record)
    finally:
        if writer is not None:
            writer.close()
