"""The MPE-style logging API.

Mirrors the MPE functions the paper integrates into Pilot
(Section III): event-ID allocation, state/event definition with name and
colour, event instancing with optional 40-byte text, send/receive arrow
records, clock sync, and the merge-at-finalize that writes one CLOG2
file from rank 0.

Per-rank state lives on the rank's task (like MPE's per-process
globals); the :class:`MpeLogger` object itself is shared and stateless
apart from configuration, exactly like :class:`~repro.vmpi.comm.Communicator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util.ids import IdAllocator
from repro.mpe import clocksync, merge
from repro.mpe.clog2 import write_clog2_to
from repro.mpe.records import (
    RECV,
    SEND,
    BareEvent,
    Definition,
    EventDef,
    LogRecord,
    MsgEvent,
    RankName,
    StateDef,
)
from repro.perf import NO_PERF, PerfRecorder
from repro.vmpi import collectives
from repro.vmpi.comm import Communicator
from repro.vmpi.engine import Task


@dataclass(frozen=True)
class MpeOptions:
    """Tunable costs and behaviour of the logging layer.

    ``per_record_cost`` is the in-memory buffering cost charged to the
    calling rank per record — this is what makes MPE logging's runtime
    overhead "extremely slight" but nonzero (Section III.E).
    ``merge_cost_per_record`` is rank 0's per-record cost to collect,
    merge and output the log at termination (the paper's measured
    wrap-up of 0.74-0.84 s).
    """

    per_record_cost: float = 5e-8
    merge_cost_per_record: float = 1.55e-5
    per_rank_merge_cost: float = 0.02  # file open/close + stream setup per rank
    sync_rounds: int = 1
    # Write the merged CLOG2 with version-2 CRC32 block framing
    # (repro.mpe.clog2): corruption becomes detectable per block at the
    # cost of 8 bytes per flush slab.  Off by default — version 1 output
    # stays byte-identical to earlier releases.
    checksum: bool = False


@dataclass
class RankLog:
    """One rank's MPE buffer state."""

    records: list[LogRecord] = field(default_factory=list)
    definitions: list[Definition] = field(default_factory=list)
    ids: IdAllocator = field(default_factory=lambda: IdAllocator(1))
    sync_points: list[clocksync.SyncPoint] = field(default_factory=list)
    initialized: bool = False


@dataclass
class MergeReport:
    """What finish_log produced (rank 0 only; None elsewhere)."""

    path: str
    total_records: int
    ranks_merged: int
    wrapup_started_at: float
    wrapup_ended_at: float

    @property
    def wrapup_seconds(self) -> float:
        return self.wrapup_ended_at - self.wrapup_started_at


class MpeLogger:
    """MPE for one virtual job."""

    def __init__(self, comm: Communicator, options: MpeOptions | None = None) -> None:
        self.comm = comm
        self.options = options or MpeOptions()

    # -- per-rank state ---------------------------------------------------

    def _state(self) -> RankLog:
        task: Task = self.comm.engine._require_task()
        log = task.locals.get("mpe")
        if log is None:
            log = task.locals["mpe"] = RankLog()
        return log

    def rank_log(self, rank: int) -> RankLog:
        """Post-run inspection helper (tests and the converter use it)."""
        return self.comm.engine.tasks[rank].locals.get("mpe") or RankLog()

    # -- initialisation and definitions ------------------------------------

    def init_log(self) -> None:
        """MPE_Init_log: arm buffering on the calling rank."""
        self._state().initialized = True

    def get_state_eventIDs(self) -> tuple[int, int]:  # noqa: N802 - MPE naming
        """Allocate a (start, end) event-id pair for a state.

        IDs match across ranks because every rank performs the same
        allocation sequence — the same property real MPE relies on.
        """
        log = self._state()
        first = log.ids.allocate(2)
        return first, first + 1

    def get_solo_eventID(self) -> int:  # noqa: N802 - MPE naming
        return self._state().ids.allocate(1)

    def describe_state(self, start_id: int, end_id: int, name: str,
                       color: str) -> None:
        self._state().definitions.append(StateDef(start_id, end_id, name, color))

    def describe_event(self, event_id: int, name: str, color: str) -> None:
        self._state().definitions.append(EventDef(event_id, name, color))

    def describe_rank(self, rank: int, name: str) -> None:
        """Attach a display name to a rank's timeline (extension over
        historical CLOG2; see :class:`repro.mpe.records.RankName`)."""
        self._state().definitions.append(RankName(rank, name))

    # -- event instancing ----------------------------------------------------

    def _charge(self) -> None:
        cost = self.options.per_record_cost
        if cost > 0:
            self.comm.engine.advance(cost, "mpe buffering")

    def log_event(self, event_id: int, text: str = "") -> None:
        """MPE_Log_event: stamp the rank-local clock and buffer.

        Called in start/end pairs this produces a state instance; called
        singly, a solo "bubble" (paper Section III).
        """
        log = self._state()
        log.records.append(BareEvent(self.comm.wtime(), self.comm.rank,
                                     event_id, text))
        self._charge()

    def log_send(self, dest: int, tag: int, size: int) -> None:
        log = self._state()
        log.records.append(MsgEvent(self.comm.wtime(), self.comm.rank,
                                    SEND, dest, tag, size))
        self._charge()

    def log_receive(self, src: int, tag: int, size: int) -> None:
        log = self._state()
        log.records.append(MsgEvent(self.comm.wtime(), self.comm.rank,
                                    RECV, src, tag, size))
        self._charge()

    # -- wrap-up ---------------------------------------------------------------

    def log_sync_clocks(self) -> None:
        """Collective: estimate per-rank clock offsets (see
        :mod:`repro.mpe.clocksync`)."""
        point = clocksync.sync_clocks(self.comm, self.options.sync_rounds)
        self._state().sync_points.append(point)

    def finish_log(self, path: str, *,
                   perf: PerfRecorder = NO_PERF) -> MergeReport | None:
        """Collective: gather all rank buffers to rank 0, correct
        timestamps, k-way merge, and write one CLOG2 file.

        The gather uses real (virtual) messages and rank 0 pays a
        per-record merge cost, so the wrap-up time the paper measures
        falls out of the model.  The merge itself is a heap over
        time-sorted per-rank streams (:mod:`repro.mpe.merge`) — same
        output order as a global sort, O(N log ranks) work.
        """
        started = self.comm.engine.now
        log = self._state()
        payload = (self.comm.rank, log.definitions, log.records, log.sync_points)
        gathered = collectives.gather(self.comm, payload, root=0)
        if self.comm.rank != 0:
            return None
        assert gathered is not None
        definitions = merge.dedup_definitions(
            defs for _, defs, _, _ in gathered)
        # The merge drops no records, so its virtual cost is known up
        # front — and must be charged *before* the file exists: a crash
        # fault landing inside the merge window leaves no output, same
        # as the pre-streaming implementation.
        nrecords = sum(len(records) for _, _, records, _ in gathered)
        merge_cost = (self.options.merge_cost_per_record * nrecords
                      + self.options.per_rank_merge_cost * len(gathered))
        if merge_cost > 0:
            self.comm.engine.advance(merge_cost, "mpe merge")
        with perf.stage("merge") as timer:
            streams = self._correct_gathered(gathered)
        timer.count(records=nrecords)
        with perf.stage("clog2-write"):
            self._write_merged(path, definitions, streams, perf=perf)
        return MergeReport(path, nrecords, len(gathered),
                           started, self.comm.engine.now)

    @staticmethod
    def _correct_gathered(gathered) -> "list[list[tuple[float, int, LogRecord]]]":
        """Per-rank merge streams, timestamps corrected onto the
        reference timebase."""
        return [merge.rank_stream(rank, records, sync_points)
                for rank, _, records, sync_points in gathered]

    def _write_merged(self, path: str, definitions: list[Definition],
                      streams, *,
                      perf: PerfRecorder = NO_PERF) -> int:
        """Fused merge→write: the k-way merge's ``(corrected time,
        rank, record)`` items go straight into
        :func:`~repro.mpe.clog2.write_clog2_to`, which packs each
        corrected time in place of the record's own — no merged record
        list, no rebuilt record objects.  (The heap merge therefore runs
        lazily inside the write loop; the ``merge`` perf stage covers
        stream correction, ``clog2-write`` the merge-consume-and-pack
        pass.)  Returns the number of records written."""
        with open(path, "wb") as fh:
            return write_clog2_to(fh, self.comm.engine.clock_resolution,
                                  self.comm.size, definitions,
                                  merge.merge_rank_streams(streams),
                                  checksum=self.options.checksum, perf=perf)
