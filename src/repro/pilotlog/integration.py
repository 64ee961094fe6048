"""Hooking Pilot into MPE: the paper's core contribution (Section III).

:class:`JumpshotLoggerHook` implements :class:`repro.pilot.hooks.PilotHooks`
and translates Pilot's semantic events into MPE records following the
visual design of Sections III.A-III.B:

* every displayed Pilot call becomes a state rectangle on its rank's
  timeline, popup showing the source line, the calling process's name
  and its work-function index argument (and the bundle name for
  collectives);
* milestone bubbles inside I/O states mark each message dispatch or
  arrival with channel name and payload note;
* send/receive records produce white message arrows; collective fan-out
  arrows are artificially spread by a 1 ms virtual delay per arrow to
  avoid superimposed drawables (the paper's ``usleep`` workaround for
  the "Equal Drawables" conversion warning, Section III.C);
* popup texts always begin with literal text ("Line:", "Sent:",
  "Arrived:", "Ready:") — the workaround for Jumpshot's substitution
  reordering bug;
* the configuration phase (PI_Configure -> PI_StartAll) is one bisque
  state, the execution phase (PI_StartAll -> PI_StopMain / work-function
  return) one gray "Compute" state per rank;
* PI_Abort logs nothing and the un-merged MPE buffers are simply lost,
  reproducing the limitation the paper could not fix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.mpe.api import MergeReport, MpeLogger, MpeOptions
from repro.perf import NO_PERF, PerfRecorder
from repro.pilot.hooks import CallRecord, PilotHooks
from repro.pilot.program import PilotRun
from repro.pilotlog.colors import ColorScheme
from repro.pilotlog.taxonomy import DrawStyle, spec_for, solo_specs, state_specs

if TYPE_CHECKING:  # pragma: no cover
    from repro._util.callsite import CallSite


@dataclass(frozen=True)
class JumpshotOptions:
    """Behaviour switches for the Pilot->MPE integration.

    The defaults match the paper's shipped configuration; benchmarks
    A1/A2 flip ``spread_arrows`` and the sync flags to reproduce the
    ablations.
    """

    spread_arrows: bool = True
    arrow_spread_delay: float = 1e-3  # "just 1 ms of delay per arrow"
    sync_at_init: bool = True
    sync_at_end: bool = True
    colors: ColorScheme = field(default_factory=ColorScheme)
    mpe: MpeOptions = field(default_factory=MpeOptions)
    # The paper's future work (Section V): periodically checkpoint each
    # rank's buffer to a per-rank partial file so the log survives
    # PI_Abort; see repro.mpe.salvage.  Off by default, like the paper.
    salvage: bool = False
    salvage_interval: int = 512  # records between checkpoints
    salvage_cost_per_record: float = 1e-7  # rank-local disk write time
    salvage_checkpoint_latency: float = 5e-4  # open+fsync per checkpoint


@dataclass
class _RankIds:
    """Per-rank MPE event-id tables (identical on every rank)."""

    states: dict[str, tuple[int, int]] = field(default_factory=dict)
    bubbles: dict[str, int] = field(default_factory=dict)
    solos: dict[str, int] = field(default_factory=dict)
    customs: dict[int, tuple[int, int]] = field(default_factory=dict)


class JumpshotLoggerHook(PilotHooks):
    """The ``-pisvc=j`` facility."""

    def __init__(self, run: PilotRun, options: JumpshotOptions | None = None,
                 perf: PerfRecorder = NO_PERF) -> None:
        self.run = run
        self.options = options or JumpshotOptions()
        self.mpe = MpeLogger(run.comm, self.options.mpe)
        self.report: MergeReport | None = None
        self.perf = perf
        if self.options.salvage:
            # Every abort — PI_Abort, a failed check, a crash fault,
            # the watchdog — is a world abort: every rank's buffer dies,
            # the aborting rank's included.  The engine fires these
            # hooks from abort context (no current task, no messaging)
            # — rank-local disk flushes are exactly what still works.
            self.run.engine.on_abort_hooks.append(self._flush_all_at_abort)

    # -- id allocation -----------------------------------------------------

    def _ids(self) -> _RankIds:
        task = self.run.engine._require_task()
        ids = task.locals.get("pilotlog_ids")
        if ids is None:
            ids = task.locals["pilotlog_ids"] = self._allocate_ids()
        return ids

    def _allocate_ids(self) -> _RankIds:
        """Anticipate every kind of event up front (MPE requires defining
        each event ID at initialisation time, Section III)."""
        self.mpe.init_log()
        colors = self.options.colors
        ids = _RankIds()
        for spec in state_specs():
            start, end = self.mpe.get_state_eventIDs()
            ids.states[spec.name] = (start, end)
            self.mpe.describe_state(start, end, spec.name,
                                    colors.color_of(spec.name))
            bubble = self.mpe.get_solo_eventID()
            ids.bubbles[spec.name] = bubble
            self.mpe.describe_event(bubble, f"{spec.name} msg",
                                    colors.color_of("bubble"))
        for spec in solo_specs():
            solo = self.mpe.get_solo_eventID()
            ids.solos[spec.name] = solo
            self.mpe.describe_event(solo, spec.name, colors.color_of("bubble"))
        return ids

    # -- phase states -------------------------------------------------------

    def on_configure(self, rank: int, callsite: "CallSite") -> None:
        ids = self._ids()
        if self.options.sync_at_init:
            self.mpe.log_sync_clocks()
        start, _ = ids.states["PI_Configure"]
        self.mpe.log_event(start, f"Line: {callsite.lineno} Configuration")

    def on_startall(self, rank: int, callsite: "CallSite") -> None:
        ids = self._ids()
        # Custom states (PI_DefineState) are complete once configuration
        # ends; every rank holds the same table, so allocation order —
        # and therefore the MPE ids — agree everywhere.
        for handle in self.run.custom_states:
            if handle.sid not in ids.customs:
                pair = self.mpe.get_state_eventIDs()
                ids.customs[handle.sid] = pair
                self.mpe.describe_state(*pair, handle.name, handle.color)
        _, end = ids.states["PI_Configure"]
        self.mpe.log_event(end, f"Line: {callsite.lineno}")
        if self._runs_user_code(rank):
            start, _ = ids.states["Compute"]
            proc = self.run.processes[rank]
            # Names are final once configuration ends; carrying them in
            # the log lets any later viewer label the timelines.
            self.mpe.describe_rank(rank, proc.name)
            self.mpe.log_event(start, f"Proc: {proc.name} Idx: {proc.index}")

    def on_stopmain(self, rank: int, callsite: "CallSite") -> None:
        if self._runs_user_code(rank):
            _, end = self._ids().states["Compute"]
            self.mpe.log_event(end, f"Line: {callsite.lineno}")

    def _runs_user_code(self, rank: int) -> bool:
        """Main and every rank with an assigned process get a Compute
        state; the service rank and unused ranks do not."""
        return rank == 0 or (rank != self.run.service_rank
                             and rank < len(self.run.processes))

    # -- per-call states and bubbles ------------------------------------------

    def on_call_begin(self, call: CallRecord) -> None:
        spec = spec_for(call.name)
        if spec.style is not DrawStyle.STATE:
            return
        start, _ = self._ids().states[call.name]
        obj = call.bundle or call.channel
        text = (f"Line: {call.callsite.lineno} Proc: {call.process_name} "
                f"Idx: {call.work_index}")
        if call.bundle is not None:
            text += f" On: {call.bundle.name}"
        elif obj is not None:
            text += f" On: {obj.name}"
        self.mpe.log_event(start, text)

    def on_call_end(self, call: CallRecord) -> None:
        spec = spec_for(call.name)
        if spec.style is not DrawStyle.STATE:
            return
        _, end = self._ids().states[call.name]
        self.mpe.log_event(end, call.detail)
        self._maybe_checkpoint()

    def on_bubble(self, call: CallRecord, text: str) -> None:
        spec = spec_for(call.name)
        if spec.style is not DrawStyle.STATE or not spec.arrival_bubbles:
            return
        bubble = self._ids().bubbles[call.name]
        self.mpe.log_event(bubble, text)

    def on_solo(self, name: str, rank: int, text: str,
                callsite: "CallSite") -> None:
        spec = spec_for(name)
        if spec.style is not DrawStyle.SOLO:
            return
        solo = self._ids().solos[name]
        self.mpe.log_event(solo, f"Line: {callsite.lineno} {text}")

    # -- user-defined states --------------------------------------------------

    def on_custom_begin(self, handle, rank: int, callsite: "CallSite") -> None:
        start, _ = self._ids().customs[handle.sid]
        self.mpe.log_event(start, f"Line: {callsite.lineno} {handle.name}")

    def on_custom_end(self, handle, rank: int) -> None:
        _, end = self._ids().customs[handle.sid]
        self.mpe.log_event(end)
        self._maybe_checkpoint()

    # -- arrows -------------------------------------------------------------

    def on_send(self, call: CallRecord, dest_rank: int, tag: int,
                nbytes: int) -> None:
        self._ids()  # ensure initialised even if no state was logged
        self.mpe.log_send(dest_rank, tag, nbytes)
        if self.options.spread_arrows and call.bundle is not None:
            # Paper Section III.C: spread collective fan-out arrows so
            # they do not land inside one clock tick and superimpose.
            self.run.engine.advance(self.options.arrow_spread_delay,
                                    "arrow spreading")

    def on_receive(self, call: CallRecord, src_rank: int, tag: int,
                   nbytes: int) -> None:
        self._ids()
        self.mpe.log_receive(src_rank, tag, nbytes)
        self._maybe_checkpoint()

    # -- abort salvage (the paper's future work, Section V) -----------------

    def _maybe_checkpoint(self) -> None:
        if not self.options.salvage:
            return
        self._checkpoint_task(self.run.engine._require_task())

    def _checkpoint_task(self, task, *, final: bool = False) -> None:
        """Flush one rank's new records to its partial file.

        Every ``salvage_interval`` records, billing the (virtual)
        disk-write time to the task via ``engine.advance`` — only
        possible from that task's own context.  The ``final`` flush from
        the abort hook writes whatever is pending, uncharged, since the
        world is over anyway.
        """
        from repro.mpe.salvage import AppendPartialWriter, partial_path

        log = task.locals.get("mpe")
        if log is None:
            return
        last = task.locals.get("pilotlog_salvaged", 0)
        pending = len(log.records) - last
        if not final and pending < self.options.salvage_interval:
            return
        if pending <= 0:
            return
        writer = task.locals.get("pilotlog_salvage_writer")
        if writer is None:
            writer = AppendPartialWriter(
                partial_path(self.run.options.mpe_log_path, task.rank),
                task.rank, self.run.engine.clock_resolution)
            task.locals["pilotlog_salvage_writer"] = writer
        writer.checkpoint(log)
        task.locals["pilotlog_salvaged"] = len(log.records)
        if not final:
            self.run.engine.advance(
                self.options.salvage_checkpoint_latency
                + self.options.salvage_cost_per_record * pending,
                "salvage checkpoint")

    def _flush_all_at_abort(self, exc) -> None:
        """Engine abort hook: last-chance flush of *every* rank's buffer.

        Runs outside any task, after the abort flag is set but before
        the tasks unwind — the moment MPI_Abort would have killed the
        processes.  No messaging, no time accounting; just whatever
        rank-local writes still complete.
        """
        for task in self.run.engine.tasks.values():
            self._checkpoint_task(task, final=True)

    # -- wrap-up ---------------------------------------------------------------

    def on_finalize(self, rank: int) -> None:
        self._ids()
        if self.options.sync_at_end:
            self.mpe.log_sync_clocks()
        report = self.mpe.finish_log(self.run.options.mpe_log_path,
                                     perf=self.perf)
        if self.options.salvage and rank == 0:
            # Normal finalize succeeded: the partials are redundant.
            from repro.mpe.salvage import cleanup_partials

            cleanup_partials(self.run.options.mpe_log_path)
        if report is not None:
            self.report = report
            self.run.mpe_report = report  # type: ignore[attr-defined]
