"""Launching Pilot programs on the virtual cluster.

``run_pilot(main, nprocs, argv)`` is this repo's ``mpiexec -n nprocs
./a.out argv...``: every rank executes ``main(argv)``, which uses the
PI_* API exactly as the paper's C listings do (Fig. 3's lab2 translates
line for line).  ``-pi*`` flags in ``argv`` and ``config=`` resolve
into one :class:`~repro.pilot.config.PilotConfig`, and every launch
(fresh or resumed) goes through :func:`_launch` with it.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable

from repro.pilot.config import RESUME_GUARDED_FIELDS, PilotConfig
from repro.pilot.errors import Diagnostic, PilotError
from repro.pilot.program import (
    PilotCosts,
    PilotRun,
    _RankDone,
    set_current_run,
)
from repro.pilot.service import ServiceFeedHook
from repro.vmpi.clock import ClockSkew
from repro.vmpi.comm import NetworkModel
from repro.vmpi.engine import RunResult
from repro.vmpi.errors import SimulationDeadlock
from repro.vmpi.faults import load_fault_plan, plan_from_dict
from repro.vmpi.journal import Journal, JournalError, manifest_for_engine
from repro.vmpi.world import World


@dataclass
class PilotResult:
    """Outcome of a Pilot job, with the measurements the paper reports."""

    run: PilotRun
    vmpi: RunResult
    perf: "Any | None" = None  # PerfRecorder when -pisvc=p was on
    journal: "Journal | None" = None  # when -pijournal= / resume was on
    watchdog: "Any | None" = None  # ProgressWatchdog when -piwatchdog= was on
    msglog: "Any | None" = None  # MessageLogger when -pirecover=msglog was on
    stream: "Any | None" = None  # StreamService when -pisvc=v was on

    @property
    def ok(self) -> bool:
        return self.vmpi.aborted is None

    @property
    def aborted(self):
        return self.vmpi.aborted

    @property
    def diagnostics(self):
        return self.run.diagnostics

    @property
    def total_time(self) -> float:
        """Virtual seconds from launch to the last event (wrap-up included)."""
        return self.vmpi.finished_at

    @property
    def exec_end_time(self) -> float:
        """When the execution phase ended (last rank's work done)."""
        if not self.run.exec_ended:
            return self.vmpi.finished_at
        return max(self.run.exec_ended.values())

    @property
    def wrapup_time(self) -> float:
        """Log collection/merge cost paid at termination (Section III.E:
        "MPE pays a cost at program termination to collect, merge, and
        output the log")."""
        return max(0.0, self.total_time - self.exec_end_time)

    @property
    def native_log_path(self) -> str | None:
        path = self.run.options.native_log_path
        return path if "c" in self.run.options.services and os.path.exists(path) else None

    @property
    def mpe_log_path(self) -> str | None:
        path = self.run.options.mpe_log_path
        return path if os.path.exists(path) else None

    @property
    def recovery_report(self) -> "Any | None":
        """A :class:`repro.mpe.recovery.RecoveryReport` of this run's
        localized-recovery episodes; None when recovery was off."""
        if self.msglog is None:
            return None
        from repro.mpe.recovery import report_from_msglog

        return report_from_msglog(self.msglog,
                                  self.run.options.mpe_log_path)


def _launch(main: Callable[[list[str]], Any], nprocs: int,
            app_argv: list[str], cfg: PilotConfig, *,
            extra_hooks: list | None, journal: "Journal | None",
            suppress_crashes: bool) -> PilotResult:
    """The launch machinery behind :func:`run_pilot` and
    :func:`resume_pilot`, over one resolved config.

    ``journal`` is the replay journal of a resume (None: record one
    when ``cfg.journal_dir`` is set).  ``suppress_crashes`` keeps the
    fault plan's message/clock rules while skipping its crash rules —
    what an uninterrupted reference run or a replay needs to match a
    crashed run event for event.
    """
    faults = cfg.faults
    if faults is None and cfg.fault_plan_path is not None:
        faults = load_fault_plan(cfg.fault_plan_path)
    letters = "".join(sorted(set(cfg.services)))

    perf = None
    if "p" in cfg.services:
        from repro.perf import PerfRecorder

        perf = PerfRecorder(meta={"nprocs": nprocs, "services": letters})

    # -pisvc=s: run the static analyzer over main before launching.
    # Advisory only — findings are printed (and kept on the result's
    # run object), never fatal: the analyzer must not break a run it
    # cannot understand.
    static_findings: list = []
    if "s" in cfg.services:
        try:
            from repro.pilotcheck import analyze_program

            analysis = analyze_program(main, nprocs, app_argv, config=cfg)
            static_findings = analysis.findings
            for finding in static_findings:
                print(f"PILOT CHECK: {finding.render()}", file=sys.stderr)
        except Exception as exc:  # noqa: BLE001 - advisory pass
            print(f"PILOT CHECK: static analysis unavailable ({exc})",
                  file=sys.stderr)

    world = World(nprocs, network=cfg.network, seed=cfg.seed,
                  clock_resolution=cfg.clock_resolution,
                  skews=dict(cfg.skews) if cfg.skews is not None else None,
                  faults=faults, suppress_crashes=suppress_crashes,
                  scheduler=cfg.scheduler or "threads")

    if journal is None and cfg.journal_dir is not None:
        manifest = manifest_for_engine(world.engine, nprocs=nprocs, extra={
            "argv": list(app_argv),
            "pilot": {
                "services": letters,
                "check_level": cfg.check_level,
                "native_log_path": cfg.native_log_path,
                "mpe_log_path": cfg.mpe_log_path,
                "mpe_available": cfg.mpe_available,
                "watchdog_timeout": cfg.watchdog_timeout,
                "watchdog_action": cfg.watchdog_action or "abort",
                "recover": cfg.recover,
            },
            **({"network": dataclasses.asdict(cfg.network)}
               if cfg.network is not None else {}),
            **({"costs": dataclasses.asdict(cfg.costs)}
               if cfg.costs is not None else {}),
        })
        journal = Journal.record(
            cfg.journal_dir, manifest,
            checkpoint_interval=cfg.journal_checkpoint_interval, perf=perf)
    if journal is not None:
        if journal.perf is None:
            journal.perf = perf
        journal.attach(world.engine)

    msglog = None
    if cfg.recover == "msglog":
        from repro.vmpi.msglog import MessageLogger

        msglog = MessageLogger(world.engine, journal_dir=cfg.journal_dir,
                               perf=perf)
        if cfg.mpe_enabled:
            from repro.mpe.recovery_marks import install_recovery_marks

            install_recovery_marks(msglog)

    watchdog = None
    if cfg.watchdog_timeout is not None:
        from repro.vmpi.watchdog import ProgressWatchdog

        watchdog = ProgressWatchdog(
            world.engine, timeout=cfg.watchdog_timeout,
            action=cfg.watchdog_action or "abort", journal=journal).arm()

    run = PilotRun(world.comm, cfg)
    run.app_argv = app_argv
    run.static_findings = static_findings  # type: ignore[attr-defined]

    if cfg.needs_service_rank:
        run.hooks.add(ServiceFeedHook(run))

    # -pisvc=v: live trace streaming.  It tails the salvage partials,
    # so it forces salvage checkpoints on (there is nothing to stream
    # otherwise) before the logging hook captures the MPE options.
    mpe_options = cfg.mpe
    stream_service = None
    if "v" in cfg.services:
        if not cfg.mpe_enabled:
            print("PILOT WARNING: live streaming (-pisvc=v) needs MPE "
                  "logging (-pisvc=j); streaming stays off",
                  file=sys.stderr)
        else:
            from repro.pilotlog.integration import JumpshotOptions
            from repro.stream.cursors import cursors_path
            from repro.stream.follow import exit_path
            from repro.stream.service import StreamService

            if mpe_options is None:
                mpe_options = JumpshotOptions(salvage=True)
            elif not mpe_options.salvage:
                mpe_options = dataclasses.replace(mpe_options, salvage=True)
            # A fresh run invalidates any previous run's sidecars at
            # the same base path (a *service* restart keeps them; this
            # is a new writer, not a new reader).
            for stale in (exit_path(cfg.mpe_log_path),
                          cursors_path(cfg.mpe_log_path)):
                try:
                    os.remove(stale)
                except OSError:
                    pass
            stream_service = StreamService(
                cfg.mpe_log_path, port=cfg.stream_port,
                journal_dir=cfg.journal_dir, expected_ranks=nprocs,
                perf=perf).start()
    if "j" in cfg.services:
        if cfg.mpe_available:
            # Imported lazily: pilotlog builds on pilot, not vice versa.
            from repro.pilotlog.integration import JumpshotLoggerHook

            run.hooks.add(JumpshotLoggerHook(run, mpe_options, perf=perf))
        else:
            # Paper Section III.C: requesting -pisvc=j without MPE built
            # in produces a warning, not an error.
            print("PILOT WARNING: logging for Jumpshot is not available "
                  "(Pilot was built without MPE)", file=sys.stderr)
    for hook in extra_hooks or []:
        run.hooks.add(hook)

    def rank_body(comm) -> Any:
        # (Re)bind the ambient run at every rank entry; never clear it
        # per rank.  On the coroutine scheduler all ranks share one OS
        # thread, so a finishing rank's ``finally`` would wipe the
        # binding out from under the still-running ranks; the single
        # clear below runs once after the whole world is done.
        set_current_run(run)
        try:
            return main(list(app_argv))
        except _RankDone as done:
            return done.status

    vres = None
    try:
        vres = world.run(rank_body)
    except SimulationDeadlock as exc:
        if static_findings:
            from repro.pilotcheck import match_deadlock

            matched = match_deadlock(static_findings, exc.blocked)
            exc.static_findings = matched  # type: ignore[attr-defined]
            for finding in matched:
                print("PILOT CHECK: predicted this deadlock: "
                      f"{finding.render()}", file=sys.stderr)
        raise
    finally:
        set_current_run(None)
        if journal is not None:
            journal.close()
        if msglog is not None:
            msglog.close()
        if stream_service is not None:
            # The exit sidecar is the follower's "writer is done"
            # signal; write it even when the launch raised, so a live
            # client converges instead of waiting out the stall
            # deadline.
            _write_exit_sidecar(cfg.mpe_log_path, vres, faults)
    assert vres is not None  # an exception above would have propagated
    if journal is not None and journal.mode == "replay":
        journal.check()  # raises ReplayDivergence if the rerun disagreed
    if perf is not None:
        perf.dump(cfg.perf_snapshot_path)
    return PilotResult(run, vres, perf, journal=journal, watchdog=watchdog,
                       msglog=msglog, stream=stream_service)


def _write_exit_sidecar(base_path: str, vres: RunResult | None,
                        faults: "Any | None") -> None:
    """``<base>.exit.json``: how the writer ended, for the follower."""
    from repro._util.fsio import atomic_write_json
    from repro.stream.follow import exit_path

    crashed: dict[str, float | None] = {}
    if faults is not None:
        try:
            crashed = {str(rank): at
                       for rank, at in faults.crashed_ranks().items()}
        except Exception:  # noqa: BLE001 - advisory marker data only
            pass
    info: dict[str, Any] = {"finished": True,
                            "ok": vres is not None and vres.aborted is None,
                            "crashed_ranks": crashed}
    if vres is None:
        info["reason"] = "launch raised before the run completed"
    elif vres.aborted is not None:
        info["errorcode"] = vres.aborted.errorcode
        info["origin_rank"] = vres.aborted.origin_rank
        info["reason"] = vres.aborted.reason
        crashed.setdefault(str(vres.aborted.origin_rank), None)
    try:
        atomic_write_json(exit_path(base_path), info)
    except OSError:
        pass  # the follower still has journal/stall detection


def run_pilot(main: Callable[[list[str]], Any], nprocs: int,
              argv: list[str] | tuple[str, ...] = (), *,
              config: PilotConfig | None = None,
              extra_hooks: list | None = None,
              suppress_crashes: bool = False) -> PilotResult:
    """Run ``main`` on ``nprocs`` virtual ranks under Pilot.

    ``config`` describes the run (:class:`repro.pilot.PilotConfig`:
    services, check level, log paths, watchdog, recovery, journal,
    fault plan, network/cost models, seed, clock model, scheduler and
    the Jumpshot logging options).  ``-pi*`` flags in ``argv`` layer
    over it, flags winning, and are stripped before ``main`` sees the
    rest, as PI_Configure does in C — so both of these switch on
    Jumpshot logging::

        run_pilot(main, 8, argv=("-pisvc=j",))
        run_pilot(main, 8, config=PilotConfig(services="j"))

    With service ``r`` the run resumes from ``journal_dir`` instead
    (see :func:`resume_pilot`).  ``extra_hooks`` are added to the run's
    hook set; ``suppress_crashes`` keeps the fault plan's message and
    clock rules but skips its crash rules (an uninterrupted reference
    run for a crashed one).
    """
    cfg, app_argv = PilotConfig.from_argv(argv, config)
    if "r" in cfg.services:
        if cfg.journal_dir is None:
            raise PilotError(Diagnostic(
                "BAD_OPTION", "service 'r' (-pisvc=r) needs journal_dir "
                "(-pijournal=DIR) to resume from", None, -1))
        return resume_pilot(main, cfg.journal_dir, config=cfg,
                            extra_hooks=extra_hooks)
    return _launch(main, nprocs, app_argv, cfg, extra_hooks=extra_hooks,
                   journal=None, suppress_crashes=suppress_crashes)


def resume_pilot(main: Callable[[list[str]], Any], journal_dir: str, *,
                 config: PilotConfig | None = None,
                 extra_hooks: list | None = None) -> PilotResult:
    """Restart a journaled run and recover its complete visualization.

    Rebuilds the launch from ``journal_dir``'s manifest — nprocs, the
    app argv ``main`` saw, seed, clock resolution, merged skews, the
    fault plan (crash rules suppressed so the rerun survives the
    recorded crash), service letters and log paths — then re-executes
    ``main`` under a replay journal that verifies every delivery and
    checkpoint barrier against the recorded history.  On success the
    normal finalize path re-emits the merged CLOG2 at the recorded
    ``mpe_log_path``, byte-identical to an uninterrupted run; on
    disagreement it raises
    :class:`~repro.vmpi.journal.ReplayDivergence` rather than deliver a
    plausible-but-wrong timeline.

    ``main`` must be the same program the journal recorded (the
    manifest cannot re-create code).  From ``config`` the resume takes
    the scheduler, the Jumpshot options (pass the recorded run's if it
    used non-default ones), the network and cost models (else the
    manifest's) and the guarded robustness settings below.

    Watchdog and recovery settings are replay-critical, so a ``config``
    value that *differs* from the manifest-recorded one is refused with
    a ``RESUME_CONFLICT`` :class:`PilotError` naming both values.
    Replacing one deliberately (the way to resume past a
    checkpoint-and-stop, whose manifest records the very timeout that
    stopped it) is spelled out in the config::

        resume_pilot(main, jdir, config=PilotConfig(
            watchdog_timeout=1e3,
            allow_overrides=("watchdog_timeout",)))
    """
    config = (config or PilotConfig()).validate()
    journal = Journal.replay(journal_dir)
    manifest = journal.manifest
    nprocs = int(manifest.get("nprocs", 0))
    if nprocs < 1:
        raise JournalError(
            f"{journal_dir}: manifest does not record nprocs; this journal "
            "was not written by run_pilot")
    pilot_meta = manifest.get("pilot", {})
    guarded: dict[str, Any] = {}
    for name in RESUME_GUARDED_FIELDS:
        recorded = pilot_meta.get(name)
        if name == "watchdog_timeout" and recorded is not None:
            recorded = float(recorded)
        wanted = getattr(config, name)
        if wanted is None:
            guarded[name] = recorded
        elif (recorded is None or recorded == wanted
              or name in config.allow_overrides):
            guarded[name] = wanted
        else:
            raise PilotError(Diagnostic(
                "RESUME_CONFLICT",
                f"resume_pilot: {name}={wanted!r} conflicts with the "
                f"recorded {name}={recorded!r} in {journal_dir}; replay "
                "verification assumes the recorded run's robustness "
                "settings, so differing values are refused rather than "
                "silently preferred.  To replace the recorded value "
                "deliberately (e.g. to resume past a checkpoint-and-"
                f"stop), pass config=PilotConfig(..., allow_overrides="
                f"({name!r},))", None, -1))
    defaults = PilotConfig()
    network = config.network
    if network is None and "network" in manifest:
        network = NetworkModel(**manifest["network"])
    costs = config.costs
    if costs is None and "costs" in manifest:
        costs = PilotCosts(**manifest["costs"])
    plan = None
    if "fault_plan" in manifest:
        plan = plan_from_dict(manifest["fault_plan"])
    cfg = dataclasses.replace(
        config,
        services=pilot_meta.get("services", ""),
        check_level=int(pilot_meta.get("check_level", defaults.check_level)),
        native_log_path=pilot_meta.get("native_log_path",
                                       defaults.native_log_path),
        mpe_log_path=pilot_meta.get("mpe_log_path", defaults.mpe_log_path),
        mpe_available=bool(pilot_meta.get("mpe_available",
                                          defaults.mpe_available)),
        fault_plan_path=None,
        journal_dir=None,  # the replay journal is passed explicitly
        seed=int(manifest.get("seed", 0)),
        clock_resolution=float(manifest.get("clock_resolution", 1e-8)),
        skews={int(rank): ClockSkew(offset=float(s.get("offset", 0.0)),
                                    drift=float(s.get("drift", 0.0)))
               for rank, s in manifest.get("skews", {}).items()},
        faults=plan, network=network, costs=costs, **guarded)
    app_argv = [str(arg) for arg in manifest.get("argv", [])]
    return _launch(main, nprocs, app_argv, cfg, extra_hooks=extra_hooks,
                   journal=journal, suppress_crashes=True)
