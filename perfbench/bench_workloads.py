"""The workloads: classroom, viewer and live (listed in BENCHMARK.json),
and classroom-default and fleet (run by hand; see README.md).

Each workload owns its inputs (made from the seed), checks every
operation's output against a reference, and reports its samples.  A
workload is driven in three steps by ``run.py``:

* ``setup(checker)`` — input generation and warm-up; called
  several times so ``setup_s`` is a median;
* ``measure(seconds, checker, tracer)`` — the timed loop, returning a
  :class:`Measurement`; with a :class:`~bench_trace.Tracer` it also
  returns the per-layer metrics of the traced operations.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import http.client
import json
import os
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any

from bench_harness import Checker, closed_loop, expect, p50, tail, union_seconds
from bench_trace import Span, Tracer, pilot_hook_class

from repro._util.fsio import atomic_write_json
from repro.apps import ThumbnailConfig, thumbnail_main
from repro.apps.fleet import make_fleet_main
from repro.jumpshot import View, render_svg
from repro.mpe import MpeLogger, read_log
from repro.mpe import clog2 as mpe_clog2
from repro.mpe.clocksync import SyncPoint
from repro.mpe.salvage import AppendPartialWriter, cleanup_partials, partial_path
from repro.pilot import PilotConfig, PilotCosts, run_pilot
from repro.pilotlog.integration import JumpshotOptions
from repro.slog2 import convert
from repro.slog2.convert import convert_with_tree
from repro.stream import LiveFold, LogFollower, StreamService, exit_path, render_tile
from repro.stream import service as stream_service
from repro.vmpi.comm import Communicator

# ---------------------------------------------------------------------------
# Metric names.  BENCHMARK.json lists the same names; the self-tests
# check that the two agree.
# ---------------------------------------------------------------------------

#: End-to-end metrics (untraced run): name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Pilot API calls counted per run (the calls the hook interface
#: reports, plus the configuration-phase object creations).
API_CALLS = ("PI_Configure", "PI_CreateProcess", "PI_CreateChannel",
             "PI_CreateBundle", "PI_StartAll", "PI_StopMain", "PI_Write",
             "PI_Read", "PI_Select")

#: Per-layer metrics (traced run): name -> (unit, better).
LAYERS: dict[str, tuple[str, str]] = {
    "pilot.config_s": ("s", "lower"),
    "pilot.exec_s": ("s", "lower"),
    "pilot.finalize_s": ("s", "lower"),
    **{f"pilot.api_calls.{n}": ("count", "lower") for n in API_CALLS},
    "vmpi.engine.events": ("count", "lower"),
    "vmpi.engine.switches": ("count", "lower"),
    "vmpi.engine.us_per_event": ("us", "lower"),
    "vmpi.comm.messages": ("count", "lower"),
    "vmpi.comm.bytes": ("B", "lower"),
    "vmpi.comm.select_calls": ("count", "lower"),
    "vmpi.comm.select_s": ("s", "lower"),
    "mpe.log_calls": ("count", "lower"),
    "mpe.log_s": ("s", "lower"),
    "mpe.finish_s": ("s", "lower"),
    "mpe.clog2_read_s": ("s", "lower"),
    "mpe.clog2_read_records_per_s": ("1/s", "higher"),
    "mpe.clog2_bytes": ("B", "lower"),
    "slog2.convert_s": ("s", "lower"),
    "slog2.drawables": ("count", "lower"),
    "jumpshot.view_s": ("s", "lower"),
    "jumpshot.svg_s": ("s", "lower"),
    "jumpshot.svg_bytes": ("B", "lower"),
    "jumpshot.drawables_drawn": ("count", "lower"),
    "stream.tail_s": ("s", "lower"),
    "stream.fold_s": ("s", "lower"),
    "stream.records_folded": ("count", "higher"),
    "stream.polls": ("count", "lower"),
    "stream.empty_poll_ratio": ("ratio", "lower"),
    "stream.tile_s": ("s", "lower"),
    "stream.status_s": ("s", "lower"),
    "stream.cache_hit_ratio": ("ratio", "higher"),
    "stream.finalize_s": ("s", "lower"),
    "bench.trace_overhead_ratio": ("ratio", "lower"),
    "bench.unattributed_ratio": ("ratio", "lower"),
    "bench.generator_lag_p50_ms": ("ms", "lower"),
    "bench.first_op_ratio": ("ratio", "lower"),
}

#: Values pinned at seed 0 (the fleet does not depend on the seed).
PINNED = {
    "classroom": {0: {"total_time": 2.3404368990149695,
                      "clog2_sha256": "381899191ac5"}},
    "viewer": {0: {"trace_sha256": "ae85d80339884b3d", "records": 40418}},
}
FLEET_EXPECTED = {"total_time": 0.0003071530000000025, "events": 4804,
                  "switches": 3604, "messages": 1200, "ntasks": 450}

ZERO_COSTS = PilotCosts(api_call=0.0, config_call=0.0, check_per_level=0.0)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class Measurement:
    """What one timed loop produced."""

    op_s: list[float]  # the headline op's latencies, seconds
    #: Host-speed reference around each op (closed loops of one op per
    #: iteration); ``None`` where ``op_s`` is not timed that way.
    ref_s: list[float] | None = None
    table: dict[str, Any] = field(default_factory=dict)  # printed only
    layers: dict[str, float] | None = None  # traced run only


# ---------------------------------------------------------------------------
# Per-layer helpers
# ---------------------------------------------------------------------------

def _named(spans: list[Span], name: str) -> list[Span]:
    return [s for s in spans if s.name == name]


def _total(spans: list[Span], name: str) -> float:
    return sum(s.seconds for s in _named(spans, name))


def _wall(spans: list[Span], name: str) -> float:
    """First entry to last exit over the spans of ``name`` (calls made
    concurrently on several ranks count once)."""
    named = _named(spans, name)
    if not named:
        return 0.0
    return max(s.end for s in named) - min(s.start for s in named)


def _values(spans: list[Span], name: str) -> int:
    return sum(s.value or 0 for s in _named(spans, name))


def _unattributed(spans: list[Span], lo: float, hi: float) -> float:
    wall = hi - lo
    covered = union_seconds([(s.start, s.end) for s in spans], lo, hi)
    return (wall - covered) / wall


def _zero_layers() -> dict[str, float]:
    return {name: 0.0 for name in LAYERS}


def _median_layers(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(d[name] for d in per_op)
            for name in per_op[0]}


def _log_records(result: Any) -> int:
    return len(result.log.records)


def _folded(result: Any) -> int:
    return int(result)


def _polled(result: Any) -> int:
    return result.record_count


def _tree_drawables(result: Any) -> int:
    doc = result[0]
    return len(doc.states) + len(doc.events) + len(doc.arrows)


def patch_program(tracer: Tracer) -> None:
    """Wrap the program-side entry points each layer exposes."""
    tracer.patch(Communicator, "wait_any", "vmpi.comm.select")
    tracer.patch(Communicator, "poll_any", "vmpi.comm.select")
    for method in ("log_event", "log_send", "log_receive"):
        tracer.patch(MpeLogger, method, "mpe.log")
    tracer.patch(MpeLogger, "finish_log", "mpe.finish")
    # The stream service reaches these through module attributes.
    tracer.patch(mpe_clog2, "read_log", "mpe.read", _log_records)
    tracer.patch(stream_service, "convert_with_tree", "slog2.convert",
                 _tree_drawables)
    tracer.patch(LogFollower, "poll", "stream.tail", _polled)
    tracer.patch(LiveFold, "advance", "stream.fold", _folded)


def _pilot_layers(layers: dict[str, float], res: Any, hook: Any,
                  run_span: Span, op_wall: float,
                  spans: list[Span]) -> None:
    layers["pilot.config_s"] = hook.startall_last - run_span.start
    layers["pilot.exec_s"] = hook.stopmain_at - hook.startall_last
    layers["pilot.finalize_s"] = run_span.end - hook.stopmain_at
    calls = dict(hook.calls)
    for task in res.vmpi.engine.tasks.values():
        state = task.locals.get("pilot_state")
        if state is None:
            continue
        for kind, count in state.creation_cursor.items():
            key = "PI_Create" + kind.capitalize()
            calls[key] = calls.get(key, 0) + count
    for name in API_CALLS:
        layers[f"pilot.api_calls.{name}"] = calls.get(name, 0)
    stats = res.vmpi.engine.stats
    layers["vmpi.engine.events"] = stats["events"]
    layers["vmpi.engine.switches"] = stats["switches"]
    layers["vmpi.engine.us_per_event"] = op_wall / stats["events"] * 1e6
    layers["vmpi.comm.messages"] = res.run.comm.stats["messages"]
    layers["vmpi.comm.bytes"] = res.run.comm.stats["bytes"]
    layers["vmpi.comm.select_calls"] = len(_named(spans, "vmpi.comm.select"))
    layers["vmpi.comm.select_s"] = _total(spans, "vmpi.comm.select")
    layers["mpe.log_calls"] = len(_named(spans, "mpe.log"))
    layers["mpe.log_s"] = _total(spans, "mpe.log")
    layers["mpe.finish_s"] = _wall(spans, "mpe.finish")


def _pipeline_layers(layers: dict[str, float], spans: list[Span],
                     clog2_bytes: int, drawn: int) -> None:
    read_s = _total(spans, "mpe.read")
    layers["mpe.clog2_read_s"] = read_s
    layers["mpe.clog2_read_records_per_s"] = (
        _values(spans, "mpe.read") / read_s if read_s else 0.0)
    layers["mpe.clog2_bytes"] = clog2_bytes
    layers["slog2.convert_s"] = _total(spans, "slog2.convert")
    layers["slog2.drawables"] = _values(spans, "slog2.convert")
    layers["jumpshot.view_s"] = _total(spans, "jumpshot.view")
    layers["jumpshot.svg_s"] = _total(spans, "jumpshot.svg")
    layers["jumpshot.svg_bytes"] = _values(spans, "jumpshot.svg")
    layers["jumpshot.drawables_drawn"] = drawn


class _NoTrace:
    """Stand-in for a tracer in the untraced run: spans cost nothing."""

    @staticmethod
    def span(_name: str) -> Any:
        return contextlib.nullcontext({})


NO_TRACE = _NoTrace()


def _open_pipeline(sp: Any, log_path: str, svg_path: str
                   ) -> tuple[Any, Any, str]:
    """read_log -> convert -> View -> full-timeline render_svg."""
    with sp.span("mpe.read") as box:
        log = read_log(log_path).log
        box["value"] = len(log.records)
    with sp.span("slog2.convert") as box:
        doc, _report = convert(log)
        box["value"] = len(doc.states) + len(doc.events) + len(doc.arrows)
    with sp.span("jumpshot.view"):
        view = View(doc)
    with sp.span("jumpshot.svg") as box:
        svg = render_svg(view, svg_path)
        box["value"] = len(svg)
    return log, view, svg


def _drawn(view: Any) -> int:
    drawables, _previews = view.visible()
    return len(drawables)


# ---------------------------------------------------------------------------
# classroom: the paper's use — a logged run straight to a timeline
# ---------------------------------------------------------------------------

class Classroom:
    """``thumbnail_main`` with ``services="j"`` on the coroutine scheduler,
    then ``read_log`` -> ``convert`` -> ``View`` -> ``render_svg``.

    The coroutine scheduler runs the ranks on one thread, so the op's
    time follows the host's speed the way the speed reference's does
    (README "Host-speed adjustment").  :class:`ClassroomDefault` runs
    the program's default scheduler instead.
    """

    name = "classroom"
    #: Scheduler of the timed ops; the reference run uses the other one.
    scheduler: str | None = "coroutine"

    def __init__(self, seed: int, workdir: str, *, nfiles: int = 150,
                 nprocs: int = 11) -> None:
        self.seed = seed
        self.workdir = workdir
        self.nfiles = nfiles
        self.nprocs = nprocs
        self.pinned = PINNED["classroom"].get(seed) if nfiles == 150 else None
        self.main = None
        self.ref: dict[str, Any] | None = None
        self.first_op_s: float | None = None
        self.log_path = os.path.join(workdir, "classroom.clog2")
        self.svg_path = os.path.join(workdir, "classroom.svg")

    def _config(self, path: str, scheduler: str | None) -> PilotConfig:
        return PilotConfig(services="j", mpe_log_path=path, seed=self.seed,
                           scheduler=scheduler)

    def setup(self, checker: Checker) -> None:
        self.main = functools.partial(
            thumbnail_main,
            config=ThumbnailConfig(nfiles=self.nfiles, seed=self.seed))
        # Warm-up first, so the first set-up holds the process's first
        # run on the ops' backend; it is checked once the reference
        # exists.
        wall, warm = self._op(None, NO_TRACE, None)
        if self.first_op_s is None:
            self.first_op_s = wall
        # Reference: the same run on the other backend, whose logs must
        # be byte-identical to those of the backend the ops use.
        ref_log = os.path.join(self.workdir, "classroom-ref.clog2")
        ref_svg = os.path.join(self.workdir, "classroom-ref.svg")
        other = "threads" if self.scheduler == "coroutine" else "coroutine"
        res = run_pilot(self.main, self.nprocs,
                        config=self._config(ref_log, other))
        _open_pipeline(NO_TRACE, ref_log, ref_svg)
        self.ref = {"ok": True, "total_time": res.total_time,
                    "clog2_sha256": sha256_file(ref_log),
                    "svg_sha256": sha256_file(ref_svg),
                    "thumbs": self.nfiles}
        problems: list[str] = []
        expect(problems, "reference run ok", res.ok, True)
        if self.pinned:
            expect(problems, "reference total_time", res.total_time,
                   self.pinned["total_time"])
            expect(problems, "reference CLOG2 sha256 prefix",
                   self.ref["clog2_sha256"][:12], self.pinned["clog2_sha256"])
        checker.op("classroom reference", problems)
        self._check(checker, "classroom warm-up", warm["got"])

    def _op(self, checker: Checker | None, sp: Any, hook: Any
            ) -> tuple[float, dict]:
        """One op; checked against the reference unless ``checker`` is
        None (the warm-up, which runs before the reference exists)."""
        start = time.perf_counter()
        with sp.span("pilot.run"):
            res = run_pilot(self.main, self.nprocs,
                            config=self._config(self.log_path,
                                                self.scheduler),
                            extra_hooks=[hook] if hook is not None else None)
        log, view, _svg = _open_pipeline(sp, self.log_path, self.svg_path)
        end = time.perf_counter()
        summary = res.vmpi.results[0] if res.ok else {}
        got = {"ok": res.ok, "total_time": res.total_time,
               "clog2_sha256": sha256_file(self.log_path),
               "svg_sha256": sha256_file(self.svg_path),
               "thumbs": summary.get("thumbs")}
        if checker is not None:
            self._check(checker, "classroom op", got)
        return end - start, {"res": res, "log": log, "view": view,
                             "start": start, "end": end, "got": got}

    def _check(self, checker: Checker, label: str, got: dict) -> None:
        problems: list[str] = []
        for key, want in self.ref.items():
            expect(problems, key, got[key], want)
        checker.op(label, problems)

    def measure(self, seconds: float, checker: Checker,
                tracer: Tracer | None) -> Measurement:
        walls: list[float] = []
        records: list[int] = []
        per_op: list[dict[str, float]] = []
        hook_cls = pilot_hook_class() if tracer is not None else None

        def one() -> None:
            hook = hook_cls() if hook_cls is not None else None
            wall, out = self._op(checker, tracer or NO_TRACE, hook)
            walls.append(wall)
            records.append(len(out["log"].records))
            if tracer is not None:
                spans = tracer.drain()
                layers = _zero_layers()
                run_span = _named(spans, "pilot.run")[0]
                _pilot_layers(layers, out["res"], hook, run_span, wall, spans)
                _pipeline_layers(layers, spans,
                                 os.path.getsize(self.log_path),
                                 _drawn(out["view"]))
                layers["bench.unattributed_ratio"] = _unattributed(
                    spans, out["start"], out["end"])
                per_op.append(layers)

        refs = closed_loop(seconds, one)
        rps = [n / w for n, w in zip(records, walls)]
        return Measurement(
            op_s=walls, ref_s=refs,
            table={"time_to_timeline_p50_s": (p50(walls), "s", len(walls)),
                   "records_per_s": (p50(rps), "1/s", len(rps))},
            layers=_median_layers(per_op) if per_op else None)


class ClassroomDefault(Classroom):
    """``classroom`` on the program's default scheduler (threads): eleven
    rank threads hand off across the CPUs.  Not in BENCHMARK.json: its
    time follows the host's scheduler more than the program (README
    "Why classroom runs on the coroutine scheduler")."""

    name = "classroom-default"
    scheduler = None


# ---------------------------------------------------------------------------
# fleet: vmpi matching, PI_Select and the config phase at scale
# ---------------------------------------------------------------------------

class Fleet:
    """``make_fleet_main(150)`` on 151 ranks, coroutine scheduler, zero
    Pilot costs, ``check_level=0``, services off."""

    name = "fleet"

    def __init__(self, seed: int, workdir: str, *, workers: int = 150) -> None:
        self.seed = seed
        self.workers = workers
        self.expected = FLEET_EXPECTED if workers == 150 else None
        self.main = None
        self.first_op_s: float | None = None

    def _config(self) -> PilotConfig:
        return PilotConfig(scheduler="coroutine", check_level=0,
                           costs=ZERO_COSTS, seed=self.seed)

    def setup(self, checker: Checker) -> None:
        self.main = make_fleet_main(self.workers)
        # Warm the weave cache with a small fleet of the same code; a
        # full-size warm-up would triple the set-up time for no new code.
        res = run_pilot(make_fleet_main(5), 6, config=self._config())
        problems: list[str] = []
        expect(problems, "warm-up ok", res.ok, True)
        checker.op("fleet warm-up", problems)

    def _op(self, checker: Checker, sp: Any, hook: Any
            ) -> tuple[float, Any, float, float]:
        start = time.perf_counter()
        with sp.span("pilot.run"):
            res = run_pilot(self.main, self.workers + 1, config=self._config(),
                            extra_hooks=[hook] if hook is not None else None)
        end = time.perf_counter()
        problems: list[str] = []
        expect(problems, "ok", res.ok, True)
        if res.ok:
            summary = res.vmpi.results[0]
            expect(problems, "tasks done", summary["total"], summary["ntasks"])
            if self.expected is not None:
                got = {"total_time": res.total_time,
                       "events": res.vmpi.engine.stats["events"],
                       "switches": res.vmpi.engine.stats["switches"],
                       "messages": res.run.comm.stats["messages"],
                       "ntasks": summary["ntasks"]}
                for key, want in self.expected.items():
                    expect(problems, key, got[key], want)
        checker.op("fleet op", problems)
        return end - start, res, start, end

    def measure(self, seconds: float, checker: Checker,
                tracer: Tracer | None) -> Measurement:
        walls: list[float] = []
        per_op: list[dict[str, float]] = []
        hook_cls = pilot_hook_class() if tracer is not None else None

        def one() -> None:
            hook = hook_cls() if hook_cls is not None else None
            wall, res, start, end = self._op(checker, tracer or NO_TRACE, hook)
            walls.append(wall)
            if self.first_op_s is None:
                self.first_op_s = wall
            if tracer is not None:
                spans = tracer.drain()
                layers = _zero_layers()
                _pilot_layers(layers, res, hook, _named(spans, "pilot.run")[0],
                              wall, spans)
                layers["bench.unattributed_ratio"] = _unattributed(
                    spans, start, end)
                per_op.append(layers)

        refs = closed_loop(seconds, one)
        return Measurement(
            op_s=walls, ref_s=refs,
            table={"fleet_run_p50_s": (p50(walls), "s", len(walls))},
            layers=_median_layers(per_op) if per_op else None)


# ---------------------------------------------------------------------------
# viewer: post-mortem browsing of the paper-scale trace
# ---------------------------------------------------------------------------

#: The paper-scale trace viewer and live browse: thumbnail, 1058 files.
TRACE_NFILES = 1058
TRACE_NPROCS = 11
ZOOM_WINDOWS = 8


class Viewer:
    """Open the thumbnail-1058 trace, then a fixed series of zooms."""

    name = "viewer"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.pinned = PINNED["viewer"].get(seed)
        self.trace_path = os.path.join(workdir, "viewer-trace.clog2")
        self.svg_path = os.path.join(workdir, "viewer.svg")
        self.trace_sha256: str | None = None
        self.windows: list[tuple[float, float]] = []
        self.ref_svgs: list[str] | None = None
        self.first_op_s: float | None = None

    def setup(self, checker: Checker) -> None:
        self.trace_sha256 = generate_trace(
            checker, self.trace_path, self.seed, self.pinned,
            self.trace_sha256)
        self.windows = []  # set by the warm-up session's open
        wall, _out = self._session(checker, NO_TRACE, [], [])
        if self.first_op_s is None:
            self.first_op_s = wall

    def _session(self, checker: Checker, sp: Any, opens: list[float],
                 zooms: list[float]) -> tuple[float, dict]:
        """One open, then every zoom window; each checked."""
        svgs: list[str] = []
        drawn = 0
        start = time.perf_counter()
        log, view, svg = _open_pipeline(sp, self.trace_path, self.svg_path)
        opened = time.perf_counter()
        if not self.windows:
            self.windows = zoom_windows(view.full_range, self.seed)
        svgs.append(hashlib.sha256(svg.encode()).hexdigest())
        zoom_walls: list[float] = []
        for left, right in self.windows:
            z0 = time.perf_counter()
            view.zoom_to(left, right)
            with sp.span("jumpshot.svg") as box:
                svg = render_svg(view, self.svg_path)
                box["value"] = len(svg)
            zoom_walls.append(time.perf_counter() - z0)
            svgs.append(hashlib.sha256(svg.encode()).hexdigest())
        end = time.perf_counter()
        opens.append(opened - start)
        zooms.extend(zoom_walls)
        if self.ref_svgs is None:
            self.ref_svgs = svgs
        problems: list[str] = []
        expect(problems, "records", len(log.records),
               self.pinned["records"] if self.pinned else len(log.records))
        expect(problems, "trace sha256", sha256_file(self.trace_path),
               self.trace_sha256)
        for i, (got, want) in enumerate(zip(svgs, self.ref_svgs)):
            expect(problems, f"svg {i} sha256", got, want)
        checker.op("viewer session", problems)
        if sp is not NO_TRACE:
            # Counted after the session, outside its timed window.
            view.zoom_fit()
            drawn = _drawn(view)
            for left, right in self.windows:
                view.zoom_to(left, right)
                drawn += _drawn(view)
        return end - start, {"log": log, "start": start, "end": end,
                             "drawn": drawn}

    def measure(self, seconds: float, checker: Checker,
                tracer: Tracer | None) -> Measurement:
        walls: list[float] = []
        opens: list[float] = []
        zooms: list[float] = []
        records: list[int] = []
        per_op: list[dict[str, float]] = []

        def one() -> None:
            wall, out = self._session(checker, tracer or NO_TRACE, opens,
                                      zooms)
            walls.append(wall)
            records.append(len(out["log"].records))
            if tracer is not None:
                spans = tracer.drain()
                layers = _zero_layers()
                _pipeline_layers(layers, spans,
                                 os.path.getsize(self.trace_path),
                                 out["drawn"])
                layers["bench.unattributed_ratio"] = _unattributed(
                    spans, out["start"], out["end"])
                per_op.append(layers)

        refs = closed_loop(seconds, one)
        rps = [n / w for n, w in zip(records, opens)]
        table = {"session_p50_s": (p50(walls), "s", len(walls)),
                 "open_p50_ms": (p50(opens) * 1e3, "ms", len(opens)),
                 "zoom_p50_ms": (p50(zooms) * 1e3, "ms", len(zooms)),
                 "records_per_s": (p50(rps), "1/s", len(rps))}
        zt = tail(zooms)
        if zt is not None:
            table[f"zoom_tail_ms(p{zt[0]})"] = (zt[1] * 1e3, "ms", len(zooms))
        return Measurement(op_s=walls, ref_s=refs, table=table,
                           layers=_median_layers(per_op) if per_op else None)


def zoom_windows(full_range: tuple[float, float],
                 seed: int) -> list[tuple[float, float]]:
    """A drill-down: each window half as wide as the one before (1/2 to
    1/256 of the span), placed by the seed.  Fixed widths keep the
    drawing work alike across seeds."""
    rng = random.Random(seed)
    t0, t1 = full_range
    windows = []
    for k in range(ZOOM_WINDOWS):
        width = (t1 - t0) / 2 ** (k + 1)
        left = t0 + rng.random() * (t1 - t0 - width)
        windows.append((left, left + width))
    return windows


def generate_trace(checker: Checker, path: str, seed: int,
                   pinned: dict | None, previous_sha256: str | None, *,
                   nfiles: int = TRACE_NFILES) -> str:
    """A logged ``thumbnail_main`` run writes the trace viewer and live
    browse.  It runs on the coroutine scheduler, whose logs are
    byte-identical to the threads backend's and which is faster."""
    main = functools.partial(thumbnail_main,
                             config=ThumbnailConfig(nfiles=nfiles, seed=seed))
    res = run_pilot(main, TRACE_NPROCS,
                    config=PilotConfig(services="j", mpe_log_path=path,
                                       seed=seed, scheduler="coroutine"))
    digest = sha256_file(path)
    problems: list[str] = []
    expect(problems, "trace run ok", res.ok, True)
    if pinned is not None:
        expect(problems, "trace sha256 prefix", digest[:16],
               pinned["trace_sha256"])
    if previous_sha256 is not None:
        expect(problems, "trace sha256 across set-ups", digest,
               previous_sha256)
    checker.op("trace generation", problems)
    return digest


# ---------------------------------------------------------------------------
# live: the viewer trace replayed as appends into a StreamService
# ---------------------------------------------------------------------------

#: Records per append: the engine's salvage checkpoint interval, the
#: ``-pisvc=v`` default (``JumpshotOptions.salvage_interval``).
APPEND_RECORDS = JumpshotOptions().salvage_interval
#: Records a real ``-pisvc=v`` thumbnail-1058 run writes per second of
#: wall time: 40,418 records in 5.5-5.6 s on the coroutine scheduler (the
#: one the trace is generated on), three runs on a 2-CPU x86-64 host.
RECORD_RATE = 7300.0
#: Head start the service and client get before the first append is due.
LEAD_S = 0.1
#: Tile level compared live-vs-batch after finalize: its eight frames
#: partition the span, so together they hold every drawable.
FINAL_TILE_LEVEL = 3
#: Level of the "newest tile" the client fetches while the run is live.
LIVE_TILE_LEVEL = 3
CLIENT_POLL_S = 0.01
REFLECT_DEADLINE_S = 10.0


@dataclass(frozen=True)
class Append:
    """One salvage checkpoint of the replay: ``records`` appended to
    ``rank``'s partial ``due`` seconds after the replay starts."""

    due: float
    rank: int
    records: list


def replay_schedule(records: list) -> list[Append]:
    """Shape the trace like the appends of a real ``-pisvc=v`` run.

    Each rank checkpoints every ``APPEND_RECORDS`` of its records.  The
    engine advances its ranks together in virtual time, so by the time a
    rank logs record ``i`` of the time-sorted merged log, about ``i``
    records exist in all; at ``RECORD_RATE`` that is
    ``(i + 1) / RECORD_RATE`` seconds in.  A rank's last records, fewer than an interval, are
    never appended: a clean finalize writes the merged CLOG2 instead.
    """
    appends: list[Append] = []
    pending: dict[int, list] = {}
    for index, rec in enumerate(records):
        chunk = pending.setdefault(rec.rank, [])
        chunk.append(rec)
        if len(chunk) == APPEND_RECORDS:
            appends.append(Append((index + 1) / RECORD_RATE, rec.rank, chunk))
            pending[rec.rank] = []
    return appends


class Live:
    """Replays of the trace's per-rank appends, on the schedule of a real
    run, into a ``StreamService``; one client thread polls ``/status``
    and the newest tile.  Replays run back to back; the appends within
    one are open loop."""

    name = "live"

    def __init__(self, seed: int, workdir: str, *,
                 nfiles: int = TRACE_NFILES) -> None:
        self.seed = seed
        self.workdir = workdir
        self.nfiles = nfiles
        self.pinned = (PINNED["viewer"].get(seed)
                       if nfiles == TRACE_NFILES else None)
        self.trace_path = os.path.join(workdir, "live-trace.clog2")
        self.trace_sha256: str | None = None
        self.log: Any = None
        self.batch_tiles: dict[tuple[int, int], bytes] = {}
        self.appends: list[Append] = []
        self.targets: list[tuple[int, int]] = []
        self.first_op_s: float | None = None
        self.replays = 0

    def setup(self, checker: Checker) -> None:
        self.trace_sha256 = generate_trace(
            checker, self.trace_path, self.seed, self.pinned,
            self.trace_sha256, nfiles=self.nfiles)
        self.log = read_log(self.trace_path).log
        _doc, _report, tree = convert_with_tree(self.log)
        self.batch_tiles = {
            (FINAL_TILE_LEVEL, frame): render_tile(tree, FINAL_TILE_LEVEL,
                                                   frame)
            for frame in range(1 << FINAL_TILE_LEVEL)}
        self.appends = replay_schedule(self.log.records)
        self.targets = self.fold_targets(self.appends)

    def fold_targets(self, appends: list[Append]) -> list[tuple[int, int]]:
        """For each append, the records the service must have taken in
        and, by a synchronous :class:`LiveFold`, folded once it is in."""
        fold = LiveFold()
        fold.add_definitions(self.log.definitions)
        for rank in range(self.log.num_ranks):
            fold.mark_rank_seen(rank)
        targets = []
        appended = 0
        for append in appends:
            fold.add_records(append.rank, append.records)
            fold.advance()
            appended += len(append.records)
            targets.append((appended, fold.records_folded))
        return targets

    def measure(self, seconds: float, checker: Checker,
                tracer: Tracer | None) -> Measurement:
        latencies: list[float] = []
        tile_latencies: list[float] = []
        lags: list[float] = []
        finalizes: list[float] = []
        per_replay: list[dict[str, float]] = []

        def one() -> None:
            out = self._replay(checker, tracer or NO_TRACE)
            if self.first_op_s is None:
                self.first_op_s = out["latencies"][0]
            latencies.extend(out["latencies"])
            tile_latencies.extend(out["tile_latencies"])
            lags.extend(out["lags"])
            finalizes.append(out["finalize_s"])
            if tracer is not None:
                per_replay.append(self._layers(tracer.drain(), out))

        closed_loop(seconds, one, min_ops=1)
        table = {"replays": (len(finalizes), "count", len(finalizes)),
                 "append_to_view_p50_ms": (p50(latencies) * 1e3, "ms",
                                           len(latencies)),
                 "generator_lag_p50_ms": (p50(lags) * 1e3, "ms", len(lags)),
                 "finalize_p50_s": (p50(finalizes), "s", len(finalizes))}
        for name, values in (("append_to_view", latencies),
                             ("tail_to_tile", tile_latencies)):
            if name == "tail_to_tile" and values:
                table["tail_to_tile_p50_ms"] = (p50(values) * 1e3, "ms",
                                                len(values))
            vt = tail(values)
            if vt is not None:
                table[f"{name}_tail_ms(p{vt[0]})"] = (vt[1] * 1e3, "ms",
                                                     len(values))
        return Measurement(
            op_s=latencies, table=table,
            layers=_median_layers(per_replay) if per_replay else None)

    def _replay(self, checker: Checker, sp: Any) -> dict[str, Any]:
        """One run's worth of appends, then a clean finalize; each append
        that moves the fold target is one checked op."""
        appends, targets = self.appends, self.targets
        self.replays += 1
        base = os.path.join(self.workdir, f"live-{self.replays}",
                            "run.clog2")
        os.makedirs(os.path.dirname(base))
        ranks = range(self.log.num_ranks)
        rank_logs = {r: SimpleNamespace(definitions=self.log.definitions,
                                        sync_points=[SyncPoint(0.0, 0.0)],
                                        records=[]) for r in ranks}
        writers = {r: AppendPartialWriter(partial_path(base, r), r,
                                          self.log.clock_resolution)
                   for r in ranks}
        service = StreamService(base, expected_ranks=self.log.num_ranks)
        client = _Client(service.port, targets, sp)
        due: list[float] = []
        lags: list[float] = []
        try:
            service.start()
            client.start()
            start = time.perf_counter() + LEAD_S
            for append in appends:
                when = start + append.due
                pause = when - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                began = time.perf_counter()
                with sp.span("mpe.append"):
                    rank_logs[append.rank].records.extend(append.records)
                    writers[append.rank].checkpoint(rank_logs[append.rank])
                due.append(when)
                lags.append(began - when)
                client.publish(when)
            client.wait_all(REFLECT_DEADLINE_S)
            gave_up = time.perf_counter()
            # A clean engine finalize: rank 0 writes the merged CLOG2,
            # the partials are removed, then the exit sidecar is written.
            shutil.copyfile(self.trace_path, base)
            cleanup_partials(base)
            fin0 = time.perf_counter()
            atomic_write_json(exit_path(base), {"finished": True, "ok": True,
                                                "crashed_ranks": {}})
            finalized = service.wait_finalized(30.0)
            finalize_s = time.perf_counter() - fin0
        finally:
            client.stop()
            service.stop()
        status = client.final_status

        # Every append is an op: from when it was due until the client
        # holds a status and a tile that are up to date with it.  Most
        # appends do not move the fold's watermark (their records wait
        # on a slower rank); those that do are also tail-to-tile
        # samples.  One never reflected counts with the time waited for
        # it, which misses any latency limit.
        latencies: list[float] = []
        tile_latencies: list[float] = []
        windows: list[tuple[float, float]] = []
        for i, (appended, folded) in enumerate(targets):
            seen = client.reflected.get(i)
            problems: list[str] = []
            if seen is None:
                problems.append(f"not reflected within {REFLECT_DEADLINE_S}s "
                                f"(target {appended} records in, {folded} "
                                "folded)")
                latency = gave_up - due[i]
            else:
                latency = seen - due[i]
                windows.append((due[i], seen))
            latencies.append(latency)
            if folded != (targets[i - 1][1] if i else 0):
                tile_latencies.append(latency)
            checker.op(f"live append {i}", problems)
        problems = []
        if not tile_latencies:
            problems.append("no append moved the fold")
        expect(problems, "finalized", finalized, True)
        expect(problems, "final state", status.get("state"), "final")
        if status.get("state") == "degraded":
            problems.append(f"degraded: reason={status.get('reason')!r} "
                            f"banner={status.get('banner')!r}")
        expect(problems, "final tiles fetched", len(client.final_tiles),
               len(self.batch_tiles))
        for addr, body in client.final_tiles.items():
            expect(problems, f"final tile {addr} == batch",
                   body == self.batch_tiles[addr], True)
        expect(problems, "trace sha256", sha256_file(self.trace_path),
               self.trace_sha256)
        checker.op("live finalize", problems)
        return {"latencies": latencies, "tile_latencies": tile_latencies,
                "lags": lags, "windows": windows,
                "finalize_s": finalize_s, "status": status}

    def _layers(self, spans: list[Span], out: dict[str, Any]
                ) -> dict[str, float]:
        layers = _zero_layers()
        polls = _named(spans, "stream.tail")
        layers["stream.tail_s"] = _total(spans, "stream.tail")
        layers["stream.polls"] = len(polls)
        layers["stream.empty_poll_ratio"] = (
            sum(1 for s in polls if not s.value) / len(polls)
            if polls else 0.0)
        layers["stream.fold_s"] = _total(spans, "stream.fold")
        layers["stream.records_folded"] = _values(spans, "stream.fold")
        tiles = [s.seconds for s in _named(spans, "stream.serve_tile")]
        layers["stream.tile_s"] = p50(tiles) if tiles else 0.0
        statuses = [s.seconds for s in _named(spans, "stream.serve_status")]
        layers["stream.status_s"] = p50(statuses) if statuses else 0.0
        cache = out["status"].get("cache", {})
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        layers["stream.cache_hit_ratio"] = (
            cache.get("hits", 0) / lookups if lookups else 0.0)
        layers["stream.finalize_s"] = out["finalize_s"]
        _pipeline_layers(layers, spans, os.path.getsize(self.trace_path), 0)
        layers["bench.generator_lag_p50_ms"] = p50(out["lags"]) * 1e3
        layers["bench.unattributed_ratio"] = p50(
            [_unattributed(spans, lo, hi) for lo, hi in out["windows"]]
            or [float("nan")])
        return layers


class _Client(threading.Thread):
    """The one client: polls ``/status`` and the newest tile over one
    HTTP/1.1 connection, and notes when each append's targets are met."""

    def __init__(self, port: int, targets: list[tuple[int, int]],
                 sp: Any) -> None:
        super().__init__(name="bench-client", daemon=True)
        self.port = port
        self.targets = targets
        self.sp = sp
        self.due: list[float] = []
        self.reflected: dict[int, float] = {}
        self.final_status: dict = {}
        self.final_tiles: dict[tuple[int, int], bytes] = {}
        self._published = threading.Condition()
        self._all_seen = threading.Event()
        self._stop_flag = threading.Event()

    def publish(self, due: float) -> None:
        with self._published:
            self.due.append(due)

    def wait_all(self, timeout: float) -> bool:
        return self._all_seen.wait(timeout)

    def stop(self) -> None:
        self._stop_flag.set()
        self.join(timeout=60.0)

    def _get(self, conn: http.client.HTTPConnection, path: str,
             span: str) -> tuple[int, bytes]:
        with self.sp.span(span):
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read()
        return resp.status, body

    def run(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            self._poll_until_stopped(conn)
            # After finalize: the final state and the tiles to compare.
            _code, body = self._get(conn, "/status", "stream.serve_status")
            self.final_status = json.loads(body)
            level = FINAL_TILE_LEVEL
            for frame in range(1 << level):
                code, body = self._get(conn, f"/tiles/{level}/{frame}",
                                       "stream.serve_final_tile")
                if code == 200:
                    self.final_tiles[(level, frame)] = body
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.final_status = {"state": "client error", "reason": repr(exc)}
        finally:
            conn.close()

    def _poll_until_stopped(self, conn: http.client.HTTPConnection) -> None:
        pending = 0  # first append not yet reflected
        while not self._stop_flag.is_set():
            with self._published:
                published = len(self.due)
            _code, body = self._get(conn, "/status", "stream.serve_status")
            status = json.loads(body)
            folded = status["records_folded"]
            taken_in = folded + status["records_buffered"]
            if status["final"]:
                break
            t0, t1 = status["span"]
            width = (t1 - t0) / (1 << LIVE_TILE_LEVEL)
            frame = 0
            if width > 0:
                frame = min((1 << LIVE_TILE_LEVEL) - 1,
                            max(0, int((status["watermark"] - t0) / width)))
            code, _tile = self._get(conn, f"/tiles/{LIVE_TILE_LEVEL}/{frame}",
                                    "stream.serve_tile")
            seen = time.perf_counter()
            # Before the first fold there is no tree: "no tile yet" is
            # then the up-to-date answer.
            if code == 200 or folded == 0:
                while (pending < published
                       and self.targets[pending][0] <= taken_in
                       and self.targets[pending][1] <= folded):
                    self.reflected[pending] = seen
                    pending += 1
            if pending >= len(self.targets):
                self._all_seen.set()
                self._stop_flag.wait(CLIENT_POLL_S)
                if self._stop_flag.is_set():
                    break
                continue
            time.sleep(CLIENT_POLL_S)
        # Wait for the service to finish finalizing before the final
        # fetch (the main thread stops the client only after that).
        self._stop_flag.wait()


WORKLOADS = {cls.name: cls for cls in (Classroom, ClassroomDefault, Fleet,
                                        Viewer, Live)}
