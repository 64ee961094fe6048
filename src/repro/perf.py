"""Built-in performance counters for the log pipeline.

The ROADMAP's north star is a pipeline that runs "as fast as the
hardware allows"; you cannot steer toward that without measuring it.
This module is the measurement harness every stage shares: monotonic
wall-clock timers plus records/bytes/drawables counters, grouped by
stage name, dumpable as JSON.

Usage::

    perf = PerfRecorder()
    with perf.stage("clog2-write"):
        write_clog2(path, log, perf=perf)
    perf.count("clog2-write", records=len(log.records))
    print(perf.summary())
    perf.dump("BENCH_pipeline.json")

Every pipeline entry point (:func:`repro.mpe.clog2.write_clog2`,
:func:`repro.mpe.clog2.read_log`,
:func:`repro.mpe.salvage.merge_partial_logs`,
:func:`repro.slog2.convert.convert`,
:class:`repro.slog2.frames.FrameTree`,
:func:`repro.jumpshot.svg.render_svg`) accepts an optional
``perf=PerfRecorder`` and accounts its own stage; ``None`` costs one
``if`` per call.  At the Pilot level, service ``p`` (``-pisvc=p``, see
:mod:`repro.pilot.config`) arms a run-wide recorder and writes its
snapshot next to the MPE log.

Timers are *real* wall time (``time.perf_counter``), never virtual
simulation time: these counters measure the tool, not the program being
traced.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass


def peak_rss_bytes() -> int:
    """Process-lifetime peak resident set size in bytes (0 if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes; normalise to bytes.
    import sys
    return rss if sys.platform == "darwin" else rss * 1024


@dataclass
class StageStats:
    """Accumulated cost of one named pipeline stage."""

    seconds: float = 0.0
    calls: int = 0
    records: int = 0
    bytes: int = 0
    drawables: int = 0

    @property
    def records_per_sec(self) -> float:
        return self.records / self.seconds if self.seconds > 0 else 0.0

    def as_dict(self) -> dict:
        out = {"seconds": self.seconds, "calls": self.calls}
        for name in ("records", "bytes", "drawables"):
            value = getattr(self, name)
            if value:
                out[name] = value
        if self.records and self.seconds > 0:
            out["records_per_sec"] = self.records_per_sec
        return out


class _StageTimer:
    """Context manager produced by :meth:`PerfRecorder.stage`."""

    __slots__ = ("_recorder", "_name", "_t0")

    def __init__(self, recorder: "PerfRecorder", name: str) -> None:
        self._recorder = recorder
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_StageTimer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._recorder.record(self._name, time.perf_counter() - self._t0)

    def count(self, **kw: int) -> None:
        """Attribute counters to this timer's stage (records=, bytes=,
        drawables=)."""
        self._recorder.count(self._name, **kw)


class PerfRecorder:
    """Named stage timers + counters, JSON-dumpable.

    One recorder spans one pipeline run; stages may be entered any
    number of times (costs accumulate).  Not thread-safe by design —
    each pipeline run is single-threaded, and the Pilot runner creates
    one recorder per run.
    """

    def __init__(self, meta: dict[str, object] | None = None) -> None:
        self.stages: dict[str, StageStats] = {}
        self.meta: dict[str, object] = dict(meta) if meta else {}
        self._started = time.perf_counter()

    def _stats(self, name: str) -> StageStats:
        stats = self.stages.get(name)
        if stats is None:
            stats = self.stages[name] = StageStats()
        return stats

    def stage(self, name: str) -> _StageTimer:
        """``with perf.stage("merge"): ...`` times one stage entry."""
        return _StageTimer(self, name)

    def record(self, name: str, seconds: float) -> None:
        """Account one entry of stage ``name`` timed by the caller."""
        stats = self._stats(name)
        stats.seconds += seconds
        stats.calls += 1

    def count(self, name: str, *, records: int = 0, bytes: int = 0,
              drawables: int = 0) -> None:
        stats = self._stats(name)
        stats.records += records
        stats.bytes += bytes
        stats.drawables += drawables

    # -- reading -----------------------------------------------------------

    @property
    def wall_seconds(self) -> float:
        """Wall time since the recorder was created."""
        return time.perf_counter() - self._started

    def snapshot(self) -> dict:
        """JSON-ready view of everything recorded so far."""
        return {
            "wall_seconds": self.wall_seconds,
            "peak_rss_bytes": peak_rss_bytes(),
            "stages": {name: stats.as_dict()
                       for name, stats in sorted(self.stages.items())},
            **({"meta": dict(self.meta)} if self.meta else {}),
        }

    def summary(self) -> str:
        """Human-oriented one-line-per-stage rendering."""
        lines = ["perf: stage timings"]
        for name, stats in sorted(self.stages.items()):
            line = f"  {name:20s} {stats.seconds * 1e3:10.2f} ms"
            if stats.records:
                line += f"  {stats.records:>9d} rec"
                if stats.seconds > 0:
                    line += f"  {stats.records_per_sec:>12,.0f} rec/s"
            if stats.bytes:
                line += f"  {stats.bytes:>11d} B"
            if stats.drawables:
                line += f"  {stats.drawables:>8d} drw"
            lines.append(line)
        lines.append(f"  {'peak rss':20s} {peak_rss_bytes() / 1e6:10.2f} MB")
        return "\n".join(lines)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")
