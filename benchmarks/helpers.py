"""Shared run-and-convert helper for the figure benchmarks."""

from __future__ import annotations

from repro.mpe import read_log
from repro.pilot import PilotConfig, run_pilot
from repro.slog2 import convert


def run_logged(main, nprocs, tmp_path, *, argv=("-pisvc=j",), name="run",
               jopts=None, **kw):
    """Run a Pilot program with MPE logging; return (result, doc, report)."""
    clog_path = str(tmp_path / f"{name}.clog2")
    result = run_pilot(main, nprocs, argv=argv, config=PilotConfig(
        mpe_log_path=clog_path, mpe=jopts, **kw))
    doc, report = convert(read_log(clog_path).log,
                          {p.rank: p.name for p in result.run.processes})
    return result, doc, report


def states_by_rank(doc, name):
    out: dict[int, list] = {}
    for s in doc.states_of(name):
        out.setdefault(s.rank, []).append(s)
    return out


def overlap(a: tuple[float, float], b: tuple[float, float]) -> float:
    return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
