"""``diff_traces``: the library face of trace diffing.

Loads two inputs tolerantly (:mod:`repro.tracediff.load`), aligns them
per rank (:mod:`repro.tracediff.align`), ranks the ranks most likely at
fault (:mod:`repro.tracediff.score`), and packages everything as a
:class:`TraceDiff` the CLI, the SARIF emitter and the Jumpshot overlay
all consume.  ``repro.perf`` counters cover the three stages
(``diff-load`` / ``diff-align`` / ``diff-score``), which is what
``benchmarks/test_diff.py`` gates.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.perf import NO_PERF, PerfRecorder
from repro.tracediff.align import (
    STRUCTURAL_KINDS,
    DiffEpisode,
    align_rank,
    event_name_table,
    rank_streams,
)
from repro.tracediff.load import TraceSide, file_digest, load_side
from repro.tracediff.score import RankScore, score_ranks

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpe.clog2 import Clog2File


@dataclass
class TraceDiff:
    """Everything a structural comparison of two traces produced."""

    label_a: str
    label_b: str
    identical: bool
    records_a: int
    records_b: int
    ranks_a: int
    ranks_b: int
    aligned_events: int
    episodes: list[DiffEpisode] = field(default_factory=list)
    scores: list[RankScore] = field(default_factory=list)
    salvage_notes: list[str] = field(default_factory=list)
    time_tolerance: float = 0.0

    @property
    def empty(self) -> bool:
        """No divergence of any kind (identical inputs or equal logs)."""
        return not self.episodes and not any(
            s.score > 0 for s in self.scores)

    @property
    def partial(self) -> bool:
        """True when a side was salvaged/truncated: the diff covers only
        what the tolerant readers could hand over."""
        return bool(self.salvage_notes)

    @property
    def blamed_rank(self) -> int | None:
        """The rank ranked most likely at fault (None when empty)."""
        if self.scores and self.scores[0].score > 0:
            return self.scores[0].rank
        return None

    @property
    def structural_episodes(self) -> list[DiffEpisode]:
        return [ep for ep in self.episodes if ep.kind in STRUCTURAL_KINDS]

    def diverging_ranks(self) -> list[int]:
        return sorted({ep.rank for ep in self.episodes})

    def time_range(self) -> tuple[float, float] | None:
        """Span of episode anchor times (for rendering), if any."""
        times = [ep.time for ep in self.episodes if ep.time is not None]
        if not times:
            return None
        return min(times), max(times)

    def summary(self, *, max_episodes: int = 10) -> str:
        lines = [f"trace diff: {self.label_a} vs {self.label_b}"]
        lines.append(f"  {self.label_a}: {self.records_a} records / "
                     f"{self.ranks_a} ranks; {self.label_b}: "
                     f"{self.records_b} records / {self.ranks_b} ranks")
        for note in self.salvage_notes:
            lines.append(f"  partial alignment: {note}")
        if self.identical:
            lines.append("  traces are byte-identical")
            return "\n".join(lines)
        if self.empty:
            lines.append(f"  no divergence ({self.aligned_events} "
                         f"events aligned)")
            return "\n".join(lines)
        diverged = sum(ep.count for ep in self.structural_episodes)
        lines.append(f"  {self.aligned_events} events aligned, {diverged} "
                     f"diverging in {len(self.episodes)} episode(s)")
        blamed = self.blamed_rank
        if blamed is not None:
            lines.append(f"  most likely at fault: rank {blamed}")
        for score in self.scores:
            if score.score > 0 or score.episodes:
                lines.append(f"    {score.render()}")
        shown = self.episodes[:max_episodes]
        if shown:
            lines.append("  episodes:")
            for ep in shown:
                lines.append(f"    {ep.render()}")
            if len(self.episodes) > len(shown):
                lines.append(f"    … +{len(self.episodes) - len(shown)} "
                             f"more episode(s)")
        return "\n".join(lines)


def _crashed_only(side_a: TraceSide, side_b: TraceSide) -> dict[int, str]:
    """Ranks whose crash/recovery is recorded by exactly one side."""
    marked_a = set(side_a.crashed_ranks)
    marked_b = set(side_b.crashed_ranks)
    for report, bucket in ((side_a.report, marked_a),
                           (side_b.report, marked_b)):
        if report is not None:
            bucket.update(int(ep.get("rank", -1))
                          for ep in report.recoveries)
    out: dict[int, str] = {}
    for rank in sorted(marked_a ^ marked_b):
        out[rank] = side_a.label if rank in marked_a else side_b.label
    return out


def _read_clog2_header(path: str):
    """The fixed CLOG2 header of ``path``, or None if it has none."""
    from repro.mpe.clog2 import read_header
    try:
        with open(path, "rb") as fh:
            return read_header(fh)
    except Exception:
        return None


def _identical_diff(side_a: TraceSide, side_b: TraceSide,
                    tolerance: float) -> TraceDiff:
    log_a, log_b = side_a.log, side_b.log
    return TraceDiff(
        side_a.label, side_b.label, True,
        len(log_a.records), len(log_b.records),
        log_a.num_ranks, log_b.num_ranks,
        len(log_a.records), time_tolerance=tolerance)


def diff_sides(side_a: TraceSide, side_b: TraceSide, *,
               time_tolerance: float = 1e-9,
               perf: PerfRecorder = NO_PERF) -> TraceDiff:
    """Structurally diff two loaded sides (see :func:`diff_traces`)."""
    log_a, log_b = side_a.log, side_b.log
    names_a = event_name_table(log_a.definitions)
    names_b = event_name_table(log_b.definitions)
    episodes: list[DiffEpisode] = []
    aligned = 0
    with perf.stage("diff-align") as timer:
        streams_a = rank_streams(log_a.records)
        streams_b = rank_streams(log_b.records)
        for rank in sorted(set(streams_a) | set(streams_b)):
            recs_a = streams_a.get(rank, [])
            recs_b = streams_b.get(rank, [])
            rank_eps = align_rank(rank, recs_a, recs_b, names_a, names_b,
                                  time_tolerance=time_tolerance)
            episodes.extend(rank_eps)
            diverged = sum(ep.count for ep in rank_eps
                           if ep.kind in STRUCTURAL_KINDS)
            aligned += max(0, min(len(recs_a), len(recs_b)) - diverged)
    timer.count(records=len(log_a.records) + len(log_b.records))

    episodes.sort(key=lambda ep: (ep.time if ep.time is not None
                                  else float("inf"), ep.rank, ep.index_a))
    ranks = sorted(set(range(log_a.num_ranks)) | set(range(log_b.num_ranks)))
    crashed_only = _crashed_only(side_a, side_b)
    with perf.stage("diff-score"):
        scores = score_ranks(episodes, ranks, crashed_only=crashed_only)

    notes = side_a.salvage_notes() + side_b.salvage_notes()
    if log_a.num_ranks != log_b.num_ranks:
        notes.append(f"rank counts differ: {side_a.label} has "
                     f"{log_a.num_ranks}, {side_b.label} has "
                     f"{log_b.num_ranks}")
    return TraceDiff(
        side_a.label, side_b.label, False,
        len(log_a.records), len(log_b.records),
        log_a.num_ranks, log_b.num_ranks,
        aligned, episodes, scores, notes, time_tolerance)


def diff_traces(a: "str | Clog2File | TraceSide",
                b: "str | Clog2File | TraceSide", *,
                errors: str = "salvage", time_tolerance: float = 1e-9,
                label_a: str | None = None, label_b: str | None = None,
                perf: PerfRecorder = NO_PERF) -> TraceDiff:
    """Diff two traces and localize the rank most likely at fault.

    ``a`` is the reference (fault-free / before) trace, ``b`` the
    suspect (faulted / after) one; each may be a CLOG2 path, the base
    path of an aborted run's salvage partials, an in-memory
    :class:`~repro.mpe.clog2.Clog2File`, or a pre-built
    :class:`~repro.tracediff.load.TraceSide`.  ``errors`` follows the
    unified reader convention: ``"salvage"`` (default) never fails on
    damage the tolerant readers accept and reports partial alignment
    instead; ``"strict"`` raises on any damaged input.
    """
    def _label(src, fallback: str) -> str:
        if isinstance(src, str):
            return os.path.basename(src) or src
        if isinstance(src, TraceSide):
            return src.label
        return fallback

    la = label_a or _label(a, "A")
    lb = label_b or _label(b, "B")
    # Byte-identity fast path: replay pairs are *supposed* to be
    # byte-identical, so the common "did anything change?" query pays
    # for two streamed digests and one header — never a parse or an
    # alignment.
    identical = (isinstance(a, str) and isinstance(b, str)
                 and os.path.isfile(a) and os.path.isfile(b)
                 and os.path.getsize(a) == os.path.getsize(b)
                 and file_digest(a) == file_digest(b))
    if identical:
        header = _read_clog2_header(a)
        if header is not None:
            perf.count("diff-load", records=header.num_records,
                       bytes=os.path.getsize(a))
            return TraceDiff(
                la, lb, True, header.num_records, header.num_records,
                header.num_ranks, header.num_ranks, header.num_records,
                time_tolerance=time_tolerance)
    # Identical bytes in a container the header reader doesn't
    # recognise still load (tolerantly), just for the counts.
    with perf.stage("diff-load"):
        side_a = load_side(a, la, errors=errors, perf=perf)
        side_b = load_side(b, lb, errors=errors, perf=perf)
    if identical:
        return _identical_diff(side_a, side_b, time_tolerance)
    return diff_sides(side_a, side_b, time_tolerance=time_tolerance,
                      perf=perf)


__all__ = ["TraceDiff", "diff_sides", "diff_traces"]
