"""Legend statistics: count, inclusive and exclusive durations.

From the paper (Section III): for each state the legend shows "a
'count' of the number of instances ... and two durations marked 'incl'
and 'excl'.  Inclusive means the sum of the duration of its state
instances ... Exclusive is the inclusive time minus any nested states,
i.e., subtracting interior rectangles, which amounts to the time spent
computing purely in the state and not in its substates.  These
statistics are potentially useful for performance purposes in the
absence of special-purpose profiling tools."
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

from repro.slog2.model import Slog2Doc, State


@dataclass
class CategoryStats:
    name: str
    color: str
    shape: str
    count: int = 0
    incl: float = 0.0
    excl: float = 0.0


def compute_stats(doc: Slog2Doc, t0: float | None = None,
                  t1: float | None = None) -> dict[str, CategoryStats]:
    """Legend statistics, optionally restricted to a time window.

    Windowed statistics clip states at the window edges (Jumpshot's
    "draw a picture from user-selected duration" feature for analysing
    a portion of the run, Section II.B).
    """
    # A missing bound is open-ended: every drawable lies within the
    # document's time range, so clipping at infinity is clipping at the
    # range's edge, without a pass over the document to find it.
    lo = -math.inf if t0 is None else t0
    hi = math.inf if t1 is None else t1
    stats: dict[str, CategoryStats] = {}
    for cat in doc.categories:
        stats[cat.name] = CategoryStats(cat.name, cat.color, cat.shape)
    # Each category's entry, resolved once (index = category).
    entries = [stats[cat.name] for cat in doc.categories]

    # States: clip to window; exclusive = inclusive minus direct children.
    by_rank: dict[int, list[State]] = defaultdict(list)
    for s in doc.states:
        clipped = _clip(s, lo, hi)
        if clipped is not None:
            by_rank[s.rank].append(clipped)
    for rank_states in by_rank.values():
        _accumulate_rank(rank_states, entries)

    for e in doc.events:
        if lo <= e.time <= hi:
            entries[e.category].count += 1
    for a in doc.arrows:
        if a.start <= hi and lo <= a.end:
            entry = entries[a.category]
            entry.count += 1
            entry.incl += max(0.0, min(a.end, hi) - max(a.start, lo))
    return stats


def _clip(s: State, lo: float, hi: float) -> State | None:
    if s.start > hi or s.end < lo:
        return None
    if s.start >= lo and s.end <= hi:
        return s
    return State(s.category, s.rank, max(s.start, lo), min(s.end, hi),
                 s.depth, s.start_text, s.end_text)


def _accumulate_rank(states: list[State],
                     entries: list[CategoryStats]) -> None:
    """Stack sweep over one rank's states (sorted by start, outer first)
    charging each child's duration against its *immediate* parent."""
    ordered = sorted(states, key=lambda s: (s.start, -s.duration, s.depth))
    stack: list[list] = []  # [state, accumulated child time]
    for s in ordered:
        while stack and stack[-1][0].end <= s.start + 1e-18:
            _pop(stack, entries)
        if stack:
            stack[-1][1] += s.duration
        stack.append([s, 0.0])
    while stack:
        _pop(stack, entries)


def _pop(stack: list[list], entries: list[CategoryStats]) -> None:
    state, child_time = stack.pop()
    duration = state.duration
    entry = entries[state.category]
    entry.count += 1
    entry.incl += duration
    entry.excl += max(0.0, duration - child_time)


def sorted_stats(stats: dict[str, CategoryStats],
                 key: str = "incl", descending: bool = True) -> list[CategoryStats]:
    """Legend sorting, as Jumpshot's legend table offers ("can be
    sorted")."""
    if key not in ("count", "incl", "excl", "name"):
        raise ValueError(f"cannot sort legend by {key!r}")
    return sorted(stats.values(),
                  key=(lambda s: getattr(s, key)), reverse=descending)
