"""SLOG2 drawable model.

SLOG2 is Jumpshot's native input: a *drawable-centric* format.  Where
CLOG2 stores instantaneous records (state start/end halves, send/recv
halves), SLOG2 stores completed graphical objects:

* :class:`State` — a rectangle on one rank's timeline (with nesting
  depth, so inner rectangles draw on top, Section III);
* :class:`Event` — a bubble at one instant;
* :class:`Arrow` — a message line between two ranks' timelines whose
  popup shows "the start and end times of the transmission, its
  duration, the MPI tag, and message size.  No way was found to attach
  additional data." (Section III.B) — hence Arrow has no text field.

Categories carry the legend entry (name, colour, shape) every drawable
instance inherits.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SlogCategory:
    index: int
    name: str
    color: str
    shape: str  # "state" | "event" | "arrow"


@dataclass(frozen=True)
class State:
    category: int
    rank: int
    start: float
    end: float
    depth: int  # nesting level (0 = outermost)
    start_text: str = ""
    end_text: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Event:
    category: int
    rank: int
    time: float
    text: str = ""


@dataclass(frozen=True)
class Arrow:
    category: int
    src_rank: int
    dst_rank: int
    start: float  # send time
    end: float  # receive time
    tag: int
    size: int

    @property
    def duration(self) -> float:
        return self.end - self.start


Drawable = State | Event | Arrow


def drawable_span(d: Drawable) -> tuple[float, float]:
    """(earliest, latest) time the drawable touches."""
    if isinstance(d, Event):
        return d.time, d.time
    lo, hi = d.start, d.end
    return (lo, hi) if lo <= hi else (hi, lo)


@dataclass
class Slog2Doc:
    """A fully converted log, ready for the viewer."""

    categories: list[SlogCategory]
    states: list[State]
    events: list[Event]
    arrows: list[Arrow]
    num_ranks: int
    clock_resolution: float
    rank_names: dict[int, str] = field(default_factory=dict)
    # Set when the log was salvaged from a crashed run: the recovery
    # accounting (a repro.mpe.recovery.RecoveryReport) and the ranks
    # known to have crashed (rank -> virtual time, or None if unknown).
    # The viewers render these as a banner and timeline markers.
    salvaged: "object | None" = None
    crashed_ranks: dict[int, "float | None"] = field(default_factory=dict)
    # Analysis annotations (e.g. a pilotcheck PC003 cycle matching an
    # observed deadlock): free-form lines the viewers surface alongside
    # the salvage banner.  Viewer-level decoration only — not persisted
    # by write_slog2.
    annotations: list[str] = field(default_factory=list)

    @property
    def drawables(self) -> list[Drawable]:
        return [*self.states, *self.events, *self.arrows]

    def category_by_name(self, name: str) -> SlogCategory:
        for cat in self.categories:
            if cat.name == name:
                return cat
        raise KeyError(name)

    def states_of(self, name: str) -> list[State]:
        cat = self.category_by_name(name)
        return [s for s in self.states if s.category == cat.index]

    def events_of(self, name: str) -> list[Event]:
        cat = self.category_by_name(name)
        return [e for e in self.events if e.category == cat.index]

    @property
    def time_range(self) -> tuple[float, float]:
        """(earliest, latest) time any drawable touches — the union of
        :func:`drawable_span` over every drawable, in one pass."""
        inf = float("inf")
        lo, hi = inf, -inf
        for s in self.states:
            a, b = s.start, s.end
            if a > b:
                a, b = b, a
            if a < lo:
                lo = a
            if b > hi:
                hi = b
        for e in self.events:
            t = e.time
            if t < lo:
                lo = t
            if t > hi:
                hi = t
        for r in self.arrows:
            a, b = r.start, r.end
            if a > b:
                a, b = b, a
            if a < lo:
                lo = a
            if b > hi:
                hi = b
        if lo == inf:
            return 0.0, 0.0
        return lo, hi
