"""Incrementally folding tailed records into a queryable frame tree.

:class:`LiveFold` buffers per-rank record streams from the follower
and releases them into a :class:`~repro.slog2.convert.StreamConverter`
(sink-wired into a :class:`~repro.slog2.frames.FrameTree`) in global
``(timestamp, rank)`` order, gated by a **watermark**: a record is
folded only once every still-live rank's delivered frontier has passed
its timestamp, so the provisional tree never contains an ordering the
batch merge would disagree with *for the records it holds*.

The live fold is deliberately provisional: it applies no clock
correction (the piecewise correction of :mod:`repro.mpe.merge` depends
on sync points that keep arriving until the writer ends).  When the
writer finishes or dies, the service replaces this tree wholesale with
one built by the real batch pipeline — that swap, not the live fold,
is what makes the final view byte-identical to ``merge → convert``.

The frame tree needs its root span up front, but a live run's extent
is unknown; the fold starts with a small horizon and rebuilds the tree
with a doubled span whenever the watermark outgrows it (amortised
O(records) total, same trick as a growing array).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from repro.perf import NO_PERF, PerfRecorder
from repro.slog2.convert import StreamConverter
from repro.slog2.frames import DEFAULT_FRAME_SIZE, FrameTree

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpe.records import Definition, LogRecord
    from repro.slog2.model import SlogCategory
    from repro.stream.follow import FollowUpdate

_INITIAL_HORIZON = 1e-3


class LiveFold:
    """Watermark-ordered incremental CLOG2 → frame-tree fold."""

    def __init__(self, *, frame_size: int | None = None,
                 clock_resolution: float = 1e-6,
                 perf: PerfRecorder = NO_PERF) -> None:
        self.frame_size = frame_size or DEFAULT_FRAME_SIZE
        self.clock_resolution = clock_resolution
        self.perf = perf
        self._definitions: list["Definition"] = []
        self._def_keys: set[str] = set()
        self._defs_dirty = False
        self._pending: dict[int, list["LogRecord"]] = {}
        self._frontier: dict[int, float] = {}
        self._finished_ranks: set[int] = set()
        self._emitted: list[tuple[float, int, "LogRecord"]] = []
        self.watermark = 0.0
        self.records_folded = 0
        self._horizon = _INITIAL_HORIZON
        self._conv: StreamConverter | None = None
        self._tree: FrameTree | None = None

    # -- ingest ------------------------------------------------------------

    def add_definitions(self, definitions: list["Definition"]) -> None:
        for d in definitions:
            key = repr(d)
            if key in self._def_keys:
                continue
            self._def_keys.add(key)
            self._definitions.append(d)
            if self._conv is not None:
                # A definition arriving after folding started changes
                # the category table; rebuild from scratch (rare).
                self._defs_dirty = True

    def add_records(self, rank: int, records: list["LogRecord"]) -> None:
        if not records:
            return
        self._pending.setdefault(rank, []).extend(records)
        self._frontier[rank] = max(self._frontier.get(rank, 0.0),
                                   records[-1].timestamp)

    def mark_rank_seen(self, rank: int) -> None:
        self._frontier.setdefault(rank, 0.0)

    def mark_rank_finished(self, rank: int) -> None:
        self._finished_ranks.add(rank)

    def absorb(self, update: "FollowUpdate") -> None:
        """Buffer everything one follower poll delivered."""
        self.add_definitions(update.new_definitions)
        for rank in update.new_ranks:
            self.mark_rank_seen(rank)
        for rank, records in update.replayed_records.items():
            self.add_records(rank, records)
        for rank, records in update.new_records.items():
            self.add_records(rank, records)

    # -- folding -----------------------------------------------------------

    def advance(self, *, drain: bool = False) -> int:
        """Fold every eligible buffered record; returns how many.

        ``drain=True`` ignores the watermark (used only when every
        writer is known dead and a batch finalize is not possible).
        """
        live = [rank for rank in self._frontier
                if rank not in self._finished_ranks]
        if drain or not live:
            watermark = float("inf")
        else:
            watermark = min(self._frontier[rank] for rank in live)
        self.watermark = max(self.watermark,
                             0.0 if watermark == float("inf")
                             else watermark)
        batches: list[list[tuple[float, int, "LogRecord"]]] = []
        for rank, buffered in self._pending.items():
            cut = 0
            for cut, rec in enumerate(buffered, start=1):
                # Strict: a record *at* the watermark is held, because a
                # lower rank may still deliver an equal timestamp and
                # (t, rank) order would be unrecoverable once fed.
                if rec.timestamp >= watermark:
                    cut -= 1
                    break
            if cut:
                batches.append([(rec.timestamp, rank, rec)
                                for rec in buffered[:cut]])
                del buffered[:cut]
        if not batches:
            return 0
        merged = list(heapq.merge(*batches, key=lambda t: (t[0], t[1])))
        self._ensure_fold(merged[-1][0])
        assert self._conv is not None
        self._conv.feed_all(rec for _t, _rank, rec in merged)
        self._emitted.extend(merged)
        self.records_folded += len(merged)
        self.perf.count("stream-fold", records=len(merged))
        return len(merged)

    def _ensure_fold(self, needed_t: float) -> None:
        if (self._conv is None or self._defs_dirty
                or needed_t > self._horizon):
            while needed_t > self._horizon:
                self._horizon *= 2
            self._rebuild()

    def _rebuild(self) -> None:
        self._defs_dirty = False
        self._tree = FrameTree.for_span(0.0, self._horizon,
                                        frame_size=self.frame_size)
        self._conv = StreamConverter(num_ranks=self.num_ranks,
                                     clock_resolution=self.clock_resolution,
                                     sink=self._tree.insert)
        self._conv.feed_all(self._definitions)
        if self._emitted:
            self._conv.feed_all(rec for _t, _rank, rec in self._emitted)

    # -- views -------------------------------------------------------------

    @property
    def num_ranks(self) -> int:
        return (max(self._frontier) + 1) if self._frontier else 0

    @property
    def tree(self) -> FrameTree | None:
        return self._tree

    def span(self) -> tuple[float, float]:
        if self._tree is None:
            return (0.0, self._horizon)
        return (self._tree.root.t0, self._tree.root.t1)

    def categories(self) -> list["SlogCategory"]:
        """The category table the current definitions produce (same
        assignment rule as the converter: states, events, arrow last)."""
        conv = StreamConverter()
        conv.feed_all(self._definitions)
        doc, _report = conv.finish()
        return doc.categories

    def rank_names(self) -> dict[int, str]:
        from repro.mpe.records import RankName

        return {d.rank: d.name for d in self._definitions
                if isinstance(d, RankName)}

    def buffered_records(self) -> int:
        return sum(len(b) for b in self._pending.values())
