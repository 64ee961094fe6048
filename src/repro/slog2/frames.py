"""SLOG2's frame tree: bounded-size time-interval nodes with previews.

SLOG2 organises drawables into a binary tree over the time axis so a
viewer can fetch any window at any zoom without reading the whole file.
Each node has a byte budget (the "frame size", an adjustable conversion
parameter the paper calls out in Section II.A); a drawable lives in the
*shallowest* node that (a) fully contains its span and (b) whose child
would not also contain it — except that when a node overflows its
budget, its smallest drawables are pushed down / summarised.

Internal nodes carry **preview** summaries: per (rank, category)
duration totals, which is exactly what Jumpshot draws as the striped
outline rectangles at zoomed-out scale ("the widths of the stripes
indicate the relative proportions of each colour", paper Section
III.D / Fig. 1 discussion).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.slog2.model import Arrow, Drawable, Event, Slog2Doc, State

# Approximate serialised size per drawable, for the byte budget.
_DRAWABLE_BYTES = {State: 64, Event: 48, Arrow: 56}

DEFAULT_FRAME_SIZE = 64 * 1024


@dataclass
class Preview:
    """Aggregate of drawables summarised below a node: per (rank,
    category) total duration and count (events count with zero
    duration; arrows attribute to the source rank)."""

    duration: dict[tuple[int, int], float] = field(default_factory=dict)
    count: dict[tuple[int, int], int] = field(default_factory=dict)

    def add(self, *drawables: Drawable) -> None:
        duration, count = self.duration, self.count
        for d in drawables:
            kind = d.__class__
            if kind is State:
                key = (d.rank, d.category)
                dur = d.end - d.start
            elif kind is Event:
                key = (d.rank, d.category)
                dur = 0.0
            else:
                key = (d.src_rank, d.category)
                dur = 0.0
            duration[key] = duration.get(key, 0.0) + dur
            count[key] = count.get(key, 0) + 1

    @property
    def total_count(self) -> int:
        return sum(self.count.values())


@dataclass
class FrameNode:
    t0: float
    t1: float
    depth: int
    drawables: list[Drawable] = field(default_factory=list)
    children: list["FrameNode"] = field(default_factory=list)
    preview: Preview = field(default_factory=Preview)
    _nbytes: int = 0  # maintained incrementally: inserts are hot

    @property
    def midpoint(self) -> float:
        return (self.t0 + self.t1) / 2.0

    @property
    def nbytes(self) -> int:
        return self._nbytes

    def overlaps(self, lo: float, hi: float) -> bool:
        return lo <= self.t1 and self.t0 <= hi


class FrameTree:
    """Build and query the frame tree for one document.

    Two construction paths produce the same queryable structure:

    * ``FrameTree(doc)`` — eager: insert every drawable the document
      already holds, then build previews.
    * :meth:`for_span` + :meth:`insert` + :meth:`finalize` — streaming:
      the converter pushes drawables in as it emits them (see
      :func:`repro.slog2.convert.convert_with_tree`), so the tree never
      needs the concatenated ``doc.drawables`` list.  ``for_span``
      takes explicit time bounds because the root's extent must be
      known before the first insert; a drawable outside the bounds is
      still kept (it lives at the root, the straddle rule).
    """

    def __init__(self, doc: Slog2Doc, frame_size: int = DEFAULT_FRAME_SIZE,
                 max_depth: int = 16) -> None:
        if frame_size < 256:
            raise ValueError(f"frame_size must be >= 256 bytes, got {frame_size}")
        self.doc = doc
        self.frame_size = frame_size
        self.max_depth = max_depth
        t0, t1 = doc.time_range
        if t1 <= t0:
            t1 = t0 + max(doc.clock_resolution, 1e-9)
        self.root = FrameNode(t0, t1, 0)
        for d in doc.drawables:
            self._insert(self.root, d)
        self._build_previews(self.root)

    # -- construction ------------------------------------------------------

    @classmethod
    def for_span(cls, t0: float, t1: float, *,
                 frame_size: int = DEFAULT_FRAME_SIZE,
                 max_depth: int = 16) -> "FrameTree":
        """An empty tree over ``[t0, t1]``, ready for streaming
        :meth:`insert` calls; call :meth:`finalize` when done."""
        if frame_size < 256:
            raise ValueError(f"frame_size must be >= 256 bytes, got {frame_size}")
        tree = cls.__new__(cls)
        tree.doc = None  # type: ignore[assignment]  # attached by finalize()
        tree.frame_size = frame_size
        tree.max_depth = max_depth
        if t1 <= t0:
            t1 = t0 + 1e-9
        tree.root = FrameNode(t0, t1, 0)
        return tree

    def insert(self, drawable: Drawable) -> None:
        """Place one drawable (streaming construction)."""
        self._insert(self.root, drawable)

    def finalize(self, doc: Slog2Doc | None = None) -> "FrameTree":
        """Build previews after streaming inserts; optionally attach the
        finished document."""
        if doc is not None:
            self.doc = doc
        self._build_previews(self.root)
        return self

    def _insert(self, node: FrameNode, drawable: Drawable) -> None:
        # drawable_span inlined: inserts run once per drawable per open.
        kind = drawable.__class__
        if kind is Event:
            lo = hi = drawable.time
        else:
            lo, hi = drawable.start, drawable.end
            if lo > hi:
                lo, hi = hi, lo
        frame_size, max_depth = self.frame_size, self.max_depth
        while node.depth < max_depth and node._nbytes >= frame_size:
            # Node full: descend if a child can fully contain the span.
            children = node.children
            if not children:
                mid = node.midpoint
                children = node.children = [
                    FrameNode(node.t0, mid, node.depth + 1),
                    FrameNode(mid, node.t1, node.depth + 1),
                ]
            left, right = children
            if left.t0 <= lo and hi <= left.t1:
                node = left
            elif right.t0 <= lo and hi <= right.t1:
                node = right
            else:
                # Straddles the midpoint: must live here even if full.
                break
        node.drawables.append(drawable)
        node._nbytes += _DRAWABLE_BYTES[kind]

    def _build_previews(self, node: FrameNode) -> Preview:
        agg = Preview()
        agg.add(*node.drawables)
        for child in node.children:
            sub = self._build_previews(child)
            for key, dur in sub.duration.items():
                agg.duration[key] = agg.duration.get(key, 0.0) + dur
            for key, n in sub.count.items():
                agg.count[key] = agg.count.get(key, 0) + n
        node.preview = agg
        return agg

    # -- queries --------------------------------------------------------------

    def query(self, t0: float, t1: float, *,
              min_duration: float = 0.0) -> tuple[list[Drawable], list[FrameNode]]:
        """Drawables intersecting [t0, t1].

        Returns ``(drawables, previewed_nodes)``: nodes whose entire
        subtree spans less than ``min_duration`` are not descended into;
        their :class:`Preview` stands in for their contents — this is
        the seamless-zoom mechanism.
        """
        out: list[Drawable] = []
        previewed: list[FrameNode] = []
        self._query(self.root, t0, t1, min_duration, out, previewed)
        return out, previewed

    def _query(self, node: FrameNode, t0: float, t1: float,
               min_duration: float, out: list[Drawable],
               previewed: list[FrameNode]) -> None:
        if not node.overlaps(t0, t1):
            return
        if (node.t1 - node.t0) < min_duration and node.preview.total_count:
            previewed.append(node)
            return
        append = out.append
        for d in node.drawables:
            # drawable_span inlined, as in _insert.
            if d.__class__ is Event:
                if t0 <= d.time <= t1:
                    append(d)
                continue
            lo, hi = d.start, d.end
            if lo > hi:
                lo, hi = hi, lo
            if lo <= t1 and t0 <= hi:
                append(d)
        for child in node.children:
            self._query(child, t0, t1, min_duration, out, previewed)

    # -- introspection -----------------------------------------------------------

    def depth(self) -> int:
        def walk(node: FrameNode) -> int:
            if not node.children:
                return node.depth
            return max(walk(c) for c in node.children)

        return walk(self.root)

    def node_count(self) -> int:
        def walk(node: FrameNode) -> int:
            return 1 + sum(walk(c) for c in node.children)

        return walk(self.root)
