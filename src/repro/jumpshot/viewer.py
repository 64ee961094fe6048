"""The headless Jumpshot: a :class:`View` onto an SLOG2 document.

Jumpshot-4's interactive vocabulary (paper Section II.B) becomes an
API: "seamless scrolling at any zoom level" (:meth:`View.scroll`,
:meth:`View.zoom_in` / :meth:`View.zoom_out`, :meth:`View.set_window`),
"dragged-zoom" (:meth:`View.zoom_to`), "vertical expansion of
timelines" (:meth:`View.expand_timeline`), "timeline cut and paste"
(:meth:`View.cut_timeline` / :meth:`View.paste_timeline`), the legend
with visibility/searchability manipulation (:attr:`View.legend`), the
search-and-scan facility (:meth:`View.search`), and statistics over a
user-selected duration (:meth:`View.window_stats`).

Right-click popups become :meth:`View.popup`, which assembles exactly
the information the paper specifies per drawable kind (Section III.B).
"""

from __future__ import annotations

from repro._util.text import format_seconds
from repro.jumpshot.legend import Legend
from repro.jumpshot.search import search as _search
from repro.slog2.frames import DEFAULT_FRAME_SIZE, FrameNode, FrameTree
from repro.slog2.model import Arrow, Drawable, Event, Slog2Doc, State
from repro.slog2.stats import CategoryStats, compute_stats

# A drawable narrower than this fraction of the window is folded into
# zoomed-out preview striping rather than drawn individually.
PREVIEW_FRACTION = 1.0 / 800.0


class View:
    """One viewing session over a document."""

    def __init__(self, doc: Slog2Doc, *, frame_size: int = DEFAULT_FRAME_SIZE,
                 window: tuple[float, float] | None = None) -> None:
        self.doc = doc
        self.tree = FrameTree(doc, frame_size)
        self.legend = Legend(doc)
        full = doc.time_range
        self.full_range = full if full[1] > full[0] else (full[0], full[0] + 1e-9)
        self.t0, self.t1 = window or self.full_range
        self.rows: list[int] = list(range(doc.num_ranks))
        self.row_weights: dict[int, float] = {}

    # -- window control ------------------------------------------------------

    @property
    def window(self) -> tuple[float, float]:
        return self.t0, self.t1

    @property
    def span(self) -> float:
        return self.t1 - self.t0

    def set_window(self, t0: float, t1: float) -> None:
        if t1 <= t0:
            raise ValueError(f"window must have positive span, got [{t0}, {t1}]")
        self.t0, self.t1 = t0, t1

    def zoom_to(self, t0: float, t1: float) -> None:
        """Dragged-zoom: the selected interval becomes the window."""
        self.set_window(t0, t1)

    def zoom_in(self, factor: float = 2.0, center: float | None = None) -> None:
        if factor <= 1.0:
            raise ValueError(f"zoom factor must exceed 1, got {factor}")
        c = center if center is not None else (self.t0 + self.t1) / 2
        half = self.span / (2 * factor)
        self.set_window(c - half, c + half)

    def zoom_out(self, factor: float = 2.0, center: float | None = None) -> None:
        if factor <= 1.0:
            raise ValueError(f"zoom factor must exceed 1, got {factor}")
        c = center if center is not None else (self.t0 + self.t1) / 2
        half = self.span * factor / 2
        self.set_window(c - half, c + half)

    def zoom_fit(self) -> None:
        self.t0, self.t1 = self.full_range

    def scroll(self, fraction: float) -> None:
        """Grasp-and-scroll by a fraction of the window span (positive =
        later in time); seamless at any zoom level."""
        delta = fraction * self.span
        self.set_window(self.t0 + delta, self.t1 + delta)

    # -- timeline manipulation ---------------------------------------------------

    def cut_timeline(self, rank: int) -> None:
        if rank not in self.rows:
            raise ValueError(f"rank {rank} is not displayed")
        self.rows.remove(rank)

    def paste_timeline(self, rank: int, position: int | None = None) -> None:
        if rank in self.rows:
            raise ValueError(f"rank {rank} is already displayed")
        if not 0 <= rank < self.doc.num_ranks:
            raise ValueError(f"rank {rank} outside this log's {self.doc.num_ranks} ranks")
        if position is None:
            position = len(self.rows)
        self.rows.insert(position, rank)

    def expand_timeline(self, rank: int, weight: float = 2.0) -> None:
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.row_weights[rank] = weight

    def rank_label(self, rank: int) -> str:
        from repro.jumpshot.markers import recovered_ranks

        name = self.doc.rank_names.get(rank)
        label = f"{rank} {name}" if name else str(rank)
        if rank in recovered_ranks(self.doc):
            label += " ↻"
        elif rank in self.doc.crashed_ranks:
            label += " ✕"
        return label

    @property
    def salvage_banner(self) -> str | None:
        """The warning line stamped on salvaged timelines, or ``None``
        for a log that was finalized normally."""
        report = self.doc.salvaged
        if report is not None and not report.empty:
            return report.banner()
        if self.doc.crashed_ranks:
            ranks = ",".join(str(r) for r in sorted(self.doc.crashed_ranks))
            return f"rank(s) {ranks} crashed"
        return None

    @property
    def annotations(self) -> list[str]:
        """Analysis annotations attached to the document (for example a
        pilotcheck PC003 prediction matching an observed deadlock)."""
        return list(getattr(self.doc, "annotations", []) or [])

    # -- content queries -----------------------------------------------------------

    def visible(self) -> tuple[list[Drawable], list[FrameNode]]:
        """Drawables to draw individually in the current window, plus
        preview boxes to draw as zoomed-out stripes.

        Two sources feed the preview stripes: frame-tree nodes whose
        whole subtree is narrower than the cutoff (storage-level
        preview), and individually-fetched states too narrow to draw —
        those are folded into per-(rank, time-bucket) histograms, which
        is exactly how Jumpshot renders "state changes in a zoomed-out
        interval that are too numerous to show individually" (Fig. 1
        discussion).
        """
        min_duration = self.span * PREVIEW_FRACTION
        drawables, previews = self.tree.query(self.t0, self.t1,
                                              min_duration=min_duration)
        hidden = self.legend.hidden_category_indices()
        shown_rows = set(self.rows)
        out: list[Drawable] = []
        small_states: list[State] = []
        for d in drawables:
            if d.category in hidden:
                continue
            kind = d.__class__
            if kind is Arrow:
                if d.src_rank not in shown_rows and d.dst_rank not in shown_rows:
                    continue
            elif d.rank not in shown_rows:
                continue
            elif kind is State and d.end - d.start < min_duration:
                small_states.append(d)
                continue
            out.append(d)
        previews = [n for n in previews
                    if not set(r for r, _ in n.preview.duration).isdisjoint(shown_rows)]
        previews.extend(self._bucket_previews(small_states))
        return out, previews

    _PREVIEW_BUCKETS = 160

    def _bucket_previews(self, small_states: list[State]) -> list[FrameNode]:
        if not small_states:
            return []
        from repro.slog2.frames import FrameNode

        width = self.span / self._PREVIEW_BUCKETS
        buckets: dict[int, list[State]] = {}
        for s in small_states:
            idx = int(((s.start + s.end) / 2 - self.t0) / width)
            idx = min(max(idx, 0), self._PREVIEW_BUCKETS - 1)
            buckets.setdefault(idx, []).append(s)
        nodes = []
        for idx in sorted(buckets):
            node = FrameNode(self.t0 + idx * width,
                             self.t0 + (idx + 1) * width, 0)
            node.preview.add(*buckets[idx])
            nodes.append(node)
        return nodes

    def window_stats(self) -> dict[str, CategoryStats]:
        """Statistics for the currently selected duration."""
        return compute_stats(self.doc, self.t0, self.t1)

    def search(self, text: str, from_time: float | None = None, *,
               backward: bool = False, scroll_to_match: bool = True) -> Drawable | None:
        """Search-and-scan; by default the window recentres on the match."""
        start = from_time if from_time is not None else self.t0
        hit = _search(self.doc, text, start, backward=backward,
                      exclude_categories=self.legend.unsearchable_category_indices())
        if hit is not None and scroll_to_match:
            from repro.slog2.model import drawable_span

            lo, hi = drawable_span(hit)
            center = (lo + hi) / 2
            half = self.span / 2
            self.set_window(center - half, center + half)
        return hit

    # -- popups ----------------------------------------------------------------------

    def popup(self, drawable: Drawable) -> str:
        """The right-click information window for a drawable.

        States show duration, their begin/end texts (source line,
        process name, work-function index, channel/bundle name);
        bubbles their time and text; arrows start/end/duration, MPI tag
        and message size — and nothing more, per Section III.B.
        """
        cat = self.doc.categories[drawable.category].name
        kind = drawable.__class__
        if kind is State:
            lines = [f"state: {cat}",
                     f"rank: {drawable.rank}",
                     f"start: {drawable.start:.9f}  end: {drawable.end:.9f}",
                     f"duration: {format_seconds(drawable.duration)}"]
            if drawable.start_text:
                lines.append(drawable.start_text)
            if drawable.end_text:
                lines.append(drawable.end_text)
            return "\n".join(lines)
        if kind is Event:
            lines = [f"event: {cat}",
                     f"rank: {drawable.rank}",
                     f"time: {drawable.time:.9f}"]
            if drawable.text:
                lines.append(drawable.text)
            return "\n".join(lines)
        assert kind is Arrow
        return "\n".join([
            f"arrow: {cat}",
            f"from rank {drawable.src_rank} to rank {drawable.dst_rank}",
            f"start: {drawable.start:.9f}  end: {drawable.end:.9f}",
            f"duration: {format_seconds(drawable.duration)}",
            f"tag: {drawable.tag}",
            f"size: {drawable.size} bytes",
        ])
