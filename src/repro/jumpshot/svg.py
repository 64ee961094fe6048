"""SVG renderer: the closest thing to a Jumpshot screenshot we can make
headlessly.

Faithful to the Jumpshot look: black plot area, per-rank timelines with
rank numbers (and PI_SetName names) on the Y axis, global seconds on X,
coloured state rectangles (nested states inset), yellow event bubbles,
white message arrows with arrowheads, striped outline rectangles for
zoomed-out previews, and an optional legend panel with count/incl/excl.
Every drawable carries an SVG ``<title>`` holding its popup text, so
hovering in any browser reproduces the right-click information window.
"""

from __future__ import annotations

from operator import attrgetter
from xml.sax.saxutils import escape

from repro._util.text import format_seconds
from repro.jumpshot.canvas import Canvas
from repro.jumpshot.markers import (
    RECOVERY_PATTERN,
    RECOVERY_PATTERN_ID,
    RECOVERY_STATE_NAME,
    marker_anchor,
    rank_markers,
)
from repro.jumpshot.palette import rgb
from repro.jumpshot.viewer import View
from repro.perf import NO_PERF, PerfRecorder
from repro.slog2.frames import FrameNode
from repro.slog2.model import Arrow, Event, State

BACKGROUND = "#0d0d0d"
PLOT_BG = "#000000"
AXIS = "#c0c0c0"
GRID = "#2a2a2a"
SALVAGE = "#ffb300"  # amber warning banner for salvaged logs
CRASH = "#ff5252"  # crashed-rank markers (shape logic in jumpshot.markers)
JOURNAL = "#00e5ff"  # checkpoint ticks and the replay-boundary line


def render_svg(view: View, path: str | None = None, *, width: int = 1100,
               row_height: int = 36, legend: bool = True,
               highlight_path=None, perf: PerfRecorder = NO_PERF,
               checkpoints: "list[float] | None" = None,
               replay_boundary: float | None = None) -> str:
    """Render the view's current window; optionally write to ``path``.

    ``highlight_path`` takes a :class:`repro.slog2.CriticalPath`: its
    activity segments are traced in gold on top of the timeline and its
    message hops drawn as thick gold arrows, so the chain that
    determined the finish time is visible at a glance.  ``perf`` takes
    a :class:`repro.perf.PerfRecorder` and accounts a ``render-svg``
    stage (wall time + SVG bytes).

    ``checkpoints`` (times from a run's journal checkpoint barriers)
    draws a small cyan tick at the top of the plot for each; a resumed
    run passes ``replay_boundary`` — the end of the journaled prefix —
    which is drawn as a full-height cyan dashed line splitting the
    timeline into its replayed and regenerated halves.  Both default
    off, leaving the output byte-identical to earlier versions.
    """
    with perf.stage("render-svg") as timer:
        legend_width = 330 if legend else 0
        canvas = Canvas(view.t0, view.t1, view.rows, view.row_weights,
                        width - legend_width, row_height=row_height)
        drawables, previews = view.visible()
        parts: list[str] = []
        total_h = max(canvas.height, 180.0)
        parts.append(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{total_h:.0f}" font-family="monospace" font-size="11">')
        parts.append(f'<rect width="{width}" height="{total_h:.0f}" fill="{BACKGROUND}"/>')
        parts.append(_defs())
        parts.append(_axes(view, canvas))
        # Each category's fill, resolved once per render (index = category).
        fills = [rgb(view.legend.entries[c.name].color)
                 for c in view.doc.categories]
        parts.append(_previews(view, canvas, previews, fills))
        # States below, then arrows, then bubbles on top — Jumpshot stacking.
        states: list[State] = []
        arrows: list[Arrow] = []
        events: list[Event] = []
        for d in drawables:
            kind = d.__class__
            if kind is State:
                states.append(d)
            elif kind is Arrow:
                arrows.append(d)
            else:
                events.append(d)
        states.sort(key=attrgetter("depth"))
        # Replayed intervals of a recovered rank are striped, like
        # Jumpshot's preview rectangles, so they read as "reconstructed"
        # rather than ordinary execution.
        state_fills = [f"url(#{RECOVERY_PATTERN_ID})"
                       if c.name == RECOVERY_STATE_NAME else fill
                       for c, fill in zip(view.doc.categories, fills)]
        for s in states:
            parts.append(_state(view, canvas, s, state_fills[s.category]))
        for a in arrows:
            parts.append(_arrow(view, canvas, a, fills[a.category]))
        for e in events:
            parts.append(_event(view, canvas, e, fills[e.category]))
        if highlight_path is not None:
            parts.append(_critical_overlay(view, canvas, highlight_path))
        parts.append(_salvage_overlay(view, canvas))
        if checkpoints or replay_boundary is not None:
            parts.append(_journal_overlay(view, canvas, checkpoints or [],
                                          replay_boundary))
        parts.append(_annotation_overlay(view, canvas))
        if legend:
            parts.append(_legend_panel(view, width - legend_width + 10, total_h))
        parts.append("</svg>")
        svg = "\n".join(p for p in parts if p)
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(svg)
        timer.count(bytes=len(svg))
    return svg


def _defs() -> str:
    return (
        '<defs><marker id="arrowhead" markerWidth="7" markerHeight="5" '
        'refX="6" refY="2.5" orient="auto">'
        '<polygon points="0 0, 7 2.5, 0 5" fill="white"/></marker>'
        f'{RECOVERY_PATTERN}</defs>')


def _axes(view: View, canvas: Canvas) -> str:
    parts = [f'<rect x="{canvas.margin_left}" y="{canvas.margin_top - 6}" '
             f'width="{canvas.plot_width:.1f}" '
             f'height="{canvas.height - canvas.margin_top - 12:.1f}" '
             f'fill="{PLOT_BG}"/>']
    for t, x in canvas.ticks():
        parts.append(f'<line x1="{x:.1f}" y1="{canvas.margin_top - 6}" '
                     f'x2="{x:.1f}" y2="{canvas.height - 18:.1f}" '
                     f'stroke="{GRID}" stroke-width="1"/>')
        parts.append(f'<text x="{x:.1f}" y="{canvas.height - 4:.1f}" '
                     f'fill="{AXIS}" text-anchor="middle">'
                     f'{escape(format_seconds(t))}</text>')
    for row in canvas.rows:
        label = escape(view.rank_label(row.rank))
        parts.append(f'<text x="6" y="{row.y_center + 4:.1f}" fill="{AXIS}">'
                     f'{label}</text>')
        parts.append(f'<line x1="{canvas.margin_left}" y1="{row.y_center:.1f}" '
                     f'x2="{canvas.margin_left + canvas.plot_width:.1f}" '
                     f'y2="{row.y_center:.1f}" stroke="{GRID}" '
                     'stroke-dasharray="2,4"/>')
    return "\n".join(parts)


def _state(view: View, canvas: Canvas, s: State, fill: str) -> str:
    box = canvas.state_box(s.rank, s.start, s.end, s.depth)
    if box is None:
        return ""
    x, y, w, h = box
    title = escape(view.popup(s))
    return (f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
            f'fill="{fill}" stroke="black" stroke-width="0.4">'
            f'<title>{title}</title></rect>')


def _event(view: View, canvas: Canvas, e: Event, color: str) -> str:
    row = canvas.row(e.rank)
    if row is None or not (view.t0 <= e.time <= view.t1):
        return ""
    x = canvas.x(e.time)
    title = escape(view.popup(e))
    return (f'<circle cx="{x:.2f}" cy="{row.y_center:.2f}" r="3.2" '
            f'fill="{color}" stroke="black" stroke-width="0.5">'
            f'<title>{title}</title></circle>')


def _arrow(view: View, canvas: Canvas, a: Arrow, color: str) -> str:
    src = canvas.row(a.src_rank)
    dst = canvas.row(a.dst_rank)
    if src is None or dst is None:
        return ""
    x1, y1 = canvas.clamp_x(a.start), src.y_center
    x2, y2 = canvas.clamp_x(a.end), dst.y_center
    title = escape(view.popup(a))
    return (f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{color}" stroke-width="1.1" marker-end="url(#arrowhead)">'
            f'<title>{title}</title></line>')


def _previews(view: View, canvas: Canvas, nodes: list[FrameNode],
              fills: list[str]) -> str:
    """Zoomed-out intervals: an outline rectangle striped horizontally,
    stripe widths proportional to each category's duration share
    (paper's description of Fig. 1)."""
    parts: list[str] = []
    for node in nodes:
        per_rank: dict[int, list[tuple[int, float]]] = {}
        for (rank, cat), dur in node.preview.duration.items():
            if dur > 0:
                per_rank.setdefault(rank, []).append((cat, dur))
        for rank, shares in per_rank.items():
            box = canvas.state_box(rank, max(node.t0, view.t0),
                                   min(node.t1, view.t1), 0)
            if box is None:
                continue
            x, y, w, h = box
            total = sum(d for _, d in shares)
            parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" '
                         f'height="{h:.2f}" fill="none" stroke="#888" '
                         'stroke-width="0.7"/>')
            sy = y + 1
            for cat, dur in sorted(shares):
                frac = dur / total if total else 0
                sh = max((h - 2) * frac, 0.0)
                parts.append(f'<rect x="{x + 1:.2f}" y="{sy:.2f}" '
                             f'width="{max(w - 2, 0):.2f}" height="{sh:.2f}" '
                             f'fill="{fills[cat]}" opacity="0.85"/>')
                sy += sh
    return "\n".join(parts)


CRITICAL = "#ffb300"  # gold overlay for the critical path


def _critical_overlay(view: View, canvas: Canvas, cpath) -> str:
    """Trace a CriticalPath over the timeline: gold underlines along
    each activity segment, thick gold arrows for message hops."""
    parts = ['<g stroke-linecap="round">']
    for seg in cpath.segments:
        if seg.end < view.t0 or seg.start > view.t1:
            continue
        if seg.kind == "activity":
            row = canvas.row(seg.rank)
            if row is None:
                continue
            x1 = canvas.clamp_x(max(seg.start, view.t0))
            x2 = canvas.clamp_x(min(seg.end, view.t1))
            y = row.y_bottom + 2.5
            parts.append(
                f'<line x1="{x1:.2f}" y1="{y:.2f}" x2="{x2:.2f}" '
                f'y2="{y:.2f}" stroke="{CRITICAL}" stroke-width="3">'
                f'<title>critical path: {escape(seg.label)} '
                f'({format_seconds(seg.duration)})</title></line>')
        else:
            src = canvas.row(seg.rank)
            dst = canvas.row(seg.dst_rank)
            if src is None or dst is None:
                continue
            parts.append(
                f'<line x1="{canvas.clamp_x(seg.start):.2f}" '
                f'y1="{src.y_bottom + 2.5:.2f}" '
                f'x2="{canvas.clamp_x(seg.end):.2f}" '
                f'y2="{dst.y_bottom + 2.5:.2f}" stroke="{CRITICAL}" '
                'stroke-width="2.2" stroke-dasharray="5,3">'
                f'<title>critical path: {escape(seg.label)}</title></line>')
    parts.append("</g>")
    return "\n".join(parts)


def _salvage_overlay(view: View, canvas: Canvas) -> str:
    """The degraded-log warnings: an amber banner across the top when
    the document was salvaged, plus per-rank markers (placement rule in
    :mod:`repro.jumpshot.markers`) — red ✕ on each crashed rank's
    timeline, orchid ↻ on each rank that crashed but was recovered
    in-run by message-logging replay."""
    parts: list[str] = []
    banner = view.salvage_banner
    if banner is not None:
        bx = canvas.margin_left
        parts.append(f'<rect x="{bx:.1f}" y="2" '
                     f'width="{canvas.plot_width:.1f}" height="16" '
                     f'fill="{SALVAGE}" opacity="0.18"/>')
        title = ""
        report = view.doc.salvaged
        if report is not None:
            title = f"<title>{escape(report.summary())}</title>"
        parts.append(f'<text x="{bx + 6:.1f}" y="14" fill="{SALVAGE}" '
                     f'font-weight="bold">⚠ {escape(banner)}{title}</text>')
    for marker in rank_markers(view.doc):
        row = canvas.row(marker.rank)
        if row is None:
            continue
        anchor = marker_anchor(marker.at, view.t0, view.t1)
        if anchor is not None:
            x = canvas.x(anchor)
        else:
            x = canvas.margin_left + canvas.plot_width
        glyph = "↻" if marker.kind == "recovered" else "✕"
        parts.append(f'<line x1="{x:.2f}" y1="{row.y_top:.2f}" '
                     f'x2="{x:.2f}" y2="{row.y_bottom:.2f}" '
                     f'stroke="{marker.color}" stroke-width="1.4" '
                     'stroke-dasharray="3,2"/>')
        parts.append(f'<text x="{x + 3:.2f}" y="{row.y_center + 4:.2f}" '
                     f'fill="{marker.color}" font-weight="bold">{glyph}'
                     f'<title>{escape(marker.label)}</title></text>')
    return "\n".join(parts)


def _journal_overlay(view: View, canvas: Canvas, checkpoints: list[float],
                     replay_boundary: float | None) -> str:
    """Durability annotations: a cyan tick per checkpoint barrier, and a
    full-height dashed line where a resumed run's journaled prefix ends
    (left of it the timeline was verified replay, right of it it was
    regenerated)."""
    parts: list[str] = []
    top = canvas.margin_top - 6
    bottom = canvas.height - 18
    for t in sorted(checkpoints):
        if not view.t0 <= t <= view.t1:
            continue
        x = canvas.x(t)
        parts.append(f'<line x1="{x:.2f}" y1="{top}" x2="{x:.2f}" '
                     f'y2="{top + 8}" stroke="{JOURNAL}" stroke-width="1.6">'
                     f'<title>checkpoint at {t:.9f}s</title></line>')
    if replay_boundary is not None:
        # The journaled prefix often ends a hair past the final drawable
        # (the last delivery outlives the last logged record), so clamp
        # the marker into the window rather than dropping it — pinned at
        # an edge it still says "everything you see was replayed" /
        # "...was regenerated".
        x = canvas.x(min(max(replay_boundary, view.t0), view.t1))
        parts.append(f'<line x1="{x:.2f}" y1="{top}" x2="{x:.2f}" '
                     f'y2="{bottom:.1f}" stroke="{JOURNAL}" '
                     'stroke-width="1.2" stroke-dasharray="6,3" '
                     'opacity="0.8"/>')
        parts.append(f'<text x="{x + 4:.2f}" y="{top + 20}" '
                     f'fill="{JOURNAL}">replay boundary'
                     f'<title>journaled prefix ends at '
                     f'{replay_boundary:.9f}s; the timeline to the right '
                     'was regenerated by the resumed run</title></text>')
    return "\n".join(parts)


def _annotation_overlay(view: View, canvas: Canvas) -> str:
    """Analysis annotations (e.g. a statically predicted deadlock cycle
    that matched the observed one): amber flag lines stacked under the
    salvage banner."""
    annotations = view.annotations
    if not annotations:
        return ""
    parts: list[str] = []
    y = 32 if view.salvage_banner is not None else 14
    for line in annotations:
        parts.append(f'<text x="{canvas.margin_left + 6:.1f}" y="{y}" '
                     f'fill="{SALVAGE}" font-weight="bold">'
                     f'⚑ {escape(line)}</text>')
        y += 14
    return "\n".join(parts)


def _legend_panel(view: View, x0: float, total_h: float) -> str:
    parts = [f'<text x="{x0}" y="20" fill="{AXIS}" font-weight="bold">'
             'Legend  (count / incl / excl)</text>']
    y = 40
    for entry in view.legend.rows(sort_by="incl"):
        if y > total_h - 10:
            break
        shape = entry.shape
        color = rgb(entry.color)
        if shape == "state":
            parts.append(f'<rect x="{x0}" y="{y - 9}" width="14" height="10" '
                         f'fill="{color}" stroke="#666"/>')
        elif shape == "event":
            parts.append(f'<circle cx="{x0 + 7}" cy="{y - 4}" r="4" '
                         f'fill="{color}" stroke="#666"/>')
        else:
            parts.append(f'<line x1="{x0}" y1="{y - 4}" x2="{x0 + 14}" '
                         f'y2="{y - 4}" stroke="{color}" stroke-width="1.5"/>')
        label = (f'{entry.name}  {entry.count} / '
                 f'{format_seconds(entry.incl)} / {format_seconds(entry.excl)}')
        vis = "" if entry.visible else "  [hidden]"
        parts.append(f'<text x="{x0 + 20}" y="{y}" fill="{AXIS}">'
                     f'{escape(label + vis)}</text>')
        y += 16
    return "\n".join(parts)
