"""CLOG2 -> SLOG2 conversion (the ``clog2TOslog2`` step).

The paper deliberately keeps this an explicit, separate step
(Section II.A): it is where log problems surface and where display-
affecting parameters (frame size) are chosen.  This converter:

* pairs state start/end events per rank using a nesting stack;
* pairs send/receive halves into arrows, FIFO per (src, dst, tag);
* turns remaining bare events into bubbles;
* detects **"Equal Drawables"** — two or more objects of the same
  category with identical start and end times, the warning the paper
  traces to MPI_Wtime's limited resolution (Section III.C);
* detects causality violations (receive stamped before send), the
  visible symptom of unsynchronised clocks that
  ``MPE_Log_sync_clocks`` exists to prevent.

Everything suspicious lands in the returned :class:`ConversionReport`
rather than raising: a "non well-behaved" program should still convert,
as Jumpshot's own converter does.

The engine is :class:`StreamConverter`: records are :meth:`fed
<StreamConverter.feed>` one at a time and drawables can be handed to a
``sink`` callback the moment they complete, so the conversion composes
with the incremental frame tree without a drawables-in-flight list
between stages.  :func:`convert` is the eager wrapper over a parsed
:class:`~repro.mpe.clog2.Clog2File`; :func:`convert_with_tree` is the
fused convert-plus-frame-tree used by the viewers' pipeline.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from repro.mpe.clog2 import Clog2File
from repro.mpe.records import (
    RECV,
    SEND,
    BareEvent,
    Definition,
    EventDef,
    LogRecord,
    MsgEvent,
    RankName,
    StateDef,
)
from repro.slog2.model import Arrow, Event, SlogCategory, Slog2Doc, State

if TYPE_CHECKING:  # pragma: no cover
    from repro.perf import PerfRecorder
    from repro.slog2.frames import FrameTree

ARROW_CATEGORY_NAME = "message"
ARROW_COLOR = "white"


@dataclass
class ConversionReport:
    """Everything the converter wants a human to know."""

    equal_drawables: list[str] = field(default_factory=list)
    causality_violations: list[str] = field(default_factory=list)
    unmatched_sends: int = 0
    unmatched_receives: int = 0
    dangling_states: int = 0
    improper_nesting: int = 0
    unknown_event_ids: int = 0
    # Attached when the input CLOG2 came out of a tolerant read/salvage
    # merge: what the readers kept, dropped and lost (a
    # repro.mpe.recovery.RecoveryReport).  Rides the same channel as the
    # Equal Drawables warnings — conversion problems and recovery
    # problems surface in one place.
    recovery: "object | None" = None

    @property
    def clean(self) -> bool:
        recovery_clean = self.recovery is None or self.recovery.clean
        return (not self.equal_drawables and not self.causality_violations
                and self.unmatched_sends == 0 and self.unmatched_receives == 0
                and self.dangling_states == 0 and self.improper_nesting == 0
                and self.unknown_event_ids == 0 and recovery_clean)

    def summary(self) -> str:
        parts = [
            f"equal-drawables={len(self.equal_drawables)}",
            f"causality={len(self.causality_violations)}",
            f"unmatched-sends={self.unmatched_sends}",
            f"unmatched-recvs={self.unmatched_receives}",
            f"dangling-states={self.dangling_states}",
            f"improper-nesting={self.improper_nesting}",
            f"unknown-ids={self.unknown_event_ids}",
        ]
        line = "clog2TOslog2: " + " ".join(parts)
        if self.recovery is not None and not self.recovery.empty:
            line += "\n  " + self.recovery.summary()
        return line


class StreamConverter:
    """Incremental CLOG2-to-SLOG2 conversion.

    Feed definitions first, then records in time order (exactly the
    order a CLOG2 file stores them); call :meth:`finish` once.  Each
    drawable is appended to the document lists the moment it completes
    — and handed to ``sink`` at the same moment, which is how the
    frame tree is built without a second pass (states complete at
    their end event, arrows at the pairing, bubbles immediately).

    The output document is identical, element for element, to what the
    one-shot :func:`convert` of the same items produces: category
    numbering (states in definition order, then events, arrow last)
    and drawable ordering do not depend on how the items were fed.
    """

    def __init__(self, *, num_ranks: int = 0, clock_resolution: float = 1e-6,
                 rank_names: dict[int, str] | None = None,
                 recovery: "object | None" = None,
                 crashed_ranks: "dict[int, float | None] | None" = None,
                 sink: Callable[[State | Event | Arrow], None] | None = None
                 ) -> None:
        self.report = ConversionReport(recovery=recovery)
        self.num_ranks = num_ranks
        self.clock_resolution = clock_resolution
        self._rank_names_override = dict(rank_names or {})
        self._crashed_ranks = dict(crashed_ranks or {})
        self._sink = sink
        # Definitions buffer until the first record arrives; category
        # indices are then assigned states-first/events-next/arrow-last
        # regardless of definition interleaving.
        self._state_defs: list[StateDef] = []
        self._event_defs: list[EventDef] = []
        self._file_rank_names: dict[int, str] = {}
        self._categories: list[SlogCategory] | None = None
        self._start_of: dict[int, int] = {}
        self._end_of: dict[int, int] = {}
        self._event_cat: dict[int, int] = {}
        self._arrow_idx = -1
        self._states: list[State] = []
        self._events: list[Event] = []
        self._arrows: list[Arrow] = []
        self._stacks: dict[int, list[tuple[int, float, str]]] = defaultdict(list)
        self._pending_sends: dict[tuple[int, int, int], deque[MsgEvent]] = \
            defaultdict(deque)
        self._pending_recvs: dict[tuple[int, int, int], deque[MsgEvent]] = \
            defaultdict(deque)

    # -- feeding -----------------------------------------------------------

    def feed(self, item: Definition | LogRecord) -> None:
        """Accept the next definition or record, in stream order."""
        kind = type(item)
        if kind is BareEvent:
            self._feed_bare(item)
        elif kind is MsgEvent:
            self._feed_msg(item)
        elif kind is StateDef:
            self._state_defs.append(item)
        elif kind is EventDef:
            self._event_defs.append(item)
        elif kind is RankName:
            self._file_rank_names[item.rank] = item.name
        else:
            raise TypeError(f"cannot convert {item!r}")

    def feed_all(self, items: Iterable[Definition | LogRecord]) -> None:
        """Feed a whole stream; same semantics as :meth:`feed` per item,
        with the dispatch and the two hot helpers inlined (this loop
        converts every record of every log, so locals instead of
        attribute walks matter).  Rare paths — improper nesting,
        unknown items — fall back to the shared methods."""
        report = self.report
        sink = self._sink
        start_of, end_of = self._start_of, self._end_of
        event_cat = self._event_cat
        stacks = self._stacks
        states, events, arrows = self._states, self._events, self._arrows
        pending_sends = self._pending_sends
        pending_recvs = self._pending_recvs
        state_defs, event_defs = self._state_defs, self._event_defs
        built = self._categories is not None
        arrow_idx = self._arrow_idx
        # Drawables are built via object.__new__ and one
        # object.__setattr__ per field: equal, equally hashable and
        # picklable like constructor-built ones, at about half the cost
        # of the frozen dataclass's __init__.  Going through __dict__
        # instead would give every instance a dict object of its own:
        # more memory (CPython 3.11: ~360 B per State with
        # dict.update(**fields), ~170 B without), more work for the
        # cyclic GC, and slower attribute loads in the viewer.
        new = object.__new__
        sa = object.__setattr__
        for item in items:
            kind = type(item)
            if kind is BareEvent:
                if not built:
                    self._build_categories()
                    built = True
                    arrow_idx = self._arrow_idx
                eid = item.event_id
                cat = start_of.get(eid)
                if cat is not None:
                    stacks[item.rank].append((cat, item.timestamp, item.text))
                    continue
                cat = end_of.get(eid)
                if cat is not None:
                    stack = stacks[item.rank]
                    if stack and stack[-1][0] == cat:
                        # Well-nested close: the common case.
                        _, start_t, start_text = stack.pop()
                        state = new(State)
                        sa(state, "category", cat)
                        sa(state, "rank", item.rank)
                        sa(state, "start", start_t)
                        sa(state, "end", item.timestamp)
                        sa(state, "depth", len(stack))
                        sa(state, "start_text", start_text)
                        sa(state, "end_text", item.text)
                        states.append(state)
                        if sink is not None:
                            sink(state)
                    else:
                        self._close_state(item, cat)
                    continue
                cat = event_cat.get(eid)
                if cat is not None:
                    event = new(Event)
                    sa(event, "category", cat)
                    sa(event, "rank", item.rank)
                    sa(event, "time", item.timestamp)
                    sa(event, "text", item.text)
                    events.append(event)
                    if sink is not None:
                        sink(event)
                else:
                    report.unknown_event_ids += 1
            elif kind is MsgEvent:
                if not built:
                    self._build_categories()
                    built = True
                    arrow_idx = self._arrow_idx
                mkind = item.kind
                if mkind == SEND:
                    key = (item.rank, item.other_rank, item.tag)
                    waiting = pending_recvs[key]
                    if not waiting:
                        pending_sends[key].append(item)
                        continue
                    send, recv = item, waiting.popleft()
                elif mkind == RECV:
                    key = (item.other_rank, item.rank, item.tag)
                    waiting = pending_sends[key]
                    if not waiting:
                        pending_recvs[key].append(item)
                        continue
                    send, recv = waiting.popleft(), item
                else:
                    continue
                st, rt = send.timestamp, recv.timestamp
                arrow = new(Arrow)
                sa(arrow, "category", arrow_idx)
                sa(arrow, "src_rank", send.rank)
                sa(arrow, "dst_rank", recv.rank)
                sa(arrow, "start", st)
                sa(arrow, "end", rt)
                sa(arrow, "tag", send.tag)
                sa(arrow, "size", send.size)
                if rt < st:
                    report.causality_violations.append(
                        f"arrow {send.rank}->{recv.rank} tag={send.tag} "
                        f"received at {rt:.9f} before sent at {st:.9f}")
                arrows.append(arrow)
                if sink is not None:
                    sink(arrow)
            elif kind is StateDef:
                state_defs.append(item)
            elif kind is EventDef:
                event_defs.append(item)
            elif kind is RankName:
                self._file_rank_names[item.rank] = item.name
            else:
                raise TypeError(f"cannot convert {item!r}")

    def _build_categories(self) -> None:
        categories: list[SlogCategory] = []
        for d in self._state_defs:
            idx = len(categories)
            categories.append(SlogCategory(idx, d.name, d.color, "state"))
            self._start_of[d.start_id] = idx
            self._end_of[d.end_id] = idx
        for d in self._event_defs:
            idx = len(categories)
            categories.append(SlogCategory(idx, d.name, d.color, "event"))
            self._event_cat[d.event_id] = idx
        self._arrow_idx = len(categories)
        categories.append(SlogCategory(self._arrow_idx, ARROW_CATEGORY_NAME,
                                       ARROW_COLOR, "arrow"))
        self._categories = categories

    def _feed_bare(self, rec: BareEvent) -> None:
        if self._categories is None:
            self._build_categories()
        if rec.event_id in self._start_of:
            self._stacks[rec.rank].append(
                (self._start_of[rec.event_id], rec.timestamp, rec.text))
        elif rec.event_id in self._end_of:
            self._close_state(rec, self._end_of[rec.event_id])
        elif rec.event_id in self._event_cat:
            event = Event(self._event_cat[rec.event_id], rec.rank,
                          rec.timestamp, rec.text)
            self._events.append(event)
            if self._sink is not None:
                self._sink(event)
        else:
            self.report.unknown_event_ids += 1

    def _feed_msg(self, rec: MsgEvent) -> None:
        if self._categories is None:
            self._build_categories()
        if rec.kind == SEND:
            key = (rec.rank, rec.other_rank, rec.tag)
            waiting = self._pending_recvs[key]
            if waiting:
                self._emit_arrow(rec, waiting.popleft())
            else:
                self._pending_sends[key].append(rec)
        elif rec.kind == RECV:
            key = (rec.other_rank, rec.rank, rec.tag)
            waiting = self._pending_sends[key]
            if waiting:
                self._emit_arrow(waiting.popleft(), rec)
            else:
                self._pending_recvs[key].append(rec)

    def _close_state(self, rec: BareEvent, cat: int) -> None:
        """Pop the matching start; tolerate (and count) improper nesting."""
        stack = self._stacks[rec.rank]
        for i in range(len(stack) - 1, -1, -1):
            if stack[i][0] == cat:
                if i != len(stack) - 1:
                    self.report.improper_nesting += 1
                _, start_t, start_text = stack.pop(i)
                state = State(cat, rec.rank, start_t, rec.timestamp,
                              depth=i, start_text=start_text,
                              end_text=rec.text)
                self._states.append(state)
                if self._sink is not None:
                    self._sink(state)
                return
        # End without a start: count as improper nesting, drop the record.
        self.report.improper_nesting += 1

    def _emit_arrow(self, send: MsgEvent, recv: MsgEvent) -> None:
        arrow = Arrow(self._arrow_idx, send.rank, recv.rank, send.timestamp,
                      recv.timestamp, send.tag, send.size)
        if recv.timestamp < send.timestamp:
            self.report.causality_violations.append(
                f"arrow {send.rank}->{recv.rank} tag={send.tag} received at "
                f"{recv.timestamp:.9f} before sent at {send.timestamp:.9f}")
        self._arrows.append(arrow)
        if self._sink is not None:
            self._sink(arrow)

    # -- finishing ---------------------------------------------------------

    def finish(self) -> tuple[Slog2Doc, ConversionReport]:
        """Account leftovers, run the Equal Drawables scan, and build
        the document."""
        if self._categories is None:
            self._build_categories()
        for stack in self._stacks.values():
            self.report.dangling_states += len(stack)
        self.report.unmatched_sends = sum(
            len(q) for q in self._pending_sends.values())
        self.report.unmatched_receives = sum(
            len(q) for q in self._pending_recvs.values())
        # Names carried inside the log file, overridable by the caller.
        names = dict(self._file_rank_names)
        names.update(self._rank_names_override)
        crashes: dict[int, float | None] = {}
        if self.report.recovery is not None:
            crashes.update(
                getattr(self.report.recovery, "crashed_ranks", {}) or {})
        crashes.update(self._crashed_ranks)
        doc = Slog2Doc(categories=self._categories, states=self._states,
                       events=self._events, arrows=self._arrows,
                       num_ranks=self.num_ranks,
                       clock_resolution=self.clock_resolution,
                       rank_names=names, salvaged=self.report.recovery,
                       crashed_ranks=crashes)
        _detect_equal_drawables(doc, self.report)
        return doc, self.report


def convert(clog: Clog2File,
            rank_names: dict[int, str] | None = None, *,
            recovery: "object | None" = None,
            crashed_ranks: "dict[int, float | None] | None" = None,
            perf: "PerfRecorder | None" = None
            ) -> tuple[Slog2Doc, ConversionReport]:
    """Convert a parsed CLOG2 file into an SLOG2 document.

    ``recovery`` (a :class:`repro.mpe.recovery.RecoveryReport` from a
    tolerant read or salvage merge) and ``crashed_ranks`` propagate to
    both the returned report and the document, so the viewers can stamp
    the salvage banner and crash markers on the timelines.
    """
    conv = StreamConverter(num_ranks=clog.num_ranks,
                           clock_resolution=clog.clock_resolution,
                           rank_names=rank_names, recovery=recovery,
                           crashed_ranks=crashed_ranks)
    if perf is not None:
        with perf.stage("convert"):
            conv.feed_all(clog.definitions)
            conv.feed_all(clog.records)
            doc, report = conv.finish()
        perf.count("convert", records=len(clog.records),
                   drawables=len(doc.states) + len(doc.events)
                   + len(doc.arrows))
    else:
        conv.feed_all(clog.definitions)
        conv.feed_all(clog.records)
        doc, report = conv.finish()
    return doc, report


def convert_with_tree(clog: Clog2File,
                      rank_names: dict[int, str] | None = None, *,
                      frame_size: int | None = None,
                      max_depth: int = 16,
                      recovery: "object | None" = None,
                      crashed_ranks: "dict[int, float | None] | None" = None,
                      perf: "PerfRecorder | None" = None
                      ) -> "tuple[Slog2Doc, ConversionReport, FrameTree]":
    """Fused conversion + frame-tree build.

    Each drawable is inserted into the tree the moment the converter
    completes it, instead of a second pass over ``doc.drawables`` —
    the shape :func:`repro.slog2.__main__` and the Pilot integration
    use.  The tree's root spans the record timestamps (every drawable
    endpoint is some record's timestamp, so nothing can fall outside).
    """
    from repro.slog2.frames import DEFAULT_FRAME_SIZE, FrameTree

    if frame_size is None:
        frame_size = DEFAULT_FRAME_SIZE
    t0, t1 = _record_span(clog.records)
    tree = FrameTree.for_span(t0, t1, frame_size=frame_size,
                              max_depth=max_depth)
    conv = StreamConverter(num_ranks=clog.num_ranks,
                           clock_resolution=clog.clock_resolution,
                           rank_names=rank_names, recovery=recovery,
                           crashed_ranks=crashed_ranks, sink=tree.insert)
    if perf is not None:
        with perf.stage("convert"):
            conv.feed_all(clog.definitions)
            conv.feed_all(clog.records)
            doc, report = conv.finish()
        perf.count("convert", records=len(clog.records),
                   drawables=len(doc.states) + len(doc.events)
                   + len(doc.arrows))
        with perf.stage("frame-tree"):
            tree.finalize(doc)
    else:
        conv.feed_all(clog.definitions)
        conv.feed_all(clog.records)
        doc, report = conv.finish()
        tree.finalize(doc)
    return doc, report, tree


def _record_span(records: list[LogRecord]) -> tuple[float, float]:
    """Min/max timestamp over the records (0-width span when empty)."""
    if not records:
        return 0.0, 0.0
    lo = hi = records[0].timestamp
    for rec in records:
        t = rec.timestamp
        if t < lo:
            lo = t
        elif t > hi:
            hi = t
    return lo, hi


def _detect_equal_drawables(doc: Slog2Doc, report: ConversionReport) -> None:
    """Flag same-category drawables with identical start and end times.

    Only the duplicated keys are sorted (duplicates are the exception,
    the full key set is the size of the document) — the reported lines
    are identical to sorting everything and filtering after.
    """
    state_keys = Counter((s.category, s.rank, s.start, s.end) for s in doc.states)
    event_keys = Counter((e.category, e.rank, e.time) for e in doc.events)
    arrow_keys = Counter((a.src_rank, a.dst_rank, a.start, a.end)
                         for a in doc.arrows)
    for cat, rank, start, end in sorted(
            k for k, n in state_keys.items() if n > 1):
        name = doc.categories[cat].name
        n = state_keys[(cat, rank, start, end)]
        report.equal_drawables.append(
            f"{n} equal '{name}' states on rank {rank} at "
            f"[{start:.9f}, {end:.9f}]")
    for cat, rank, t in sorted(k for k, n in event_keys.items() if n > 1):
        name = doc.categories[cat].name
        n = event_keys[(cat, rank, t)]
        report.equal_drawables.append(
            f"{n} equal '{name}' events on rank {rank} at {t:.9f}")
    for src, dst, start, end in sorted(
            k for k, n in arrow_keys.items() if n > 1):
        n = arrow_keys[(src, dst, start, end)]
        report.equal_drawables.append(
            f"{n} equal arrows {src}->{dst} at [{start:.9f}, {end:.9f}]")
