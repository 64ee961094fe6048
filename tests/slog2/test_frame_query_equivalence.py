"""The frame tree's inlined span arithmetic against a reference.

``FrameTree._insert`` / ``_query`` and ``Slog2Doc.time_range`` work out
each drawable's span inline by type.  The reference below is the same
placement and query rule written on :func:`drawable_span` and plain
containment tests.  Order matters as well as membership: the SVG
renderer stacks drawables in query order.
"""

import random

import pytest

from repro.slog2.frames import _DRAWABLE_BYTES, FrameNode, FrameTree
from repro.slog2.model import (
    Arrow,
    Event,
    SlogCategory,
    Slog2Doc,
    State,
    drawable_span,
)

CATS = [SlogCategory(0, "S", "gray", "state"),
        SlogCategory(1, "E", "yellow", "event"),
        SlogCategory(2, "message", "white", "arrow")]

# Node midpoints of a tree over [0, 1] down to depth 5: dyadic, exact.
MIDPOINTS = [k / 64 for k in range(1, 64)]


def random_doc(seed: int, n: int = 400) -> Slog2Doc:
    """Drawables on [0, 1]: a root-spanning state fixes the root's range,
    so node midpoints are the dyadic MIDPOINTS; arrows may run backwards
    (clock skew), states may have zero width, and events and endpoints
    often sit exactly on a midpoint."""
    rng = random.Random(seed)

    def t() -> float:
        return rng.choice(MIDPOINTS) if rng.random() < 0.3 else rng.random()

    states = [State(0, 0, 0.0, 1.0, 0)]
    events, arrows = [], []
    for _ in range(n):
        kind = rng.randrange(3)
        rank = rng.randrange(4)
        if kind == 0:
            a = t()
            b = a if rng.random() < 0.2 else min(1.0, a + rng.random() * 0.05)
            states.append(State(0, rank, a, b, rng.randrange(3)))
        elif kind == 1:
            events.append(Event(1, rank, t()))
        else:
            a, b = t(), t()
            # About half the arrows end before they start.
            arrows.append(Arrow(2, rank, (rank + 1) % 4, a, b, 0, 8))
    return Slog2Doc(categories=list(CATS), states=states, events=events,
                    arrows=arrows, num_ranks=4, clock_resolution=1e-9)


class ReferenceTree:
    """FrameTree's placement and query rule on drawable_span."""

    def __init__(self, doc: Slog2Doc, frame_size: int,
                 max_depth: int = 16) -> None:
        spans = [drawable_span(d) for d in doc.drawables]
        t0 = min(s[0] for s in spans)
        t1 = max(s[1] for s in spans)
        self.frame_size = frame_size
        self.max_depth = max_depth
        self.root = FrameNode(t0, t1, 0)
        for d in doc.drawables:
            self.insert(d)

    def insert(self, drawable) -> None:
        lo, hi = drawable_span(drawable)
        node = self.root
        while True:
            if node.depth >= self.max_depth or node.nbytes < self.frame_size:
                break
            if not node.children:
                mid = node.midpoint
                node.children = [FrameNode(node.t0, mid, node.depth + 1),
                                 FrameNode(mid, node.t1, node.depth + 1)]
            for child in node.children:
                if child.t0 <= lo and hi <= child.t1:
                    node = child
                    break
            else:
                break
        node.drawables.append(drawable)
        node._nbytes += _DRAWABLE_BYTES[type(drawable)]

    def query(self, t0: float, t1: float, min_duration: float = 0.0):
        out, previewed = [], []

        def count(node) -> int:
            return len(node.drawables) + sum(count(c) for c in node.children)

        def walk(node) -> None:
            if not node.overlaps(t0, t1):
                return
            if node.t1 - node.t0 < min_duration and count(node):
                previewed.append(node)
                return
            for d in node.drawables:
                lo, hi = drawable_span(d)
                if lo <= t1 and t0 <= hi:
                    out.append(d)
            for child in node.children:
                walk(child)

        walk(self.root)
        return out, previewed


def windows(rng: random.Random) -> list[tuple[float, float]]:
    out = [(0.0, 1.0), (-1.0, 2.0), (0.5, 0.5), (0.25, 0.75)]
    for _ in range(20):
        a, b = sorted((rng.choice(MIDPOINTS), rng.random()))
        out.append((a, b))
    return out


def layout(node: FrameNode) -> list:
    return [(node.t0, node.t1, node.depth, node.drawables),
            [layout(c) for c in node.children]]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("frame_size", [256, 1024])
class TestFrameQueryEquivalence:
    def test_same_placement(self, seed, frame_size):
        doc = random_doc(seed)
        tree = FrameTree(doc, frame_size)
        ref = ReferenceTree(doc, frame_size)
        assert tree.depth() > 2
        assert layout(tree.root) == layout(ref.root)

    def test_same_drawables_in_same_order(self, seed, frame_size):
        doc = random_doc(seed)
        tree = FrameTree(doc, frame_size)
        ref = ReferenceTree(doc, frame_size)
        rng = random.Random(seed)
        for t0, t1 in windows(rng):
            for min_duration in (0.0, (t1 - t0) / 8):
                got, got_prev = tree.query(t0, t1, min_duration=min_duration)
                want, want_prev = ref.query(t0, t1, min_duration)
                assert got == want
                assert [id(d) for d in got] == [id(d) for d in want]
                assert ([(n.t0, n.t1, n.depth) for n in got_prev]
                        == [(n.t0, n.t1, n.depth) for n in want_prev])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_time_range_is_union_of_spans(seed):
    doc = random_doc(seed)
    # Drop the root-spanning state so the range comes from the rest,
    # backwards arrows included.
    doc.states = doc.states[1:]
    spans = [drawable_span(d) for d in doc.drawables]
    assert doc.time_range == (min(s[0] for s in spans),
                              max(s[1] for s in spans))


def test_time_range_of_empty_doc():
    doc = Slog2Doc(categories=list(CATS), states=[], events=[], arrows=[],
                   num_ranks=1, clock_resolution=1e-9)
    assert doc.time_range == (0.0, 0.0)
