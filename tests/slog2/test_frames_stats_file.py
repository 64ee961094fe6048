"""Frame tree, legend statistics and the SLOG2 container format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.slog2.file import Slog2FormatError, read_slog2, write_slog2
from repro.slog2.frames import FrameTree
from repro.slog2.model import Arrow, Event, SlogCategory, Slog2Doc, State
from repro.slog2.stats import compute_stats, sorted_stats

CATS = [SlogCategory(0, "Compute", "gray", "state"),
        SlogCategory(1, "PI_Read", "red", "state"),
        SlogCategory(2, "Bubble", "yellow", "event"),
        SlogCategory(3, "message", "white", "arrow")]


def doc_with(states=(), events=(), arrows=(), num_ranks=2):
    return Slog2Doc(categories=list(CATS), states=list(states),
                    events=list(events), arrows=list(arrows),
                    num_ranks=num_ranks, clock_resolution=1e-6,
                    rank_names={0: "PI_MAIN"})


class TestFrameTree:
    def test_small_doc_single_node(self):
        doc = doc_with(states=[State(0, 0, 0.0, 1.0, 0)])
        tree = FrameTree(doc)
        assert tree.node_count() == 1
        assert tree.depth() == 0

    def test_overflow_splits(self):
        states = [State(0, 0, i * 0.01, i * 0.01 + 0.005, 0)
                  for i in range(200)]
        tree = FrameTree(doc_with(states=states), frame_size=1024)
        assert tree.depth() >= 1
        found, _ = tree.query(0.0, 10.0)
        assert len(found) == 200  # nothing lost to splitting

    def test_smaller_frame_size_deeper_tree(self):
        states = [State(0, 0, i * 0.01, i * 0.01 + 0.005, 0)
                  for i in range(300)]
        deep = FrameTree(doc_with(states=states), frame_size=512)
        shallow = FrameTree(doc_with(states=states), frame_size=64 * 1024)
        assert deep.depth() > shallow.depth()

    def test_query_window_filters(self):
        states = [State(0, 0, float(i), i + 0.5, 0) for i in range(10)]
        tree = FrameTree(doc_with(states=states))
        found, _ = tree.query(2.25, 4.25)
        starts = sorted(s.start for s in found)
        assert starts == [2.0, 3.0, 4.0]

    def test_preview_aggregates_durations(self):
        states = ([State(0, 0, i * 0.01, i * 0.01 + 0.008, 0) for i in range(100)]
                  + [State(1, 0, i * 0.01 + 0.008, i * 0.01 + 0.01, 0)
                     for i in range(100)])
        tree = FrameTree(doc_with(states=states), frame_size=512)
        preview = tree.root.preview
        gray = preview.duration[(0, 0)]
        red = preview.duration[(0, 1)]
        assert gray == pytest.approx(0.8, rel=1e-6)
        assert red == pytest.approx(0.2, rel=1e-6)

    def test_min_duration_returns_previews(self):
        states = [State(0, 0, i * 0.001, i * 0.001 + 0.0008, 0)
                  for i in range(500)]
        tree = FrameTree(doc_with(states=states), frame_size=512)
        drawables, previews = tree.query(0.0, 0.5, min_duration=0.3)
        assert previews  # deep nodes summarised, not enumerated
        total_preview = sum(n.preview.total_count for n in previews)
        assert total_preview + len(drawables) == 500

    def test_bad_frame_size(self):
        with pytest.raises(ValueError):
            FrameTree(doc_with(), frame_size=8)

    @settings(deadline=None, max_examples=20)
    @given(spans=st.lists(st.tuples(st.floats(0, 99), st.floats(0.001, 1.0)),
                          min_size=1, max_size=150),
           frame_size=st.sampled_from([512, 2048, 64 * 1024]))
    def test_query_full_range_finds_everything(self, spans, frame_size):
        states = [State(0, 0, s, s + d, 0) for s, d in spans]
        tree = FrameTree(doc_with(states=states), frame_size=frame_size)
        found, _ = tree.query(-1.0, 102.0)
        assert len(found) == len(states)


class TestStats:
    def test_count_and_incl(self):
        doc = doc_with(states=[State(1, 0, 0.0, 1.0, 0),
                               State(1, 0, 2.0, 2.5, 0)])
        stats = compute_stats(doc)
        assert stats["PI_Read"].count == 2
        assert stats["PI_Read"].incl == pytest.approx(1.5)

    def test_excl_subtracts_nested(self):
        # Paper Section III: exclusive = inclusive minus interior
        # rectangles.
        doc = doc_with(states=[State(0, 0, 0.0, 10.0, 0),
                               State(1, 0, 2.0, 5.0, 1)])
        stats = compute_stats(doc)
        assert stats["Compute"].incl == pytest.approx(10.0)
        assert stats["Compute"].excl == pytest.approx(7.0)
        assert stats["PI_Read"].excl == pytest.approx(3.0)

    def test_excl_charges_immediate_parent_only(self):
        doc = doc_with(states=[State(0, 0, 0.0, 10.0, 0),
                               State(1, 0, 1.0, 9.0, 1),
                               State(1, 0, 2.0, 3.0, 2)])
        stats = compute_stats(doc)
        assert stats["Compute"].excl == pytest.approx(2.0)  # 10 - 8
        assert stats["PI_Read"].excl == pytest.approx(8.0 - 1.0 + 1.0)

    def test_nested_on_other_rank_not_subtracted(self):
        doc = doc_with(states=[State(0, 0, 0.0, 10.0, 0),
                               State(1, 1, 2.0, 5.0, 0)])
        stats = compute_stats(doc)
        assert stats["Compute"].excl == pytest.approx(10.0)

    def test_window_clips_states(self):
        doc = doc_with(states=[State(0, 0, 0.0, 10.0, 0)])
        stats = compute_stats(doc, 4.0, 6.0)
        assert stats["Compute"].incl == pytest.approx(2.0)

    def test_windows_never_walk_the_full_range(self, monkeypatch):
        doc = doc_with(states=[State(0, 0, 0.0, 10.0, 0)],
                       events=[Event(2, 0, 12.0)],
                       arrows=[Arrow(3, 0, 1, 9.0, 11.0, 0, 8)])
        expected = {window: compute_stats(doc, *window) for window in (
            (0.0, 12.0), (4.0, 12.0), (0.0, 6.0), (4.0, 6.0))}
        monkeypatch.setattr(Slog2Doc, "time_range", property(
            lambda self: pytest.fail("compute_stats walked time_range")))
        # A missing bound means the document's edge.
        assert compute_stats(doc) == expected[(0.0, 12.0)]
        assert compute_stats(doc, 4.0) == expected[(4.0, 12.0)]
        assert compute_stats(doc, None, 6.0) == expected[(0.0, 6.0)]
        assert compute_stats(doc, 4.0, 6.0) == expected[(4.0, 6.0)]
        assert expected[(4.0, 6.0)]["Compute"].incl == pytest.approx(2.0)
        assert expected[(4.0, 12.0)]["message"].incl == pytest.approx(2.0)

    def test_events_counted_in_window(self):
        doc = doc_with(events=[Event(2, 0, 1.0), Event(2, 0, 5.0)])
        stats = compute_stats(doc, 0.0, 2.0)
        assert stats["Bubble"].count == 1

    def test_arrow_stats(self):
        doc = doc_with(arrows=[Arrow(3, 0, 1, 1.0, 1.5, 9, 64)])
        stats = compute_stats(doc)
        assert stats["message"].count == 1
        assert stats["message"].incl == pytest.approx(0.5)

    def test_sorted_stats(self):
        doc = doc_with(states=[State(0, 0, 0.0, 5.0, 0),
                               State(1, 0, 6.0, 7.0, 0)])
        rows = sorted_stats(compute_stats(doc), key="incl")
        assert rows[0].name == "Compute"
        with pytest.raises(ValueError):
            sorted_stats(compute_stats(doc), key="colour")


class TestSlog2File:
    def test_roundtrip(self, tmp_path):
        doc = doc_with(
            states=[State(0, 0, 0.0, 1.0, 0, "begin text", "end text"),
                    State(1, 1, 0.5, 0.75, 1)],
            events=[Event(2, 0, 0.25, "pop")],
            arrows=[Arrow(3, 0, 1, 0.1, 0.2, 5, 256)])
        path = str(tmp_path / "doc.slog2")
        write_slog2(path, doc)
        back = read_slog2(path)
        assert back.categories == doc.categories
        assert back.states == doc.states
        assert back.events == doc.events
        assert back.arrows == doc.arrows
        assert back.rank_names == doc.rank_names
        assert back.num_ranks == doc.num_ranks

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.slog2")
        with open(path, "wb") as fh:
            fh.write(b"WRONG!!!" + b"\0" * 60)
        with pytest.raises(Slog2FormatError):
            read_slog2(path)

    def test_truncation(self, tmp_path):
        doc = doc_with(states=[State(0, 0, 0.0, 1.0, 0)])
        path = str(tmp_path / "t.slog2")
        write_slog2(path, doc)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[:-3])
        with pytest.raises(Slog2FormatError):
            read_slog2(path)
