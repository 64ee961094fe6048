"""Golden snapshots: the engine is deterministic, so one reference run
pins down the entire stack — timing model, logging, merge, conversion
and rendering — in three small files: the CLOG2 digest, the ASCII
timeline, and the SHA-256 of every SVG in a short browsing session.

If a change legitimately alters the timeline (a cost model tweak, a
renderer improvement), regenerate with::

    python tests/test_golden.py --regenerate
"""

import hashlib
import os
import random
import sys

import pytest

from repro import jumpshot
from repro.apps import lab2_main
from repro.mpe import read_log
from repro.pilot import PilotConfig, run_pilot
from repro.slog2 import convert

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

# Seed for the zoom windows of the SVG session (fixed, not tuned).
ZOOM_SEED = 2017


def svg_session(doc) -> list[tuple[str, str]]:
    """``(label, sha256)`` of ``render_svg`` over a small browsing
    session: the full window, three seeded zooms of decreasing span
    (so both drawn states and preview stripes appear), and a view with
    a hidden category and a cut timeline."""
    def digest(view) -> str:
        return hashlib.sha256(
            jumpshot.render_svg(view).encode("utf-8")).hexdigest()

    view = jumpshot.View(doc)
    out = [("full", digest(view))]
    lo, hi = view.full_range
    rng = random.Random(ZOOM_SEED)
    for i, frac in enumerate((0.5, 0.1, 0.01)):
        span = (hi - lo) * frac
        start = lo + rng.random() * (hi - lo - span)
        view.zoom_to(start, start + span)
        out.append((f"zoom{i}", digest(view)))
    view = jumpshot.View(doc)
    view.legend.set_visible("PI_Write", False)
    view.cut_timeline(3)
    out.append(("hidden-cut", digest(view)))
    return out


def produce(tmp_dir):
    path = os.path.join(tmp_dir, "lab2.clog2")
    res = run_pilot(lab2_main, 6,
                    config=PilotConfig(services="j", mpe_log_path=path))
    assert res.ok
    doc, report = convert(read_log(path).log,
                          {p.rank: p.name for p in res.run.processes})
    assert report.clean
    view = jumpshot.View(doc)
    ascii_art = jumpshot.render_ascii(view, width=100) + "\n"
    digest = hashlib.sha256(open(path, "rb").read()).hexdigest() + "\n"
    svgs = "".join(f"{label} {sha}\n" for label, sha in svg_session(doc))
    return ascii_art, digest, svgs


class TestGolden:
    @pytest.fixture(scope="class")
    def produced(self, tmp_path_factory):
        return produce(str(tmp_path_factory.mktemp("golden")))

    def test_clog2_bytes_bit_identical(self, produced):
        _, digest, _ = produced
        expected = open(os.path.join(GOLDEN, "lab2_clog2.sha256")).read()
        assert digest == expected, (
            "the lab2 CLOG2 bytes changed — timing model, logging or "
            "format drift; regenerate the golden if intentional")

    def test_ascii_timeline_identical(self, produced):
        ascii_art, _, _ = produced
        expected = open(os.path.join(GOLDEN, "lab2_timeline.txt")).read()
        assert ascii_art == expected, (
            "the rendered lab2 timeline changed; regenerate the golden "
            "if intentional")

    def test_svg_session_bytes_identical(self, produced):
        _, _, svgs = produced
        expected = open(os.path.join(GOLDEN, "lab2_svg.sha256")).read()
        assert svgs == expected, (
            "an SVG of the lab2 browsing session changed; regenerate "
            "the golden if intentional")

    def test_repeated_runs_identical(self, tmp_path_factory):
        a = produce(str(tmp_path_factory.mktemp("g1")))
        b = produce(str(tmp_path_factory.mktemp("g2")))
        assert a == b


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            ascii_art, digest, svgs = produce(tmp)
        with open(os.path.join(GOLDEN, "lab2_timeline.txt"), "w") as fh:
            fh.write(ascii_art)
        with open(os.path.join(GOLDEN, "lab2_clog2.sha256"), "w") as fh:
            fh.write(digest)
        with open(os.path.join(GOLDEN, "lab2_svg.sha256"), "w") as fh:
            fh.write(svgs)
        print("golden files regenerated")
    else:
        print(__doc__)
