"""Stacked before/after comparison renders."""

import re

import pytest

from repro.jumpshot.compare import render_comparison_svg
from repro.slog2.model import SlogCategory, Slog2Doc, State

CATS = [SlogCategory(0, "Compute", "gray", "state")]


def doc_with_makespan(seconds, ranks=2):
    states = [State(0, r, 0.0, seconds, 0) for r in range(ranks)]
    return Slog2Doc(categories=list(CATS), states=states, events=[],
                    arrows=[], num_ranks=ranks, clock_resolution=1e-9,
                    rank_names={0: "PI_MAIN"})


class TestComparison:
    def test_two_banners_with_makespans(self, tmp_path):
        svg = render_comparison_svg(doc_with_makespan(10.0),
                                    doc_with_makespan(5.0),
                                    str(tmp_path / "cmp.svg"),
                                    label_a="instance A",
                                    label_b="intended")
        assert "instance A — makespan 10.000s" in svg
        assert "intended — makespan 5.000s" in svg
        assert svg.count("<g transform=") == 2

    def test_shared_time_scale(self):
        svg = render_comparison_svg(doc_with_makespan(10.0),
                                    doc_with_makespan(5.0))
        # The faster run's compute rect is ~half the width of the
        # slower run's (same pixel-per-second scale).
        widths = [float(w) for w in re.findall(
            r'width="([\d.]+)" height="[\d.]+" fill="#808080"', svg)]
        assert len(widths) == 4  # 2 ranks x 2 runs
        assert max(widths) / min(widths) == pytest.approx(2.0, rel=0.02)

    def test_single_valid_svg_document(self, tmp_path):
        path = str(tmp_path / "c.svg")
        svg = render_comparison_svg(doc_with_makespan(3.0),
                                    doc_with_makespan(2.0), path)
        assert svg.count("<svg") == 1  # inner tags stripped
        assert svg.rstrip().endswith("</svg>")
        import xml.dom.minidom

        xml.dom.minidom.parseString(svg)  # well-formed XML

    def test_real_before_after(self, tmp_path):
        from repro.apps import DYNAMIC, STATIC, Lab3Config, lab3_main
        from repro.mpe import read_log
        from repro.pilot import PilotConfig, run_pilot
        from repro.slog2 import convert

        docs = {}
        for scheme in (STATIC, DYNAMIC):
            clog = str(tmp_path / f"{scheme}.clog2")
            run_pilot(lambda argv: lab3_main(argv, scheme,
                                             Lab3Config(ntasks=16)), 5,
                      argv=("-pisvc=j",),
                      config=PilotConfig(mpe_log_path=clog))
            docs[scheme], _ = convert(read_log(clog).log)
        svg = render_comparison_svg(docs[STATIC], docs[DYNAMIC],
                                    label_a="static", label_b="dynamic")
        assert "static — makespan" in svg
        assert "dynamic — makespan" in svg
