"""MP net extraction and rendering units.

Static nets come from pilotcheck analyses, trace nets from CLOG2 logs;
this file checks each extractor in isolation on small programs plus
the text/DOT/SVG renderers (including the PC003 cycle cross-link).
"""

import os
import xml.etree.ElementTree as ET

from repro.jumpshot.markers import BLAME_COLOR
from repro.mpnet import (
    extract_static_net,
    extract_trace_net,
    render_net_svg,
    render_net_text,
    to_dot,
    wire_messages,
)
from repro.pilot import (
    PI_MAIN,
    PI_Configure,
    PI_CreateChannel,
    PI_CreateProcess,
    PI_Read,
    PI_StartAll,
    PI_StopMain,
    PI_Write,
    PilotConfig,
    run_pilot,
)
from repro.pilot.formats import parse_format
from repro.pilotcheck import analyze_program


def ring_app(rounds=4):
    """PI_MAIN -> P1 -> PI_MAIN, fixed round count, fully provable."""

    def main(argv):
        chans = {}

        def worker(_i, _a):
            for _ in range(rounds):
                v = int(PI_Read(chans["fwd"], "%d"))
                PI_Write(chans["bwd"], "%d", v + 1)
            return 0

        PI_Configure(argv)
        p = PI_CreateProcess(worker)
        chans["fwd"] = PI_CreateChannel(PI_MAIN, p)
        chans["bwd"] = PI_CreateChannel(p, PI_MAIN)
        PI_StartAll()
        for r in range(rounds):
            PI_Write(chans["fwd"], "%d", r)
            PI_Read(chans["bwd"], "%d")
        PI_StopMain(0)

    return main


def deadlock_main(argv):
    """Both ends read first: PC003 fires, naming the cycle channels."""
    chans = {}

    def worker(_i, _a):
        v = PI_Read(chans["ask"], "%d")
        PI_Write(chans["answer"], "%d", int(v))
        return 0

    PI_Configure(argv)
    p = PI_CreateProcess(worker)
    chans["ask"] = PI_CreateChannel(PI_MAIN, p)
    chans["answer"] = PI_CreateChannel(p, PI_MAIN)
    PI_StartAll()
    PI_Read(chans["answer"], "%d")  # reads before writing: deadlock
    PI_Write(chans["ask"], "%d", 1)
    PI_StopMain(0)


class TestWireMessages:
    def test_one_message_per_item(self):
        assert wire_messages(parse_format("%d %lf")) == 2

    def test_autoalloc_costs_two(self):
        assert wire_messages(parse_format("%^d")) == 2
        assert wire_messages(parse_format("%d %^lf")) == 3


class TestStaticExtraction:
    def test_exact_counts_and_sequences(self):
        net = extract_static_net(analyze_program(ring_app(4), 2))
        assert net.kind == "static"
        assert net.nprocs == 2
        fwd, bwd = net.edges[0], net.edges[1]
        assert (fwd.src, fwd.dst, fwd.sends, fwd.recvs) == (0, 1, 4, 4)
        assert (bwd.src, bwd.dst, bwd.sends, bwd.recvs) == (1, 0, 4, 4)
        assert fwd.sends_exact and fwd.recvs_exact
        assert net.sequence_exact == {0: True, 1: True}
        assert net.sequences[0] == [("S", 0), ("R", 1)] * 4
        assert net.sequences[1] == [("R", 0), ("S", 1)] * 4

    def test_cycles_follow_used_edges(self):
        net = extract_static_net(analyze_program(ring_app(2), 2))
        assert net.cycles() == [[0, 1]]
        assert {e.cid for e in net.cycle_edges([0, 1])} == {0, 1}


class TestTraceExtraction:
    def test_observed_net_matches_run(self, tmp_path):
        path = str(tmp_path / "ring.clog2")
        res = run_pilot(ring_app(4), 2, argv=("-pisvc=j",),
                        config=PilotConfig(mpe_log_path=path))
        assert res.ok
        net = extract_trace_net(path)
        assert net.kind == "trace"
        fwd, bwd = net.edges[0], net.edges[1]
        assert (fwd.src, fwd.dst, fwd.sends, fwd.recvs) == (0, 1, 4, 4)
        assert (bwd.src, bwd.dst, bwd.sends, bwd.recvs) == (1, 0, 4, 4)
        # Observed order per rank is recorded for the MN005 check.
        assert net.sequences[0] == [("S", 0), ("R", 1)] * 4
        assert net.sequences[1] == [("R", 0), ("S", 1)] * 4
        assert all(net.sequence_exact.values())

    def test_process_names_come_from_definitions(self, tmp_path):
        path = str(tmp_path / "named.clog2")
        run_pilot(ring_app(2), 2, argv=("-pisvc=j",),
                  config=PilotConfig(mpe_log_path=path))
        net = extract_trace_net(path)
        assert net.rank_name(0) == "PI_MAIN"


class TestRendering:
    def _static(self):
        return extract_static_net(analyze_program(ring_app(3), 2))

    def test_text_lists_edges(self):
        text = render_net_text(self._static())
        assert "MP net (static)" in text
        assert "C0: P0 -> P1 (send 3, recv 3)" in text
        assert "[sequence proven]" in text

    def test_dot_is_wellformed(self):
        dot = to_dot(self._static())
        assert dot.startswith("digraph mpnet {")
        assert 'r0 -> r1 [label="C0 x3"]' in dot

    def test_svg_parses_and_has_one_arrow_per_edge(self):
        svg = render_net_svg(self._static())
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        lines = [el for el in root.iter(f"{ns}line")
                 if el.get("marker-end")]
        assert len(lines) == 2

    def test_deadlock_cycle_edges_are_highlighted(self):
        analysis = analyze_program(deadlock_main, 2)
        assert [f.code for f in analysis.findings] == ["PC003"]
        (pc003,) = analysis.findings
        assert set(pc003.cids) == {0, 1}
        net = extract_static_net(analysis)
        dot = to_dot(net, [pc003])
        # Both cycle edges get the blame colour from the shared palette.
        assert dot.count(BLAME_COLOR) == 2
        svg = render_net_svg(net, [pc003])
        assert BLAME_COLOR in svg


class TestNetCli:
    def test_net_command_roundtrip(self, tmp_path, capsys):
        from repro.pilotcheck.__main__ import main as cli_main

        app = tmp_path / "ring_cli.py"
        app.write_text(
            "from tests.mpnet.test_net import ring_app\n"
            "main = ring_app(4)\n")
        log = str(tmp_path / "run.clog2")
        res = run_pilot(ring_app(4), 2, argv=("-pisvc=j",),
                        config=PilotConfig(mpe_log_path=log))
        assert res.ok
        dot = str(tmp_path / "net.dot")
        svg = str(tmp_path / "net.svg")
        code = cli_main(["net", f"{app}:main", "--nprocs", "2",
                         "--trace", log, "--dot", dot, "--svg", svg])
        out = capsys.readouterr().out
        assert code == 0
        assert "conformance: trace matches the predicted net" in out
        assert os.path.exists(dot) and os.path.exists(svg)

    def test_net_command_sarif_reports_divergence(self, tmp_path, capsys):
        import json

        from repro.pilotcheck.__main__ import main as cli_main

        app = tmp_path / "ring_cli.py"
        app.write_text(
            "from tests.mpnet.test_net import ring_app\n"
            "main = ring_app(4)\n")
        log = str(tmp_path / "short.clog2")
        # Run fewer rounds than the analyzed program predicts.
        res = run_pilot(ring_app(3), 2, argv=("-pisvc=j",),
                        config=PilotConfig(mpe_log_path=log))
        assert res.ok
        code = cli_main(["net", f"{app}:main", "--nprocs", "2",
                         "--trace", log, "--format", "sarif"])
        assert code == 2
        doc = json.loads(capsys.readouterr().out)
        rules = {r["ruleId"]
                 for r in doc["runs"][0]["results"]}
        assert "MN003" in rules
