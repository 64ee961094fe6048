"""Runtime + viewer wiring: -pisvc=s, deadlock matching, annotations,
and the CLI."""

import os
import subprocess
import sys

import pytest

from repro.pilotcheck import Finding, annotate_doc, match_deadlock

from tests.pilotcheck import fixtures

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


class TestServiceFlag:
    def test_s_is_a_valid_service_letter(self):
        from repro.pilot import PilotConfig

        opts, leftover = PilotConfig.from_argv(("-pisvc=s", "app-arg"))
        assert "s" in opts.services
        assert leftover == ["app-arg"]
        # The analyzer is advisory: it must not consume a service rank.
        assert not opts.needs_service_rank

    def test_clean_run_with_check_service(self):
        from repro.pilot import run_pilot

        result = run_pilot(fixtures.pc003_near_miss, 2, argv=("-pisvc=s",))
        assert result.ok
        assert result.run.static_findings == []

    def test_findings_attach_to_run(self, capsys):
        from repro.pilot import run_pilot

        result = run_pilot(fixtures.pc004_bad, 2, argv=("-pisvc=s",))
        assert result.ok  # PC004 is a warning; the run itself succeeds
        assert [f.code for f in result.run.static_findings] == ["PC004"]
        assert "PILOT CHECK: PC004" in capsys.readouterr().err

    def test_deadlock_carries_matching_prediction(self, capsys):
        from repro.pilot import run_pilot
        from repro.vmpi.errors import SimulationDeadlock

        with pytest.raises(SimulationDeadlock) as excinfo:
            run_pilot(fixtures.pc003_bad, 2, argv=("-pisvc=s",))
        matched = excinfo.value.static_findings
        assert [f.code for f in matched] == ["PC003"]
        assert matched[0].ranks == (0, 1)
        assert "predicted this deadlock" in capsys.readouterr().err

    def test_analysis_failure_never_breaks_the_run(self, capsys):
        from repro.pilot import run_pilot

        # A main whose config phase only works on the real run (here:
        # it bombs on its very first invocation, which is the capture)
        # is skipped with a notice — the run itself must still go ahead.
        state = {"calls": 0}

        def bomb_then_fine(argv):
            from repro.pilot import PI_Configure, PI_StartAll, PI_StopMain

            state["calls"] += 1
            if state["calls"] == 1:
                raise RuntimeError("boom")
            PI_Configure(argv)
            PI_StartAll()
            PI_StopMain(0)

        result = run_pilot(bomb_then_fine, 2, argv=("-pisvc=s",))
        assert result.ok
        assert "static analysis unavailable" in capsys.readouterr().err


class TestDeadlockMatching:
    def finding(self, ranks):
        return Finding("PC003", "cycle", ranks=tuple(ranks))

    def test_matches_when_cycle_within_blocked(self):
        f = self.finding([0, 1])
        assert match_deadlock([f], {0: "recv", 1: "recv", 2: "recv"}) == [f]

    def test_no_match_when_cycle_not_blocked(self):
        f = self.finding([0, 3])
        assert match_deadlock([f], {0: "recv", 1: "recv"}) == []

    def test_non_pc003_findings_ignored(self):
        other = Finding("PC004", "orphan")
        assert match_deadlock([other], {0: "recv"}) == []


class TestViewerAnnotations:
    def make_doc(self):
        from repro.slog2.model import Slog2Doc, SlogCategory, State

        return Slog2Doc(
            categories=[SlogCategory(0, "PI_Read", "#ff0000", "state")],
            states=[State(0, 0, 0.0, 1.0, 0)], events=[], arrows=[],
            num_ranks=2, clock_resolution=1e-9)

    def test_annotate_doc_is_idempotent(self):
        doc = self.make_doc()
        finding = Finding("PC003", "cycle", ranks=(0, 1))
        annotate_doc(doc, [finding])
        annotate_doc(doc, [finding])
        assert len(doc.annotations) == 1
        assert "PC003" in doc.annotations[0]

    def test_ascii_renders_annotation_line(self):
        from repro import jumpshot

        doc = self.make_doc()
        annotate_doc(doc, [Finding("PC003", "cycle", ranks=(0, 1))])
        text = jumpshot.render_ascii(jumpshot.View(doc), width=60)
        first = text.splitlines()[0]
        assert ">>" in first and "PC003" in first

    def test_svg_renders_annotation_flag(self):
        from repro import jumpshot

        doc = self.make_doc()
        annotate_doc(doc, [Finding("PC003", "cycle", ranks=(0, 1))])
        svg = jumpshot.render_svg(jumpshot.View(doc))
        assert "pilotcheck PC003" in svg

    def test_docs_without_annotations_render_unchanged(self):
        from repro import jumpshot

        doc = self.make_doc()
        svg = jumpshot.render_svg(jumpshot.View(doc))
        assert "pilotcheck" not in svg


class TestCli:
    def run_cli(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.pilotcheck", *args],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(REPO_SRC))

    def fixture_target(self, func):
        path = os.path.join(os.path.dirname(__file__), "fixtures.py")
        return f"{path}:{func}"

    def test_codes_subcommand(self):
        proc = self.run_cli("codes")
        assert proc.returncode == 0
        for code in ("PC001", "PC005", "TR001", "TR006"):
            assert code in proc.stdout

    def test_analyze_clean_program_exits_zero(self):
        proc = self.run_cli("analyze",
                            self.fixture_target("pc003_near_miss"),
                            "--nprocs", "2")
        assert proc.returncode == 0, proc.stderr
        assert "no findings" in proc.stdout

    def test_analyze_bad_program_exits_nonzero(self):
        proc = self.run_cli("analyze", self.fixture_target("pc003_bad"),
                            "--nprocs", "2")
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "PC003" in proc.stdout

    def test_analyze_warning_only_respects_strict(self):
        target = self.fixture_target("pc004_bad")
        relaxed = self.run_cli("analyze", target, "--nprocs", "2")
        strict = self.run_cli("analyze", target, "--nprocs", "2",
                              "--strict")
        assert relaxed.returncode == 0
        assert strict.returncode == 1

    def test_lint_trace_cli(self, tmp_path):
        from repro.mpe.clog2 import Clog2File, write_clog2
        from repro.mpe.records import BareEvent, StateDef

        good = str(tmp_path / "good.clog2")
        write_clog2(good, Clog2File(
            1e-9, 1, [StateDef(1, 2, "S", "#fff")],
            [BareEvent(0.0, 0, 1, ""), BareEvent(0.1, 0, 2, "")]))
        bad = str(tmp_path / "bad.clog2")
        with open(bad, "wb") as fh:
            fh.write(open(good, "rb").read()[:20])
        ok = self.run_cli("lint-trace", good)
        assert ok.returncode == 0 and "clean" in ok.stdout
        broken = self.run_cli("lint-trace", good, bad)
        assert broken.returncode == 2
        assert "TR005" in broken.stdout
