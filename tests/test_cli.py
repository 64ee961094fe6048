"""The command-line tools: clog2TOslog2 and the headless Jumpshot."""

import os

import pytest

from repro.jumpshot.__main__ import main as jumpshot_main
from repro.jumpshot.__main__ import open_log
from repro.pilot import PilotConfig, run_pilot
from repro.slog2 import read_slog2
from repro.slog2.__main__ import main as convert_main
from repro.apps import Lab2Config, lab2_main


@pytest.fixture(scope="module")
def lab2_clog(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "lab2.clog2")
    res = run_pilot(lab2_main, 6, argv=("-pisvc=j",),
                    config=PilotConfig(mpe_log_path=path))
    assert res.ok
    return path


class TestConvertCli:
    def test_default_output_name(self, lab2_clog, capsys):
        rc = convert_main([lab2_clog])
        assert rc == 0
        out_path = lab2_clog[:-6] + ".slog2"
        assert os.path.exists(out_path)
        out = capsys.readouterr().out
        assert "states" in out and "wrote" in out
        assert "clog2TOslog2" in out

    def test_explicit_output_and_frame_size(self, lab2_clog, tmp_path, capsys):
        out_path = str(tmp_path / "custom.slog2")
        rc = convert_main([lab2_clog, "-o", out_path, "--frame-size", "2048"])
        assert rc == 0
        doc = read_slog2(out_path)
        assert doc.states
        assert "frame size 2048" in capsys.readouterr().out

    def test_strict_clean_log_passes(self, lab2_clog, tmp_path):
        rc = convert_main([lab2_clog, "-o", str(tmp_path / "x.slog2"),
                           "--strict"])
        assert rc == 0

    def test_strict_dirty_log_fails(self, tmp_path):
        # A log with an unmatched send half is "non well-behaved".
        from repro.mpe.clog2 import Clog2File, write_clog2
        from repro.mpe.records import SEND, MsgEvent

        dirty = str(tmp_path / "dirty.clog2")
        write_clog2(dirty, Clog2File(1e-8, 2, [],
                                     [MsgEvent(1.0, 0, SEND, 1, 7, 8)]))
        rc = convert_main([dirty, "-o", str(tmp_path / "d.slog2"),
                           "--strict", "--report"])
        assert rc == 1

    def test_bad_frame_size_fails_in_conversion(self, lab2_clog, tmp_path):
        with pytest.raises(ValueError):
            convert_main([lab2_clog, "-o", str(tmp_path / "y.slog2"),
                          "--frame-size", "16"])


class TestJumpshotCli:
    def test_open_log_accepts_both_formats(self, lab2_clog, tmp_path):
        slog_path = str(tmp_path / "v.slog2")
        convert_main([lab2_clog, "-o", slog_path])
        from_clog = open_log(lab2_clog)  # integrated converter
        from_slog = open_log(slog_path)
        assert len(from_clog.states) == len(from_slog.states)

    def test_open_log_garbage(self, tmp_path):
        bad = str(tmp_path / "bad.bin")
        with open(bad, "wb") as fh:
            fh.write(b"garbage-bytes-here")
        with pytest.raises(SystemExit):
            open_log(bad)

    def test_ascii_default(self, lab2_clog, capsys):
        rc = jumpshot_main([lab2_clog, "--width", "80"])
        assert rc == 0
        out = capsys.readouterr().out
        # Rank names travel inside the log file (RankName records), so
        # even the standalone viewer labels timelines correctly.
        assert "0 PI_MAIN|" in out
        assert "arrows in window" in out

    def test_svg_output(self, lab2_clog, tmp_path, capsys):
        svg_path = str(tmp_path / "cli.svg")
        rc = jumpshot_main([lab2_clog, "--svg", svg_path])
        assert rc == 0
        assert open(svg_path).read().startswith("<svg")

    def test_window_zoom(self, lab2_clog, capsys):
        rc = jumpshot_main([lab2_clog, "--window", "0.0", "0.0001",
                            "--width", "60"])
        assert rc == 0
        assert "100.000us" in capsys.readouterr().out

    def test_hide_category(self, lab2_clog, capsys):
        rc = jumpshot_main([lab2_clog, "--hide", "PI_Read", "--width", "60"])
        assert rc == 0
        row0 = [l for l in capsys.readouterr().out.splitlines()
                if "0 PI_MAIN|" in l][0]
        assert "R" not in row0.split("|", 1)[1]

    def test_hide_unknown_warns(self, lab2_clog, capsys):
        rc = jumpshot_main([lab2_clog, "--hide", "PI_Nothing", "--width", "60"])
        assert rc == 0
        assert "no category" in capsys.readouterr().err

    def test_legend_table(self, lab2_clog, capsys):
        rc = jumpshot_main([lab2_clog, "--legend", "--width", "60"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Legend (count / incl / excl):" in out
        assert "PI_Read" in out

    def test_search(self, lab2_clog, capsys):
        rc = jumpshot_main([lab2_clog, "--search", "PI_Write"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "match(es) for 'PI_Write'" in out
        assert "state: PI_Write" in out

    def test_stats_output(self, lab2_clog, tmp_path, capsys):
        path = str(tmp_path / "stats.svg")
        rc = jumpshot_main([lab2_clog, "--stats", path, "--by-rank",
                            "--width", "60"])
        assert rc == 0
        assert "load balance" in open(path).read()

    def test_html_output(self, lab2_clog, tmp_path, capsys):
        path = str(tmp_path / "view.html")
        rc = jumpshot_main([lab2_clog, "--html", path, "--width", "60"])
        assert rc == 0
        html = open(path).read()
        assert html.startswith("<!DOCTYPE html>")
        assert "const DOC" in html

    def test_critical_path_svg_overlay(self, lab2_clog, tmp_path, capsys):
        from repro.jumpshot.svg import CRITICAL

        path = str(tmp_path / "cp.svg")
        rc = jumpshot_main([lab2_clog, "--critical-path", "--svg", path,
                            "--width", "60"])
        assert rc == 0
        assert CRITICAL in open(path).read()
        assert "critical path:" in capsys.readouterr().out

    def test_compare_flag(self, lab2_clog, tmp_path, capsys):
        out_path = str(tmp_path / "cmp.svg")
        rc = jumpshot_main([lab2_clog, "--compare", lab2_clog, out_path,
                            "--width", "60"])
        assert rc == 0
        svg = open(out_path).read()
        assert "makespan" in svg
        out = capsys.readouterr().out
        assert "1.00x" in out  # same log vs itself

    def test_chrome_trace_export(self, lab2_clog, tmp_path, capsys):
        import json

        path = str(tmp_path / "trace.json")
        rc = jumpshot_main([lab2_clog, "--chrome-trace", path,
                            "--width", "60"])
        assert rc == 0
        events = json.load(open(path))
        assert any(e["ph"] == "X" for e in events)

    def test_source_listing(self, lab2_clog, tmp_path, capsys):
        import repro.apps.lab2 as lab2_module

        out_path = str(tmp_path / "src.html")
        rc = jumpshot_main([lab2_clog, "--source", lab2_module.__file__,
                            out_path, "--width", "60"])
        assert rc == 0
        html = open(out_path).read()
        assert 'class="ln hit"' in html
