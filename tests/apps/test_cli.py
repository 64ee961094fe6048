"""The apps command line (python -m repro.apps ...)."""

import os

import pytest

from repro.apps.__main__ import main as apps_main


def run_cli(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return apps_main(args)


class TestAppsCli:
    def test_lab2_plain(self, tmp_path, monkeypatch, capsys):
        rc = run_cli(["lab2"], tmp_path, monkeypatch)
        assert rc == 0
        out = capsys.readouterr().out
        assert "correct: True" in out
        assert "virtual time" in out

    def test_lab1(self, tmp_path, monkeypatch, capsys):
        rc = run_cli(["lab1"], tmp_path, monkeypatch)
        assert rc == 0
        assert "greetings received" in capsys.readouterr().out

    def test_lab3_scheme(self, tmp_path, monkeypatch, capsys):
        rc = run_cli(["lab3", "--scheme", "dynamic", "--tasks", "16"],
                     tmp_path, monkeypatch)
        assert rc == 0
        assert "tasks per worker" in capsys.readouterr().out

    def test_thumbnail_with_log_and_ascii(self, tmp_path, monkeypatch, capsys):
        rc = run_cli(["thumbnail", "--files", "12", "--pisvc", "j",
                      "--render", "ascii", "--width", "60"],
                     tmp_path, monkeypatch)
        assert rc == 0
        out = capsys.readouterr().out
        assert "12 thumbnails" in out
        assert "clog2TOslog2" in out
        assert "arrows in window" in out
        assert os.path.exists(tmp_path / "run.clog2")

    def test_collisions_variant(self, tmp_path, monkeypatch, capsys):
        rc = run_cli(["collisions", "--variant", "instance_a",
                      "--records", "1000"], tmp_path, monkeypatch)
        assert rc == 0
        assert "correct: True" in capsys.readouterr().out

    def test_svg_and_html_artifacts(self, tmp_path, monkeypatch, capsys):
        rc = run_cli(["lab2", "--pisvc", "j", "--render", "all",
                      "--out-dir", "art", "--width", "60"],
                     tmp_path, monkeypatch)
        assert rc == 0
        assert (tmp_path / "art" / "lab2.svg").exists()
        assert (tmp_path / "art" / "lab2.html").exists()

    def test_critical_path_flag(self, tmp_path, monkeypatch, capsys):
        rc = run_cli(["lab2", "--pisvc", "j", "--critical-path"],
                     tmp_path, monkeypatch)
        assert rc == 0
        assert "critical path:" in capsys.readouterr().out

    def test_diff_against_previous_run(self, tmp_path, monkeypatch, capsys):
        rc = run_cli(["collisions", "--variant", "instance_a",
                      "--records", "1000", "--pisvc", "j",
                      "--clog", "a.clog2"], tmp_path, monkeypatch)
        assert rc == 0
        rc = run_cli(["collisions", "--variant", "good",
                      "--records", "1000", "--pisvc", "j",
                      "--clog", "good.clog2", "--diff-against", "a.clog2"],
                     tmp_path, monkeypatch)
        assert rc == 0
        out = capsys.readouterr().out
        assert "a.clog2" in out and "good.clog2" in out
        assert "x)" in out  # the speedup figure

    def test_thumbnail_stage_states_flag(self, tmp_path, monkeypatch, capsys):
        rc = run_cli(["thumbnail", "--files", "8", "--stage-states",
                      "--pisvc", "j", "--render", "ascii", "--width", "60"],
                     tmp_path, monkeypatch)
        assert rc == 0
        from repro.mpe import read_log
        from repro.slog2 import convert

        doc, _ = convert(read_log(str(tmp_path / "run.clog2")).log)
        assert doc.states_of("decode")
        assert doc.states_of("crop+downsample")

    def test_render_without_log_warns(self, tmp_path, monkeypatch, capsys):
        rc = run_cli(["lab2", "--render", "ascii"], tmp_path, monkeypatch)
        assert rc == 0
        assert "pass --pisvc j" in capsys.readouterr().err

    def test_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # Too few ranks for lab2's five workers: the app raises, the
        # CLI reports the failure with a non-zero exit.
        rc = run_cli(["lab2", "--nprocs", "3"], tmp_path, monkeypatch)
        assert rc == 2
        assert "FAILED" in capsys.readouterr().err