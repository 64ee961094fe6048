"""The trace linter: TR codes on synthetic logs, real pipeline output,
golden files, and a deliberately truncated CLOG2."""

import os

import pytest

from repro.mpe.clog2 import Clog2File, write_clog2
from repro.mpe.records import RECV, SEND, BareEvent, EventDef, MsgEvent, StateDef
from repro.mpe.recovery import RecoveryReport
from repro.pilotcheck import (
    lint_clog2,
    lint_clog2_records,
    lint_path,
    lint_recovery,
    lint_slog2_doc,
)

STATE = StateDef(1, 2, "PI_Read", "#ff0000")
EVENT = EventDef(10, "arrival", "#ffffff")


def make_log(records, definitions=(STATE, EVENT), num_ranks=2):
    return Clog2File(1e-9, num_ranks, list(definitions), list(records))


def codes(findings):
    return sorted({f.code for f in findings})


class TestRecordInvariants:
    def test_clean_log_has_no_findings(self):
        log = make_log([
            BareEvent(0.0, 0, 1, ""),
            MsgEvent(0.1, 0, SEND, 1, 5, 4),
            MsgEvent(0.2, 1, RECV, 0, 5, 4),
            BareEvent(0.3, 0, 2, ""),
        ])
        assert lint_clog2_records(log) == []

    def test_tr001_backwards_timestamps(self):
        log = make_log([
            BareEvent(0.5, 0, 1, ""),
            BareEvent(0.1, 0, 2, ""),  # runs backwards on rank 0
        ])
        assert "TR001" in codes(lint_clog2_records(log))

    def test_tr001_is_per_rank(self):
        # Interleaved ranks are fine as long as each rank is monotone.
        log = make_log([
            BareEvent(0.5, 0, 1, ""),
            BareEvent(0.1, 1, 1, ""),
            BareEvent(0.6, 0, 2, ""),
            BareEvent(0.2, 1, 2, ""),
        ])
        assert lint_clog2_records(log) == []

    def test_tr002_unmatched_send(self):
        log = make_log([MsgEvent(0.1, 0, SEND, 1, 5, 4)])
        findings = lint_clog2_records(log)
        assert codes(findings) == ["TR002"]
        assert findings[0].severity == "warning"

    def test_tr002_unmatched_receive(self):
        log = make_log([MsgEvent(0.2, 1, RECV, 0, 5, 4)])
        assert codes(lint_clog2_records(log)) == ["TR002"]

    def test_tr003_receive_before_send(self):
        log = make_log([
            MsgEvent(0.3, 0, SEND, 1, 5, 4),
            MsgEvent(0.2, 1, RECV, 0, 5, 4),  # before the send
        ])
        assert "TR003" in codes(lint_clog2_records(log))

    def test_tr004_end_without_start(self):
        log = make_log([BareEvent(0.1, 0, 2, "")])
        assert "TR004" in codes(lint_clog2_records(log))

    def test_tr004_dangling_state(self):
        log = make_log([BareEvent(0.1, 0, 1, "")])
        findings = lint_clog2_records(log)
        assert "TR004" in codes(findings)
        assert all(f.severity == "warning" for f in findings)

    def test_tr004_improper_interleave(self):
        other = StateDef(3, 4, "Compute", "#888888")
        log = make_log([
            BareEvent(0.1, 0, 1, ""),  # open PI_Read
            BareEvent(0.2, 0, 3, ""),  # open Compute
            BareEvent(0.3, 0, 2, ""),  # close PI_Read under Compute
            BareEvent(0.4, 0, 4, ""),
        ], definitions=(STATE, other))
        assert "TR004" in codes(lint_clog2_records(log))

    def test_tr007_undefined_event_id(self):
        log = make_log([BareEvent(0.1, 0, 99, "")])
        assert "TR007" in codes(lint_clog2_records(log))

    def test_finding_flood_is_capped(self):
        log = make_log([BareEvent(0.1, 0, 99, "") for _ in range(50)])
        findings = lint_clog2_records(log)
        assert len(findings) < 50


class TestRecoveryConsistency:
    def test_consistent_report_is_clean(self):
        log = make_log([BareEvent(0.1, 0, 1, ""), BareEvent(0.2, 0, 2, "")])
        report = RecoveryReport(source="t")
        report.records_kept = 2
        assert lint_recovery(log, report) == []

    def test_tr006_missing_rank_actually_present(self):
        log = make_log([BareEvent(0.1, 1, 1, ""), BareEvent(0.2, 1, 2, "")])
        report = RecoveryReport(source="t")
        report.records_kept = 2
        report.missing_ranks = [1]
        assert "TR006" in codes(lint_recovery(log, report))

    def test_tr006_records_after_crash_time(self):
        log = make_log([BareEvent(5.0, 1, 1, "")])
        report = RecoveryReport(source="t")
        report.records_kept = 1
        report.mark_crashed(1, 0.001)
        assert "TR006" in codes(lint_recovery(log, report))

    def test_tr006_undercounted_kept_records(self):
        log = make_log([BareEvent(0.1, 0, 1, ""), BareEvent(0.2, 0, 2, "")])
        report = RecoveryReport(source="t")
        report.records_kept = 1
        assert "TR006" in codes(lint_recovery(log, report))

    def test_dropped_ranges_reported_as_tr005(self):
        log = make_log([])
        report = RecoveryReport(source="t")
        report.drop("t", 10, 20, "torn record")
        assert "TR005" in codes(lint_recovery(log, report))


class TestSlog2Lint:
    def make_doc(self, **kw):
        from repro.slog2.model import Arrow, Slog2Doc, SlogCategory, State

        base = dict(
            categories=[SlogCategory(0, "PI_Read", "#f00", "state"),
                        SlogCategory(1, "msg", "#fff", "arrow")],
            states=[State(0, 0, 0.0, 1.0, 0)],
            events=[],
            arrows=[Arrow(1, 0, 1, 0.2, 0.4, 7, 16)],
            num_ranks=2, clock_resolution=1e-9)
        base.update(kw)
        return Slog2Doc(**base)

    def test_clean_doc(self):
        assert lint_slog2_doc(self.make_doc()) == []

    def test_backwards_state(self):
        from repro.slog2.model import State

        doc = self.make_doc(states=[State(0, 0, 1.0, 0.5, 0)])
        assert "TR001" in codes(lint_slog2_doc(doc))

    def test_backwards_arrow(self):
        from repro.slog2.model import Arrow

        doc = self.make_doc(arrows=[Arrow(1, 0, 1, 0.4, 0.2, 7, 16)])
        assert "TR003" in codes(lint_slog2_doc(doc))

    def test_undefined_category(self):
        from repro.slog2.model import State

        doc = self.make_doc(states=[State(9, 0, 0.0, 1.0, 0)])
        assert "TR005" in codes(lint_slog2_doc(doc))

    def test_rank_out_of_range(self):
        from repro.slog2.model import State

        doc = self.make_doc(states=[State(0, 5, 0.0, 1.0, 0)])
        assert "TR005" in codes(lint_slog2_doc(doc))


class TestOnDiskDispatch:
    def test_clog2_roundtrip_lints_clean(self, tmp_path):
        path = str(tmp_path / "ok.clog2")
        write_clog2(path, make_log([
            BareEvent(0.0, 0, 1, ""),
            BareEvent(0.1, 0, 2, ""),
        ]))
        assert lint_path(path) == []

    def test_truncated_clog2_is_flagged(self, tmp_path):
        path = str(tmp_path / "full.clog2")
        write_clog2(path, make_log(
            [BareEvent(i * 0.01, 0, 1 if i % 2 == 0 else 2, "")
             for i in range(40)]))
        data = open(path, "rb").read()
        trunc = str(tmp_path / "trunc.clog2")
        with open(trunc, "wb") as fh:
            fh.write(data[: len(data) // 2])
        findings = lint_path(trunc)
        assert "TR005" in codes(findings)
        assert any(f.severity == "error" for f in findings)

    def test_tiny_truncation_is_flagged(self, tmp_path):
        path = str(tmp_path / "stub.clog2")
        with open(path, "wb") as fh:
            fh.write(b"CLOG")
        assert codes(lint_path(path)) == ["TR005"]

    def test_unknown_magic(self, tmp_path):
        path = str(tmp_path / "junk.bin")
        with open(path, "wb") as fh:
            fh.write(b"NOTALOG!" + b"\x00" * 64)
        assert codes(lint_path(path)) == ["TR005"]

    def test_missing_file(self, tmp_path):
        assert codes(lint_path(str(tmp_path / "absent.clog2"))) == ["TR005"]


class TestRealPipeline:
    """lint-trace over an actual run and the golden reference log."""

    @pytest.fixture(scope="class")
    def lab2_clog(self, tmp_path_factory):
        from repro.apps import Lab2Config, lab2_main
        from repro.pilot import PilotConfig, run_pilot

        path = str(tmp_path_factory.mktemp("lint") / "lab2.clog2")
        result = run_pilot(lambda argv: lab2_main(argv, Lab2Config()), 6,
                           argv=("-pisvc=j",),
                           config=PilotConfig(mpe_log_path=path))
        assert result.ok
        return path, result

    def test_fresh_lab2_clog2_lints_clean(self, lab2_clog):
        path, _ = lab2_clog
        assert lint_clog2(path) == []

    def test_converted_slog2_lints_clean(self, lab2_clog, tmp_path):
        from repro import slog2
        from repro.mpe import read_log
        from repro.slog2.file import write_slog2

        path, result = lab2_clog
        doc, _ = slog2.convert(
            read_log(path).log,
            {p.rank: p.name for p in result.run.processes})
        out = str(tmp_path / "lab2.slog2")
        write_slog2(out, doc)
        assert lint_path(out) == []

    def test_golden_reference_log_lints_clean(self, tmp_path):
        """The byte-identical golden lab2 log (tests/test_golden.py
        regenerates it deterministically) must lint clean."""
        import hashlib

        from tests.test_golden import GOLDEN, produce

        tmp = str(tmp_path)
        produce(tmp)  # same recipe test_golden pins by sha256
        path = os.path.join(tmp, "lab2.clog2")
        digest = hashlib.sha256(open(path, "rb").read()).hexdigest() + "\n"
        expected = open(os.path.join(GOLDEN, "lab2_clog2.sha256")).read()
        assert digest == expected  # we linted the real golden bytes
        assert lint_path(path) == []

    def test_any_committed_golden_traces_lint_clean(self):
        golden_dir = os.path.join(os.path.dirname(__file__), "..", "golden")
        for name in sorted(os.listdir(golden_dir)):
            if not name.endswith((".clog2", ".slog2")):
                continue
            path = os.path.join(golden_dir, name)
            findings = lint_path(path)
            assert findings == [], (path, [f.render() for f in findings])
