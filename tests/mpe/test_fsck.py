"""``python -m repro.mpe fsck``: scan, classify, repair, quarantine.

The acceptance bar: fsck classifies every damage kind correctly, and a
truncation-only repair yields a log the trace linter considers pristine
(no TR finding of any code).
"""

import json
import os

from repro.mpe.__main__ import main as mpe_main
from repro.mpe.api import RankLog
from repro.mpe.clog2 import Clog2File, write_clog2
from repro.mpe.fsck import (
    KIND_CHECKSUM,
    KIND_CORRUPTION,
    KIND_TRUNCATION,
    classify_reason,
    fsck_path,
)
from repro.mpe.records import BareEvent, EventDef
from repro.mpe.salvage import partial_path, write_partial
from repro.pilotcheck import lint_clog2


def solo_log(n=200, num_ranks=2):
    """States and arrows pair across records, so a torn tail would
    leave dangling halves; an all-solo-event log repairs to something
    the linter cannot object to."""
    defs = [EventDef(1, "tick", "blue"), EventDef(2, "tock", "green")]
    recs = [BareEvent(i * 1e-4, i % num_ranks, 1 + i % 2, f"n{i}")
            for i in range(n)]
    return Clog2File(1e-6, num_ranks, defs, recs)


def truncated_copy(tmp_path, *, checksum=False, cut=40):
    path = str(tmp_path / "torn.clog2")
    write_clog2(path, solo_log(), checksum=checksum)
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.truncate(size - cut)
    return path


class TestClassification:
    def test_reason_mapping(self):
        assert classify_reason(
            "block checksum mismatch (stored 0x1, computed 0x2)") \
            == KIND_CHECKSUM
        assert classify_reason("truncated block header") == KIND_TRUNCATION
        assert classify_reason("file too short") == KIND_TRUNCATION
        assert classify_reason("torn record at tail") == KIND_TRUNCATION
        assert classify_reason("unparseable span") == KIND_CORRUPTION

    def test_clean_file(self, tmp_path):
        path = str(tmp_path / "ok.clog2")
        write_clog2(path, solo_log())
        report = fsck_path(path)
        assert report.clean
        assert report.format == "clog2"
        assert report.records_kept == 200
        assert not report.truncation_only  # vacuously false when clean

    def test_checksummed_format_detected(self, tmp_path):
        path = str(tmp_path / "ok.clog2")
        write_clog2(path, solo_log(), checksum=True)
        report = fsck_path(path)
        assert report.clean
        assert report.format == "clog2-checksummed"

    def test_truncation_reported(self, tmp_path):
        path = truncated_copy(tmp_path)
        report = fsck_path(path)
        assert not report.clean
        assert report.truncation_only
        assert report.records_dropped > 0
        assert report.kinds() == {KIND_TRUNCATION: len(report.issues)}

    def test_unknown_format(self, tmp_path):
        path = str(tmp_path / "noise.bin")
        with open(path, "wb") as fh:
            fh.write(b"not a log at all, sorry")
        report = fsck_path(path)
        assert report.format == "unknown"
        assert not report.clean
        assert report.issues[0].kind == KIND_CORRUPTION

    def test_missing_file(self, tmp_path):
        report = fsck_path(str(tmp_path / "ghost.clog2"))
        assert not report.clean
        assert report.issues[0].reason == "no such file"

    def test_partial_log_scanned(self, tmp_path):
        base = str(tmp_path / "run.clog2")
        log = solo_log(40, num_ranks=1)
        victim = partial_path(base, 0)
        write_partial(victim, 0,
                      RankLog(records=list(log.records),
                              definitions=list(log.definitions)),
                      1e-6)
        report = fsck_path(victim)
        assert report.format == "partial"
        assert report.clean
        with open(victim, "r+b") as fh:
            fh.truncate(os.path.getsize(victim) - 11)
        report = fsck_path(victim)
        assert not report.clean
        assert report.truncation_only


class TestRepair:
    def test_truncation_only_repair_lints_clean(self, tmp_path):
        path = truncated_copy(tmp_path)
        out = str(tmp_path / "repaired.clog2")
        report = fsck_path(path, repair_to=out)
        assert report.truncation_only
        assert report.repaired_to == out
        # The acceptance bar: the repaired log carries no finding of
        # ANY code, TR001 through TR008.
        assert lint_clog2(out) == []
        # And the repair is honest: it kept exactly what fsck said.
        assert fsck_path(out).records_kept == report.records_kept

    def test_repair_keeps_the_checksummed_format(self, tmp_path):
        path = truncated_copy(tmp_path, checksum=True)
        out = str(tmp_path / "repaired.clog2")
        report = fsck_path(path, repair_to=out)
        assert report.repaired_to == out
        assert lint_clog2(out) == []
        assert fsck_path(out).format == "clog2-checksummed"

    def test_quarantine_preserves_damaged_bytes(self, tmp_path):
        path = truncated_copy(tmp_path, cut=25)
        with open(path, "rb") as fh:
            original = fh.read()
        out = str(tmp_path / "damage.quarantine")
        report = fsck_path(path, quarantine_to=out)
        assert report.quarantined_to == out
        with open(out, "rb") as fh:
            sidecar = fh.read()
        issue = report.issues[0]
        # Header line with provenance, then the exact damaged bytes.
        head, _, rest = sidecar.partition(b"\n")
        assert str(issue.start).encode() in head
        assert original[issue.start:issue.end] in rest


class TestCli:
    def test_exit_zero_on_clean(self, tmp_path, capsys):
        path = str(tmp_path / "ok.clog2")
        write_clog2(path, solo_log())
        assert mpe_main(["fsck", path]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_on_damage_with_json(self, tmp_path, capsys):
        path = truncated_copy(tmp_path)
        assert mpe_main(["fsck", path, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["truncation_only"] is True
        assert payload["issues"]
        assert payload["issues"][0]["kind"] == KIND_TRUNCATION

    def test_repair_flag_round_trip(self, tmp_path, capsys):
        path = truncated_copy(tmp_path)
        out = str(tmp_path / "fixed.clog2")
        assert mpe_main(["fsck", path, "--repair", out]) == 1
        assert os.path.exists(out)
        assert mpe_main(["fsck", out]) == 0
        capsys.readouterr()

    def test_perf_flag_writes_snapshot(self, tmp_path, capsys):
        path = truncated_copy(tmp_path)
        mpe_main(["fsck", path, "--perf"])
        capsys.readouterr()
        with open(path + ".fsck.perf.json") as fh:
            snap = json.load(fh)
        assert "fsck-scan" in snap["stages"]
