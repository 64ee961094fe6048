"""diff_traces library behaviour: fast paths, salvage notes, findings,
perf counters, renderers."""

import json

import pytest

from repro.mpe.clog2 import write_clog2
from repro.mpe.recovery import RecoveryReport
from repro.perf import PerfRecorder
from repro.pilotcheck.sarif import SarifEmitter
from repro.tracediff import TraceSide, diff_findings, diff_traces
from repro.tracediff.load import load_side

from tests.tracediff.builders import make_log, ping_pong, recv, send


def perturbed():
    """ping_pong with rank 2's reply in round 1 fattened (8 -> 64)."""
    recs = []
    for r in ping_pong():
        if (r.rank == 2 and getattr(r, "kind", None) == 0
                and r.tag == 101):
            r = send(r.timestamp, 2, 0, tag=101, size=64)
        elif (r.rank == 0 and getattr(r, "kind", None) == 1
                and r.other_rank == 2 and r.tag == 101):
            r = recv(r.timestamp, 0, 2, tag=101, size=64)
        recs.append(r)
    return recs


class TestDiffTraces:
    def test_equal_in_memory_logs_diff_empty(self):
        d = diff_traces(make_log(ping_pong()), make_log(ping_pong()))
        assert d.empty and not d.identical
        assert d.blamed_rank is None
        assert diff_findings(d) == []

    def test_byte_identical_files_fast_path(self, tmp_path):
        a, b = str(tmp_path / "a.clog2"), str(tmp_path / "b.clog2")
        log = make_log(ping_pong())
        write_clog2(a, log)
        write_clog2(b, log)
        d = diff_traces(a, b)
        assert d.identical and d.empty
        assert "byte-identical" in d.summary()

    def test_payload_fault_blames_origin_rank(self):
        d = diff_traces(make_log(ping_pong()), make_log(perturbed()),
                        label_a="good", label_b="bad")
        assert not d.empty
        assert d.blamed_rank == 2
        findings = diff_findings(d)
        assert findings[0].code == "DF001"
        assert findings[0].severity == "error"
        assert "rank 2" in findings[0].message

    def test_missing_input_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            diff_traces(str(tmp_path / "nope.clog2"),
                        str(tmp_path / "nope2.clog2"))

    def test_salvaged_side_reports_partial_alignment(self):
        report = RecoveryReport(source="torn.clog2")
        report.records_dropped = 5
        report.dropped_ranges.append((100, 200))
        side_b = TraceSide("torn", make_log(ping_pong()[:-4]), report)
        d = diff_traces(make_log(ping_pong()), side_b, label_a="good")
        assert d.partial
        assert any("dropped" in n for n in d.salvage_notes)
        codes = [f.code for f in diff_findings(d)]
        assert "DF006" in codes

    def test_findings_flood_capped_with_note(self):
        recs = ping_pong(rounds=10)
        # Drop every reply recv on rank 0: a flood of missing episodes.
        torn = [r for r in recs
                if not (r.rank == 0 and getattr(r, "kind", None) == 1)]
        d = diff_traces(make_log(recs), make_log(torn))
        findings = diff_findings(d, max_per_code=3)
        df002 = [f for f in findings if f.code == "DF002"]
        assert len(df002) == 4  # 3 episodes + 1 overflow summary
        assert "suppressed" in df002[-1].message

    def test_perf_counters_cover_all_stages(self, tmp_path):
        a, b = str(tmp_path / "a.clog2"), str(tmp_path / "b.clog2")
        write_clog2(a, make_log(ping_pong()))
        write_clog2(b, make_log(perturbed()))
        perf = PerfRecorder()
        diff_traces(a, b, perf=perf)
        snap = perf.snapshot()
        for stage in ("diff-load", "diff-align", "diff-score"):
            assert stage in snap["stages"], snap["stages"].keys()
        assert snap["stages"]["diff-load"]["records"] > 0

    def test_sarif_emitter_merges_batches(self):
        d = diff_traces(make_log(ping_pong()), make_log(perturbed()))
        findings = diff_findings(d)
        emitter = SarifEmitter()
        emitter.add(findings[:1], artifact="b.clog2")
        emitter.add(findings[1:], artifact="b.clog2")
        log = emitter.log()
        assert log["version"] == "2.1.0"
        assert len(log["runs"]) == 1
        assert len(log["runs"][0]["results"]) == len(findings)
        rules = {r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]}
        assert {"DF001", "DF002", "PC001", "TR001"} <= rules
        json.dumps(log)  # serializable

    def test_load_side_reads_salvage_partials(self, tmp_path):
        # A base path with only rankNNNN.part files still loads.
        from types import SimpleNamespace

        from repro.mpe.salvage import partial_path, write_partial

        base = str(tmp_path / "aborted.clog2")
        by_rank = {}
        for r in ping_pong(num_ranks=2):
            by_rank.setdefault(r.rank, []).append(r)
        for rank, recs in by_rank.items():
            ranklog = SimpleNamespace(records=recs,
                                      definitions=make_log([]).definitions,
                                      sync_points=[])
            write_partial(partial_path(base, rank), rank, ranklog, 1e-6)
        side = load_side(base, "aborted")
        assert side.log.records
        assert side.notes  # "no merged log; aligned N partial(s)"

    def test_partials_side_is_the_salvage_merge(self, tmp_path):
        # The in-memory merge is the salvage merge, minus the file: the
        # same log (clock-corrected, rank gap kept) and the same losses.
        from types import SimpleNamespace

        from repro.mpe.clocksync import SyncPoint
        from repro.mpe.salvage import (
            merge_partial_logs,
            partial_path,
            write_partial,
        )

        base = str(tmp_path / "aborted.clog2")
        by_rank = {}
        for r in ping_pong(num_ranks=4):
            by_rank.setdefault(r.rank, []).append(r)
        del by_rank[2]  # rank 2 left no partial
        for rank, recs in by_rank.items():
            ranklog = SimpleNamespace(
                records=recs, definitions=make_log([]).definitions,
                sync_points=[SyncPoint(0.0, 2e-4 * rank)])
            write_partial(partial_path(base, rank), rank, ranklog, 1e-6)
        before = sorted(tmp_path.iterdir())
        side = load_side(base, "aborted")
        assert sorted(tmp_path.iterdir()) == before  # nothing written
        merged, report = merge_partial_logs(
            base, str(tmp_path / "merged.clog2"), errors="salvage")
        assert side.log == merged
        assert side.report.missing_ranks == report.missing_ranks == [2]
        assert side.report.records_kept == report.records_kept
        assert side.report.records_kept == len(merged.records)


class TestDiffRenderers:
    @pytest.fixture()
    def diff(self):
        return diff_traces(make_log(ping_pong()), make_log(perturbed()),
                           label_a="good", label_b="bad")

    def test_ascii_overlay(self, diff):
        from repro.jumpshot import render_diff_ascii

        txt = render_diff_ascii(diff, width=90)
        assert "good vs bad" in txt
        assert "<- blamed" in txt
        assert "#" in txt  # payload glyph on a lane

    def test_svg_overlay(self, diff, tmp_path):
        from repro import jumpshot, slog2

        doc_a, _ = slog2.convert(make_log(ping_pong()))
        doc_b, _ = slog2.convert(make_log(perturbed()))
        out = str(tmp_path / "diff.svg")
        svg = jumpshot.render_diff_svg(doc_a, doc_b, diff, out)
        assert svg.startswith("<svg")
        assert svg.count("<svg") == 1  # panels embedded, not nested
        assert "diff verdict: rank 2 most likely at fault" in svg
        with open(out) as fh:
            assert fh.read() == svg

    def test_divergence_markers(self, diff):
        from repro.jumpshot import divergence_markers

        markers = divergence_markers(diff)
        kinds = {m.rank: m.kind for m in markers}
        assert kinds[2] == "blamed"
        assert all(k == "diverged" for r, k in kinds.items() if r != 2)
