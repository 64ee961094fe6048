"""The conformance matrix: every shipped program's observed net must
match its predicted net, and every known-divergent run must be blamed
on exactly the edge its defect lives on.

Three legs (mirrored by the CI ``net-conformance`` job):

* all shipped apps run conformance-clean;
* the paper's two buggy collision submissions diverge on the predicted
  edges (variant a reorders PI_MAIN's sends — MN005 on C2; variant b
  changes the protocol multiplicities — MN003 on every worker edge);
* a seeded rank crash truncates the victim's reply channel — MN003 and
  MN005 blame that edge and no other.
"""

import os

import pytest

from repro.apps import (
    GOOD,
    CollisionConfig,
    Lab2Config,
    Lab3Config,
    lab1_main,
    lab2_main,
    lab3_main,
)
from repro.apps.collisions import collisions_main
from repro.apps.collisions_buggy import (
    BUGGY_VARIANTS,
    fixture_config,
    write_diff_fixture,
)
from repro.apps.labs import DYNAMIC, STATIC
from repro.apps.thumbnail import ThumbnailConfig, thumbnail_main
from repro.mpnet import check_conformance, extract_static_net, extract_trace_net
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
from repro.pilotcheck import analyze_program
from repro.pilotlog.integration import JumpshotOptions
from repro.vmpi.faults import CrashFault, FaultPlan

SMALL = CollisionConfig(nrecords=400)

APPS = [
    ("lab1", lab1_main, 5),
    ("lab2", lambda argv: lab2_main(argv, Lab2Config()), 6),
    ("lab2-autoalloc",
     lambda argv: lab2_main(argv, Lab2Config(use_autoalloc=True)), 6),
    ("lab3-static",
     lambda argv: lab3_main(argv, STATIC, Lab3Config()), 6),
    ("lab3-dynamic",
     lambda argv: lab3_main(argv, DYNAMIC, Lab3Config()), 6),
    ("thumbnail",
     lambda argv: thumbnail_main(argv, ThumbnailConfig(nfiles=16)), 5),
    ("collisions",
     lambda argv: collisions_main(argv, GOOD, SMALL), 4),
]


def observed_net(main, nprocs, tmp_path, name="run"):
    path = str(tmp_path / f"{name}.clog2")
    res = run_pilot(main, nprocs, argv=("-pisvc=j",),
                    config=PilotConfig(mpe_log_path=path))
    assert res.ok
    return extract_trace_net(path)


class TestAppsConformanceClean:
    @pytest.mark.parametrize("name,main,nprocs", APPS,
                             ids=[a[0] for a in APPS])
    def test_observed_matches_predicted(self, tmp_path, name, main,
                                        nprocs):
        static = extract_static_net(analyze_program(main, nprocs))
        trace = observed_net(main, nprocs, tmp_path, name)
        findings = check_conformance(static, trace)
        assert findings == [], [f.render() for f in findings]


class TestBuggyCollisionsBlamed:
    """The paper's two buggy submissions against the GOOD prediction:
    both run to completion (no crash!) yet the net convicts them, and
    it names the communication pattern each bug actually breaks."""

    @pytest.fixture(scope="class")
    def static(self):
        cfg = fixture_config(nrecords=600)
        return extract_static_net(analyze_program(
            lambda argv: collisions_main(argv, GOOD, cfg), 4))

    def run_pair(self, tmp_path, variant):
        cfg = fixture_config(nrecords=600)
        return write_diff_fixture(str(tmp_path), variant, nprocs=4,
                                  config=cfg)

    @pytest.mark.parametrize("variant", BUGGY_VARIANTS)
    def test_good_run_is_clean(self, tmp_path, static, variant):
        good, _ = self.run_pair(tmp_path, variant)
        assert check_conformance(static, extract_trace_net(good)) == []

    def test_variant_a_order_divergence_on_c2(self, tmp_path, static):
        """Fig. 4's serialized query loop keeps every multiplicity but
        reorders PI_MAIN's sends: exactly one MN005, blaming C2."""
        _, buggy = self.run_pair(tmp_path, "a")
        findings = check_conformance(static, extract_trace_net(buggy))
        assert [f.code for f in findings] == ["MN005"]
        (f,) = findings
        assert f.cids == (2,)
        assert f.rank == 0
        assert "missing send on C2" in f.message

    def test_variant_b_multiplicity_mismatch_everywhere(self, tmp_path,
                                                        static):
        """Fig. 5's single-process parse changes how many messages each
        worker edge carries: MN003 on all six worker channels."""
        _, buggy = self.run_pair(tmp_path, "b")
        findings = check_conformance(static, extract_trace_net(buggy))
        mn003 = [f for f in findings if f.code == "MN003"]
        assert sorted(f.cids[0] for f in mn003) == [0, 1, 2, 3, 4, 5]
        # PI_MAIN's proven sequence diverges too (it is the culprit).
        assert any(f.code == "MN005" and f.rank == 0 for f in findings)


def crash_probe_app(rounds=16):
    """Each worker's reply count is carried over its control channel
    (the value-flow upgrade proves the whole net exactly); PI_MAIN
    drains the replies worker by worker, so a late crash of the second
    worker tears only its own reply edge."""

    def main(argv):
        chans = {}

        def work(i, _a):
            n = int(PI_Read(chans[f"to{i}"], "%d"))
            for k in range(n):
                PI_Write(chans[f"back{i}"], "%d", k)
            return 0

        PI_Configure(argv)
        procs = [PI_CreateProcess(work, i) for i in range(2)]
        for i, p in enumerate(procs):
            chans[f"to{i}"] = PI_CreateChannel(PI_MAIN, p)
            chans[f"back{i}"] = PI_CreateChannel(p, PI_MAIN)
        PI_StartAll()
        for i in range(2):
            PI_Write(chans[f"to{i}"], "%d", rounds)
        for i in range(2):
            for _ in range(rounds):
                PI_Read(chans[f"back{i}"], "%d")
        PI_StopMain(0)

    return main


class TestSeededCrashBlamesVictimEdge:
    def test_divergence_confined_to_victim_reply_channel(self, tmp_path):
        analysis = analyze_program(crash_probe_app(16), 3)
        assert analysis.notes == []  # carried bounds resolved
        static = extract_static_net(analysis)
        assert all(static.sequence_exact.values())

        base = str(tmp_path / "crash.clog2")
        plan = FaultPlan(seed=7, rules=(
            CrashFault(rank=2, at=8e-3, reason="injected rank failure"),))
        res = run_pilot(
            crash_probe_app(16), 3,
            config=PilotConfig(services="j", mpe_log_path=base, faults=plan,
                               mpe=JumpshotOptions(salvage=True,
                                                   salvage_interval=8)))
        assert res.aborted is not None  # the crash really aborted the run

        trace = extract_trace_net(base, errors="salvage")
        assert trace.notes  # salvage partials, honestly noted
        findings = check_conformance(static, trace)
        assert findings, "the torn run must not conform"
        # Every finding blames the victim's reply channel — C3, the
        # edge rank 2 writes — and nothing else.
        assert {cid for f in findings for cid in f.cids} == {3}
        codes = {f.code for f in findings}
        assert "MN003" in codes

    def test_fault_free_twin_conforms(self, tmp_path):
        static = extract_static_net(analyze_program(crash_probe_app(16), 3))
        base = str(tmp_path / "clean.clog2")
        res = run_pilot(
            crash_probe_app(16), 3,
            config=PilotConfig(services="j", mpe_log_path=base,
                               mpe=JumpshotOptions()))
        assert res.aborted is None
        assert check_conformance(static, extract_trace_net(base)) == []


class TestCodeRegistryDrift:
    """Every emitted conformance code must exist in the single-source
    registry with the MN family, and the SARIF rules must carry it."""

    def test_mn_codes_registered(self):
        from repro.pilotcheck.findings import FAMILIES, REGISTRY

        assert "MN" in FAMILIES
        mn = [c for c in REGISTRY if c.startswith("MN")]
        assert sorted(mn) == ["MN001", "MN002", "MN003", "MN004", "MN005"]

    def test_sarif_rules_cover_mn(self):
        import json

        from repro.pilotcheck.findings import Finding
        from repro.pilotcheck.sarif import SarifEmitter

        f = Finding("MN003", "send count 4 != proven 7", cids=(2,))
        doc = json.loads(SarifEmitter().add([f], artifact="x.clog2").json())
        run = doc["runs"][0]
        rules = {r["id"]: r for r in run["tool"]["driver"]["rules"]}
        assert rules["MN003"]["properties"]["family"] \
            == "MP net conformance"
        assert run["results"][0]["properties"]["channels"] == [2]


class TestArtifactsForCi:
    """The CI job renders the collisions nets; keep that path green."""

    def test_divergent_net_renders_all_formats(self, tmp_path):
        from repro.mpnet import render_net_svg, render_net_text, to_dot

        cfg = fixture_config(nrecords=600)
        static = extract_static_net(analyze_program(
            lambda argv: collisions_main(argv, GOOD, cfg), 4))
        _, buggy = write_diff_fixture(str(tmp_path), "a", nprocs=4,
                                      config=cfg)
        trace = extract_trace_net(buggy)
        findings = check_conformance(static, trace)
        text = render_net_text(static, findings)
        assert "<-- DIVERGES" in text
        dot = to_dot(static, findings)
        out = tmp_path / "net.svg"
        out.write_text(render_net_svg(static, findings, trace))
        assert "C2" in dot
        assert os.path.getsize(out) > 0
