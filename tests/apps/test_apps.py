"""The three Pilot applications: correctness and timeline shape."""

import numpy as np
import pytest

from repro.apps import (
    GOOD,
    INSTANCE_A,
    INSTANCE_B,
    CollisionConfig,
    Lab2Config,
    ThumbnailConfig,
    collisions_main,
    lab2_main,
    thumbnail_main,
)
from repro.pilot import PilotConfig, run_pilot

SMALL_COLLISIONS = CollisionConfig(nrecords=2000)


class TestLab2:
    def test_grand_total_correct(self):
        res = run_pilot(lab2_main, 6)
        out = res.vmpi.results[0]
        assert out["total"] == out["expected"]
        assert len(out["subtotals"]) == 5

    def test_uneven_division_last_worker_gets_remainder(self):
        cfg = Lab2Config(workers=3, num=100)  # 33 + 33 + 34
        res = run_pilot(lambda argv: lab2_main(argv, cfg), 4)
        out = res.vmpi.results[0]
        assert out["total"] == out["expected"]

    def test_autoalloc_variant_same_answer(self):
        res = run_pilot(lambda argv: lab2_main(argv, Lab2Config(
            use_autoalloc=True)), 6)
        out = res.vmpi.results[0]
        assert out["total"] == out["expected"]

    def test_total_under_three_ms(self):
        # Fig. 3: "Total execution time is under 3 ms."
        res = run_pilot(lab2_main, 6)
        assert res.total_time < 3e-3

    def test_needs_enough_processes(self):
        from repro.vmpi.errors import TaskFailed

        with pytest.raises(TaskFailed):
            run_pilot(lab2_main, 3)  # 5 workers cannot fit


class TestThumbnail:
    def test_declared_kernel_processes_all_files(self):
        cfg = ThumbnailConfig(nfiles=40)
        res = run_pilot(lambda argv: thumbnail_main(argv, cfg), 6)
        out = res.vmpi.results[0]
        assert out["thumbs"] == 40
        assert out["decompressors"] == 4
        # Workers return their processed counts; they partition the work.
        dec_counts = [res.vmpi.results[r] for r in range(2, 6)]
        assert sum(dec_counts) == 40

    def test_real_kernel_produces_real_thumbnails(self):
        cfg = ThumbnailConfig(nfiles=5, kernel="real")
        res = run_pilot(lambda argv: thumbnail_main(argv, cfg), 5)
        out = res.vmpi.results[0]
        assert out["thumbs"] == 5
        assert out["out_bytes"] > 0

    def test_scaling_with_more_decompressors(self):
        # "The application scales by adding additional data parallel D
        # processes" (Section III.D).
        cfg = ThumbnailConfig(nfiles=60)
        slow = run_pilot(lambda argv: thumbnail_main(argv, cfg), 4)  # 2 D
        fast = run_pilot(lambda argv: thumbnail_main(argv, cfg), 8)  # 6 D
        assert fast.total_time < slow.total_time / 2

    def test_compressor_is_single_and_shared(self):
        cfg = ThumbnailConfig(nfiles=30)
        res = run_pilot(lambda argv: thumbnail_main(argv, cfg), 6)
        assert res.vmpi.results[1] == 30  # rank 1 is C; sees every file

    def test_needs_two_workers(self):
        from repro.vmpi.errors import TaskFailed

        cfg = ThumbnailConfig(nfiles=4)
        with pytest.raises(TaskFailed):
            run_pilot(lambda argv: thumbnail_main(argv, cfg), 2)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ThumbnailConfig(kernel="imaginary")
        with pytest.raises(ValueError):
            ThumbnailConfig(nfiles=0)

    def test_deterministic(self):
        cfg = ThumbnailConfig(nfiles=25)
        r1 = run_pilot(lambda argv: thumbnail_main(argv, cfg), 5)
        r2 = run_pilot(lambda argv: thumbnail_main(argv, cfg), 5)
        assert r1.total_time == r2.total_time

    def test_stage_states_subdivide_decompressor_work(self, tmp_path):
        from repro.mpe import read_log
        from repro.slog2 import compute_stats, convert

        cfg = ThumbnailConfig(nfiles=20, stage_states=True)
        path = str(tmp_path / "st.clog2")
        res = run_pilot(lambda argv: thumbnail_main(argv, cfg), 5,
                        argv=("-pisvc=j",),
                        config=PilotConfig(mpe_log_path=path))
        assert res.ok
        doc, report = convert(read_log(path).log)
        assert report.clean, report.summary()
        stats = compute_stats(doc)
        assert stats["decode"].count == 20
        assert stats["crop+downsample"].count == 20
        # decode dominates the stage split 85:15.
        ratio = stats["decode"].incl / stats["crop+downsample"].incl
        assert ratio == pytest.approx(0.85 / 0.15, rel=0.1)
        # Stage states nest inside Compute: depth 1.
        assert all(s.depth == 1 for s in doc.states_of("decode"))


class TestCollisions:
    @pytest.mark.parametrize("variant", [GOOD, INSTANCE_A, INSTANCE_B])
    def test_all_variants_correct(self, variant):
        # "These were not 'bugs' in the sense of causing incorrect
        # results" (Section IV.B): every variant computes the same
        # answers.
        res = run_pilot(lambda argv: collisions_main(argv, variant,
                                                     SMALL_COLLISIONS), 5)
        out = res.vmpi.results[0]
        for name, expected in out["expected"].items():
            assert np.array_equal(out["results"][name], expected), name

    def test_instance_a_serialises_queries(self):
        good = run_pilot(lambda argv: collisions_main(
            argv, GOOD, SMALL_COLLISIONS), 6)
        bad = run_pilot(lambda argv: collisions_main(
            argv, INSTANCE_A, SMALL_COLLISIONS), 6)
        # Same reading phase; queries serialised vs parallel.
        assert bad.total_time > good.total_time * 1.3

    def test_instance_b_dominated_by_main_init(self):
        cfg = SMALL_COLLISIONS
        b = run_pilot(lambda argv: collisions_main(argv, INSTANCE_B, cfg), 6)
        # Fig. 5: ~11 s of single-process initialisation dominates.
        assert b.total_time > 10.0
        good = run_pilot(lambda argv: collisions_main(argv, GOOD, cfg), 6)
        assert good.total_time < b.total_time / 4

    def test_instance_b_insensitive_to_worker_count(self):
        # "the total run time always stayed nearly the same".
        cfg = SMALL_COLLISIONS
        few = run_pilot(lambda argv: collisions_main(argv, INSTANCE_B, cfg), 4)
        many = run_pilot(lambda argv: collisions_main(argv, INSTANCE_B, cfg), 9)
        assert many.total_time == pytest.approx(few.total_time, rel=0.15)

    def test_good_scales_with_workers(self):
        cfg = SMALL_COLLISIONS
        few = run_pilot(lambda argv: collisions_main(argv, GOOD, cfg), 3)
        many = run_pilot(lambda argv: collisions_main(argv, GOOD, cfg), 9)
        assert many.total_time < few.total_time

    def test_unknown_variant(self):
        from repro.vmpi.errors import TaskFailed

        with pytest.raises(TaskFailed):
            run_pilot(lambda argv: collisions_main(argv, "instance_c"), 3)
