"""lab1 (greetings) and lab3 (static vs dynamic work allocation)."""

import numpy as np
import pytest

from repro.apps import DYNAMIC, STATIC, Lab3Config, lab1_main, lab3_main
from repro.pilot import run_pilot


class TestLab1:
    def test_greetings_arrive_in_channel_order(self):
        res = run_pilot(lambda argv: lab1_main(argv, workers=4), 5)
        out = res.vmpi.results[0]
        assert out["greetings"] == [f"hello from worker {i}" for i in range(4)]

    def test_needs_enough_ranks(self):
        from repro.vmpi.errors import TaskFailed

        with pytest.raises(TaskFailed):
            run_pilot(lambda argv: lab1_main(argv, workers=4), 3)


class TestLab3:
    def run(self, scheme, cfg=Lab3Config()):
        res = run_pilot(lambda argv: lab3_main(argv, scheme, cfg),
                        cfg.workers + 1)
        assert res.ok
        return res

    def test_both_schemes_execute_every_task(self):
        for scheme in (STATIC, DYNAMIC):
            res = self.run(scheme)
            out = res.vmpi.results[0]
            assert out["total"] == Lab3Config().ntasks

    def test_static_split_is_round_robin(self):
        res = self.run(STATIC)
        out = res.vmpi.results[0]
        assert out["executed"] == [16, 16, 16, 16]  # 64 tasks / 4 workers

    def test_dynamic_counts_vary_with_load(self):
        res = self.run(DYNAMIC)
        out = res.vmpi.results[0]
        assert sum(out["executed"]) == 64
        # Workers that drew heavy tasks execute fewer of them.
        assert max(out["executed"]) > min(out["executed"])

    def test_dynamic_beats_static_on_skewed_bag(self):
        # The paper's suggestion: "switch from a static to a dynamic
        # work allocation scheme" (Section IV.B).
        static = self.run(STATIC)
        dynamic = self.run(DYNAMIC)
        assert dynamic.total_time < static.total_time * 0.85

    def test_equal_costs_make_schemes_comparable(self):
        cfg = Lab3Config(heavy_factor=1.0)  # perfectly uniform bag
        static = self.run(STATIC, cfg)
        dynamic = self.run(DYNAMIC, cfg)
        # Without skew, static allocation is fine (and avoids the
        # demand-signalling overhead).
        assert static.total_time <= dynamic.total_time * 1.10

    def test_bad_scheme_rejected(self):
        from repro.vmpi.errors import TaskFailed

        with pytest.raises(TaskFailed):
            run_pilot(lambda argv: lab3_main(argv, "magic"), 5)

    def test_task_costs_deterministic(self):
        assert np.array_equal(Lab3Config().task_costs(),
                              Lab3Config().task_costs())

    def test_imbalance_visible_in_the_log(self, tmp_path):
        """The whole point: the visual log exposes the imbalance."""
        from repro.jumpshot import View, imbalance_ratio, per_rank_load
        from repro.mpe import read_log
        from repro.pilot import PilotConfig
        from repro.slog2 import convert

        ratios = {}
        for scheme in (STATIC, DYNAMIC):
            path = str(tmp_path / f"{scheme}.clog2")
            cfg = Lab3Config()
            res = run_pilot(lambda argv: lab3_main(argv, scheme, cfg),
                            cfg.workers + 1, argv=("-pisvc=j",),
                            config=PilotConfig(mpe_log_path=path))
            assert res.ok
            doc, _ = convert(read_log(path).log)
            view = View(doc)
            ratios[scheme] = imbalance_ratio(per_rank_load(view))
        assert ratios[STATIC] > 1.5  # glaring in the timeline
        assert ratios[DYNAMIC] < ratios[STATIC]
        assert ratios[DYNAMIC] < 1.4  # close to even
