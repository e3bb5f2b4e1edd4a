"""Self-tests for the benchmark's own arithmetic and its BENCHMARK.json.

    python3 perfbench/run.py --selftest
    python3 -m pytest perfbench
"""

import json
import re
import statistics
import sys
import types
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # 100..1, unsorted on purpose
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7.0], 90), 7.0)

    def test_ten_samples_beyond_p90_need_100_samples(self):
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(99, 90), 9)
        self.assertEqual(stats.min_samples_for(90), 100)
        self.assertEqual(stats.min_samples_for(50), 20)
        self.assertEqual(stats.min_samples_for(99), 1000)

    def test_highest_supported_percentile(self):
        self.assertEqual(stats.highest_supported_percentile(100), 90.0)
        self.assertEqual(stats.highest_supported_percentile(99), 75.0)
        self.assertEqual(stats.highest_supported_percentile(1000), 99.0)
        self.assertEqual(stats.highest_supported_percentile(19), 0.0)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 0)

    def test_quartile_spread_uses_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.1, 9.9, 10.4]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.quartile_spread(values), (q3 - q1) / med)


class SelfTime(unittest.TestCase):
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 6]
    SPANS = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a1", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
    ]

    def test_nested_children(self):
        self.assertEqual(stats.self_times(self.SPANS), [6.0, 2.0, 1.0, 1.0])

    def test_self_times_add_up_to_the_root(self):
        self.assertAlmostEqual(sum(stats.self_times(self.SPANS)), 10.0)

    def test_overlapping_children_are_not_subtracted_twice(self):
        spans = [("p", 0.0, 10.0, -1), ("x", 1.0, 4.0, 0), ("y", 3.0, 6.0, 0)]
        self.assertEqual(stats.self_times(spans)[0], 5.0)

    def test_child_clipped_to_parent(self):
        spans = [("p", 0.0, 2.0, -1), ("late", 1.0, 3.0, 0)]
        self.assertEqual(stats.self_times(spans)[0], 1.0)


class ErrorRate(unittest.TestCase):
    def test_base_is_every_attempt(self):
        self.assertEqual(stats.error_rate(0, 148), 0.0)
        self.assertEqual(stats.error_rate(1, 4), 0.25)
        self.assertEqual(stats.error_rate(4, 4), 1.0)

    def test_rejects_bad_counts(self):
        with self.assertRaises(ValueError):
            stats.error_rate(0, 0)
        with self.assertRaises(ValueError):
            stats.error_rate(5, 4)


class SpeedScaling(unittest.TestCase):
    def test_trimmed_mean_drops_a_tenth_at_each_end(self):
        self.assertEqual(stats.trimmed_mean([1.0, 2.0, 3.0]), 2.0)  # 10% of 3 rounds down to 0
        self.assertEqual(stats.trimmed_mean([100.0] + [2.0] * 8 + [-50.0]), 2.0)
        self.assertEqual(stats.trimmed_mean(list(range(20)), 0.25), 9.5)
        with self.assertRaises(ValueError):
            stats.trimmed_mean([])

    def test_factor_is_nominal_over_trimmed_mean(self):
        self.assertAlmostEqual(stats.speed_factor([0.02, 0.03, 0.04], 0.03), 1.0)
        self.assertAlmostEqual(stats.speed_factor([9.0] + [0.06] * 8 + [0.0], 0.03), 0.5)
        with self.assertRaises(ValueError):
            stats.speed_factor([], 0.03)

    def test_end_to_end_scales_times_and_rates_but_not_memory(self):
        import run

        out = types.SimpleNamespace(
            latencies=[0.1] * 50 + [0.2] * 50, setup_s=[1.0, 2.0, 3.0], items=100, busy_s=20.0, peak_rss_mb=80.0
        )
        raw, half = run.end_to_end(out), run.end_to_end(out, 0.5)
        self.assertEqual(raw["latency_p50_ms"], (100.0, 100))
        self.assertEqual(raw["latency_p90_ms"], (200.0, 100))
        self.assertEqual(raw["setup_s"], (2.0, 3))
        self.assertEqual(raw["items_per_s"], (5.0, 100))
        self.assertEqual(half["latency_p50_ms"], (50.0, 100))
        self.assertEqual(half["latency_p90_ms"], (100.0, 100))
        self.assertEqual(half["setup_s"], (1.0, 3))
        self.assertEqual(half["items_per_s"], (10.0, 100))
        self.assertEqual(half["peak_rss_mb"], raw["peak_rss_mb"])


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchmarkSpec(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_shape(self):
        s = self.spec
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        names = [x["name"] for k in ("workloads", "end_to_end", "per_layer") for x in s[k]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_setup_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        self.assertEqual((e2e["setup_s"]["unit"], e2e["setup_s"]["better"]), ("s", "lower"))
        self.assertEqual(e2e["setup_s"]["bound"], max(m["bound"] for m in e2e.values()))

    def test_workload_names_match_the_runner(self):
        import run

        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]), run.WORKLOAD_NAMES)


if __name__ == "__main__":
    unittest.main()
