"""Tests for the benchmark's own arithmetic: python3 hostbench/test_stats.py"""

import json
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


class MedianQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        self.assertEqual(stats.quartiles(values), (2.75, 5.5, 8.25))
        self.assertEqual(list(stats.quartiles(values)), statistics.quantiles(values, n=4))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(stats.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), 5.5 / 5.5)
        self.assertEqual(stats.spread([7.0] * 10), 0.0)

    def test_single_value(self):
        self.assertEqual(stats.quartiles([4.0]), (4.0, 4.0, 4.0))


class Percentiles(unittest.TestCase):
    def test_nearest_rank_with_count(self):
        values = list(range(1, 101))  # 1..100
        p50 = stats.percentile(values, 50)
        self.assertEqual((p50.value, p50.n, p50.beyond), (50, 100, 50))
        p99 = stats.percentile(values, 99)
        self.assertEqual((p99.value, p99.n, p99.beyond), (99, 100, 1))
        self.assertFalse(stats.resolved(p99))
        self.assertTrue(stats.resolved(p50))

    def test_p99_needs_a_thousand_samples(self):
        self.assertFalse(stats.resolved(stats.percentile(list(range(999)), 99)))
        self.assertTrue(stats.resolved(stats.percentile(list(range(1000)), 99)))

    def test_unsorted_input_and_empty(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 50).value, 3)
        self.assertEqual(stats.percentile([], 99), stats.Percentile(0.0, 0, 0))


class Spans(unittest.TestCase):
    # exec [0, 100) with children mutate [10, 30) and run [40, 90).
    SPANS = {
        "name": [0, 1, 2],
        "parent": [-1, 0, 0],
        "start_ns": [0, 10, 40],
        "end_ns": [100, 30, 90],
    }

    def test_durations_in_us(self):
        self.assertEqual(stats.durations(self.SPANS, 2), [0.05])

    def test_self_time_subtracts_children(self):
        self.assertEqual(stats.self_times(self.SPANS), [30, 20, 50])


class ReferenceScaling(unittest.TestCase):
    def test_slowdown_cancels(self):
        # The same 2 s of work on a machine 1x, 1.3x and 0.8x as slow.
        times = [2.0, 2.6, 1.6]
        refs = [0.010, 0.013, 0.008]
        self.assertAlmostEqual(stats.scaled_median(times, refs, 0.005), 1.0)

    def test_median_over_samples(self):
        self.assertAlmostEqual(stats.scaled_median([1.0, 3.0, 10.0], [1.0, 1.0, 1.0], 2.0), 6.0)

    def test_lengths_must_match(self):
        with self.assertRaises(ValueError):
            stats.scaled_median([1.0, 2.0], [1.0], 1.0)


class CostAccount(unittest.TestCase):
    def test_unattributed_share(self):
        per_call = {"mutate": 5.0, "run_root": 20.0, "merge": 2.0, "pick": 1.0}
        calls = {"mutate": 1.0, "run_root": 1.0, "merge": 1.0, "pick": 0.02}
        attributed, share = stats.cost_account(per_call, calls, 30.0)
        self.assertAlmostEqual(attributed, 27.02)
        self.assertAlmostEqual(share, 1 - 27.02 / 30.0)

    def test_over_account_is_negative(self):
        _, share = stats.cost_account({"run": 40.0}, {"run": 1.0}, 30.0)
        self.assertLess(share, 0)

    def test_calls_without_a_rate_are_ignored(self):
        # A per-call figure with no call count (probe-only layers nested in
        # the engine run) must not enter the sum.
        attributed, _ = stats.cost_account({"run": 10.0, "restore": 5.0}, {"run": 1.0}, 20.0)
        self.assertEqual(attributed, 10.0)


class Definitions(unittest.TestCase):
    def test_benchmark_json_matches_predictions(self):
        root = os.path.dirname(HERE)
        path = os.path.join(root, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json next to the benchmark")
        with open(path) as f:
            bench = json.load(f)
        with open(os.path.join(HERE, "predictions.json")) as f:
            pred = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in bench["per_layer"]],
            [(m["name"], m["unit"]) for m in pred["per_layer"]],
        )
        self.assertEqual([w["name"] for w in bench["workloads"]], list(pred["workloads"]))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in bench["end_to_end"]],
            [(k, v["unit"]) for k, v in pred["end_to_end"].items()],
        )


if __name__ == "__main__":
    unittest.main()
