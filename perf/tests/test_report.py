"""Quartiles, verdicts and metric checks of perf/report.py."""
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import report  # noqa: E402


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles_exclusive(self):
        # statistics.quantiles(n=4), default 'exclusive' method: positions
        # (n+1)*k/4, interpolated.
        self.assertEqual(report.quartiles([1, 2, 3, 4, 5]), (1.5, 3, 4.5))
        self.assertEqual(report.quartiles([10, 20, 30, 40]), (12.5, 25, 37.5))
        self.assertEqual(report.quartiles([7]), (7, 7, 7))

    def test_spread_is_quartile_distance_over_median(self):
        self.assertAlmostEqual(report.spread([1, 2, 3, 4, 5]), 1.0)
        self.assertEqual(report.spread([5, 5, 5]), 0.0)


def around(center):
    return [center, center + 1, center - 1, center, center]


class Verdicts(unittest.TestCase):
    A = around(100)  # quartile distance 1

    def verdict(self, b, better="lower", a=None):
        return report.verdict(self.A if a is None else a, b, better, 0.1)

    def test_unchanged_within_bound(self):
        self.assertEqual(self.verdict(around(100)), "unchanged")
        # Slower, but by less than the bound.
        self.assertEqual(self.verdict(around(105)), "unchanged")

    def test_worse_beyond_bound(self):
        self.assertEqual(self.verdict(around(115)), "worse")
        self.assertEqual(self.verdict(around(85), "higher"), "worse")

    def test_improved_beyond_parent_spread(self):
        self.assertEqual(self.verdict(around(95)), "improved")
        self.assertEqual(self.verdict(around(105), "higher"), "improved")

    def test_wide_spread_is_unresolved(self):
        wide = [60, 140, 80, 120, 100]
        self.assertEqual(self.verdict(wide), "unresolved")
        self.assertEqual(self.verdict(self.A, a=wide), "unresolved")

    def test_wide_spread_still_decides_when_every_run_wins(self):
        wide_low = [10, 40, 20, 30, 25]
        self.assertEqual(self.verdict(wide_low), "improved")
        self.assertEqual(self.verdict(wide_low, "higher"), "worse")


class CompareFiles(unittest.TestCase):
    def write_run(self, d, name, value):
        path = os.path.join(d, name)
        metrics = {"latency_p50_ms": {"value": value, "unit": "ms"},
                   "net.send_us_p50": {"value": value, "unit": "us"}}
        with open(path, "w") as f:
            json.dump({"workloads": {"w": {"metrics": metrics}}}, f)
        return path

    def test_counts_worse_metrics_and_labels_per_layer(self):
        bench = {"end_to_end": [{"name": "latency_p50_ms", "unit": "ms",
                                 "better": "lower", "bound": 0.1}]}
        with tempfile.TemporaryDirectory() as d:
            a = [self.write_run(d, f"a{i}.json", 10 + i / 100)
                 for i in range(3)]
            b = [self.write_run(d, f"b{i}.json", 20 + i / 100)
                 for i in range(3)]
            out = io.StringIO()
            self.assertEqual(report.compare(bench, a, b, out), 1)
        text = out.getvalue()
        self.assertIn("latency_p50_ms", text)
        self.assertIn("worse", text)
        self.assertIn("per-layer (no bound)", text)


class Merge(unittest.TestCase):
    def test_reports_metrics_missing_for_the_mode(self):
        bench = {"end_to_end": [{"name": "setup_s"}],
                 "per_layer": [{"name": "net.send_us_p50"},
                               {"name": "core.eta"}]}
        run = {"workloads": {
            "a": {"trace": False, "metrics": {"setup_s": {}}},
            "b": {"trace": True, "metrics": {"core.eta": {}}}}}
        self.assertEqual(report.missing_metrics(bench, run),
                         ["b: net.send_us_p50"])


if __name__ == "__main__":
    unittest.main()
