#!/usr/bin/env python3
"""Self-tests of the benchmark's statistics, trace arithmetic, comparison
rules and metric catalogue.

    python3 perfbench/test_benchlib.py
"""

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402


def span(sid, name, start, end, parent=-1, tid=0):
    return {"id": sid, "name": name, "start": float(start), "end": float(end),
            "parent": parent, "tid": tid}


def runs(values, seeds=None, failed=0):
    seeds = seeds if seeds is not None else list(range(1, len(values) + 1))
    return [(s, v, failed) for s, v in zip(seeds, values)]


class SummaryTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        s = benchlib.summarize([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(s["median"], 5.5)
        self.assertAlmostEqual(s["q1"], 2.75)
        self.assertAlmostEqual(s["q3"], 8.25)

    def test_single_sample_is_its_own_quartiles(self):
        self.assertEqual(benchlib.summarize([3.0]),
                         {"median": 3.0, "q1": 3.0, "q3": 3.0})

    def test_relative_spread(self):
        self.assertAlmostEqual(
            benchlib.relative_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
            5.5 / 5.5)
        self.assertEqual(benchlib.relative_spread([2.0, 2.0, 2.0]), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        st = benchlib.self_times([span(0, "a", 10, 25)])
        self.assertEqual(st[0], 15)

    def test_children_are_subtracted(self):
        spans = [span(0, "train", 0, 100), span(1, "fwd", 10, 30, parent=0),
                 span(2, "bwd", 40, 70, parent=0)]
        st = benchlib.self_times(spans)
        self.assertEqual(st[0], 100 - 20 - 30)
        self.assertEqual(st[1], 20)
        self.assertEqual(st[2], 30)

    def test_overlapping_children_count_once(self):
        # Children on other threads may overlap each other; the covered
        # part of the parent is their union, not their sum.
        spans = [span(0, "sweep", 0, 100), span(1, "p", 10, 60, parent=0, tid=1),
                 span(2, "p", 40, 80, parent=0, tid=2)]
        self.assertEqual(benchlib.self_times(spans)[0], 100 - 70)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, "a", 0, 50), span(1, "b", 40, 90, parent=0)]
        self.assertEqual(benchlib.self_times(spans)[0], 40)

    def test_grandchildren_do_not_reduce_the_grandparent_twice(self):
        spans = [span(0, "a", 0, 100), span(1, "b", 0, 60, parent=0),
                 span(2, "c", 0, 50, parent=1)]
        st = benchlib.self_times(spans)
        self.assertEqual(st[0], 40)
        self.assertEqual(st[1], 10)
        self.assertEqual(st[2], 50)

    def test_flat_table_orders_by_self_time(self):
        spans = [span(0, "train", 0, 100), span(1, "fwd", 0, 30, parent=0),
                 span(2, "fwd", 30, 90, parent=0)]
        table = benchlib.flat_table(spans)
        self.assertEqual(table[0][0], "fwd")
        self.assertEqual(table[0][1], 2)
        self.assertAlmostEqual(table[0][2], 90e-6)
        self.assertAlmostEqual(table[1][3], 10e-6)


class SpanMetricsTest(unittest.TestCase):
    def test_design_metrics_from_spans(self):
        s = 1e6  # one second in trace microseconds
        spans = [
            span(0, "gen.replay", 0, 10 * s),
            span(1, "nn.train_base_plain", 0, 4 * s, parent=0),
            span(2, "nn.fwd.conv", 0, 1 * s, parent=1),
            span(3, "nn.bwd.conv", 1 * s, 3 * s, parent=1),
            span(4, "gen.sweep", 6 * s, 10 * s, parent=0),
            span(5, "gen.point", 6 * s, 9 * s, tid=1),
            span(6, "gen.point", 6 * s, 8 * s, tid=2),
        ]
        m = benchlib.span_metrics(spans, workers=2)
        self.assertAlmostEqual(m["nn.train_base_plain_s"][0], 4.0)
        self.assertAlmostEqual(m["nn.fwd.conv_s"][0], 1.0)
        self.assertEqual(m["nn.bwd.conv_calls"][0], 1.0)
        self.assertAlmostEqual(m["nn.train_other_s"][0], 1.0)
        self.assertAlmostEqual(m["gen.serial_prefix_s"][0], 6.0)
        self.assertAlmostEqual(m["pool.sweep_wall_s"][0], 4.0)
        self.assertAlmostEqual(m["pool.busy_s"][0], 5.0)
        self.assertAlmostEqual(m["pool.utilization"][0], 5.0 / 8.0)
        self.assertAlmostEqual(m["gen.point_wall_max_s"][0], 3.0)
        self.assertNotIn("nn.fwd.linear_calls", m)

    def test_absent_spans_give_no_metric(self):
        # A layer the run never entered is missing, not 0, so run.py can
        # tell a live layer that lost its spans from a bypassed one.
        m = benchlib.span_metrics([span(0, "nn.eval", 0, 5)], workers=1)
        self.assertEqual(set(m), {"nn.eval_s"})


class PerLayerReportTest(unittest.TestCase):
    wanted = [{"name": "a_s", "unit": "s"}, {"name": "b_s", "unit": "s"}]

    def test_bypassed_layer_reads_zero(self):
        out = benchlib.per_layer_report(self.wanted, {"a_s": {"median": 2.0}},
                                        live={"a_s"})
        self.assertEqual(out, {"a_s": (2.0, "s"), "b_s": (0.0, "s")})

    def test_missing_live_metric_fails(self):
        with self.assertRaises(ValueError) as e:
            benchlib.per_layer_report(self.wanted, {"a_s": {"median": 2.0}},
                                      live={"a_s", "b_s"})
        self.assertIn("b_s", str(e.exception))

    def test_chrome_trace_round_trip(self):
        doc = {"traceEvents": [
            {"name": "a", "ph": "X", "ts": 1.0, "dur": 9.0, "pid": 1, "tid": 0,
             "args": {"id": 0, "parent": -1, "arg": -1}},
            {"name": "b", "ph": "X", "ts": 2.0, "dur": 3.0, "pid": 1, "tid": 0,
             "args": {"id": 1, "parent": 0, "arg": -1}}]}
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            json.dump(doc, f)
        try:
            spans = benchlib.load_chrome_trace(f.name)
        finally:
            os.unlink(f.name)
        self.assertEqual(benchlib.self_times(spans), {0: 6.0, 1: 3.0})


class VerdictTest(unittest.TestCase):
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_same_distribution_is_unchanged(self):
        v, _ = benchlib.verdict(runs(self.base), runs(self.base), 0.1, "lower")
        self.assertEqual(v, "unchanged")

    def test_worse_beyond_bound(self):
        change = [x * 1.2 for x in self.base]
        v, _ = benchlib.verdict(runs(self.base), runs(change), 0.1, "lower")
        self.assertEqual(v, "worse")

    def test_worse_within_bound_is_unchanged(self):
        change = [x * 1.05 for x in self.base]
        v, _ = benchlib.verdict(runs(self.base), runs(change), 0.1, "lower")
        self.assertEqual(v, "unchanged")

    def test_higher_is_better_direction(self):
        change = [x * 0.8 for x in self.base]
        v, _ = benchlib.verdict(runs(self.base), runs(change), 0.1, "higher")
        self.assertEqual(v, "worse")
        v, _ = benchlib.verdict(runs(self.base), runs(change), 0.1, "lower")
        self.assertEqual(v, "improved")

    def test_improved_needs_nine_tenths_of_pairs(self):
        change = [x * 0.9 for x in self.base]
        v, _ = benchlib.verdict(runs(self.base), runs(change), 0.1, "lower")
        self.assertEqual(v, "improved")
        mixed = change[:8] + [200, 200]
        v, _ = benchlib.verdict(runs(self.base), runs(mixed), 0.5, "lower")
        self.assertEqual(v, "unchanged")

    def test_improved_needs_ten_pairs(self):
        change = [x * 0.9 for x in self.base[:5]]
        v, _ = benchlib.verdict(runs(self.base[:5]), runs(change), 0.1,
                                "lower")
        self.assertEqual(v, "unchanged")

    def test_gap_must_exceed_base_spread(self):
        noisy = [80, 120, 90, 110, 85, 115, 95, 105, 100, 100]
        change = [x - 1 for x in noisy]
        v, _ = benchlib.verdict(runs(noisy), runs(change), 0.5, "lower")
        self.assertEqual(v, "unchanged")

    def test_wide_spread_is_unresolved(self):
        noisy = [50, 150, 60, 140, 70, 130, 80, 120, 90, 110]
        v, _ = benchlib.verdict(runs(noisy), runs(noisy), 0.1, "lower")
        self.assertEqual(v, "unresolved")

    def test_wide_spread_but_every_run_better_is_improved(self):
        noisy = [50, 150, 60, 140, 70, 130, 80, 120, 90, 110]
        change = [x / 10 for x in noisy]
        v, _ = benchlib.verdict(runs(noisy), runs(change), 0.1, "lower")
        self.assertEqual(v, "improved")

    def test_more_failures_void_a_gain(self):
        change = [x * 0.9 for x in self.base]
        v, _ = benchlib.verdict(runs(self.base), runs(change, failed=1), 0.1,
                                "lower")
        self.assertEqual(v, "unchanged")

    def test_pairs_by_seed_when_seeds_match(self):
        base = runs([1, 2, 3], seeds=[7, 8, 9])
        change = runs([30, 10, 20], seeds=[9, 7, 8])
        self.assertEqual(benchlib.pairs(base, change),
                         [(3, 30), (1, 10), (2, 20)])

    def test_pairs_by_position_otherwise(self):
        base = runs([1, 2], seeds=[1, 2])
        change = runs([5, 6], seeds=[3, 4])
        self.assertEqual(benchlib.pairs(base, change), [(1, 5), (2, 6)])

    def test_missing_side_is_unresolved(self):
        v, _ = benchlib.verdict([], runs(self.base), 0.1, "lower")
        self.assertEqual(v, "unresolved")


class ExactVerdictTest(unittest.TestCase):
    def test_identical_per_seed(self):
        v, _ = benchlib.exact_verdict(runs([1.3, 23.8]), runs([1.3, 23.8]),
                                      0.05, "lower")
        self.assertEqual(v, "unchanged")

    def test_paired_by_seed_improvement(self):
        v, _ = benchlib.exact_verdict(runs([1.3, 23.8, 2.0]),
                                      runs([1.2, 1.5, 1.9]), 0.05, "lower")
        self.assertEqual(v, "improved")

    def test_paired_regression(self):
        v, _ = benchlib.exact_verdict(runs([90.0, 92.0]), runs([80.0, 81.0]),
                                      0.05, "higher")
        self.assertEqual(v, "worse")


class CatalogueTest(unittest.TestCase):
    """BENCHMARK.json and layers.json describe the same metrics."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        with open(os.path.join(HERE, "layers.json")) as f:
            cls.layers = json.load(f)

    def test_every_layer_metric_has_a_move_entry(self):
        mapped = {m for e in self.layers["layer_moves"] for m in e["metrics"]}
        names = {m["name"] for m in self.bench["per_layer"]}
        self.assertEqual(mapped, names)

    def test_moves_name_real_workloads_and_metrics(self):
        workloads = {w["name"] for w in self.bench["workloads"]}
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        for entry in self.layers["layer_moves"]:
            for wl, metric in entry["moves"]:
                self.assertIn(wl, workloads)
                self.assertIn(metric, e2e)

    def test_every_workload_is_documented(self):
        for w in self.bench["workloads"]:
            doc = self.layers["workloads"][w["name"]]
            for key in ("why", "exercises", "bypasses"):
                self.assertTrue(doc[key])
            for m in self.bench["end_to_end"]:
                if m["name"] != "peak_rss_mb":
                    self.assertIn(m["name"], doc)

    def test_live_layer_metrics_exist(self):
        names = {m["name"] for m in self.bench["per_layer"]}
        for wl, metrics in self.layers["live_layer_metrics"].items():
            self.assertTrue(set(metrics) <= names, wl)

    def test_span_metrics_are_catalogued(self):
        names = {m["name"] for m in self.bench["per_layer"]}
        every = ["gen.replay", "gen.sweep", "gen.point"]
        every += list(benchlib.SPAN_SUMS.values())
        every += ["nn.%s.%s" % (d, k) for d in ("fwd", "bwd")
                  for k in benchlib.LAYER_KINDS]
        spans = [span(i, n, i, i + 1) for i, n in enumerate(every)]
        derived = set(benchlib.span_metrics(spans, 1))
        self.assertIn("pool.utilization", derived)
        self.assertIn("nn.train_other_s", derived)
        self.assertTrue(derived <= names)

    def test_named_metrics_are_judged_once(self):
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        for m in self.layers["named_metrics"]:
            self.assertNotIn(m["name"], e2e)
            if "alias_of" in m:
                self.assertIn(m["alias_of"], e2e)
                for key in ("bound", "better", "kind"):
                    self.assertNotIn(key, m, m["name"])
            else:
                self.assertIn(m["kind"], ("host", "sim"))
        specs = benchlib.metric_specs(self.bench, self.layers)
        keys = [(s["workload"], s["name"]) for s in specs]
        self.assertEqual(len(keys), len(set(keys)))
        aliases = {m["name"] for m in self.layers["named_metrics"]
                   if "alias_of" in m}
        self.assertFalse(aliases & {name for _, name in keys})
        for s in specs:
            if s["name"] in e2e:
                bench = next(m for m in self.bench["end_to_end"]
                             if m["name"] == s["name"])
                self.assertEqual(s["bound"], bench["bound"])

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


if __name__ == "__main__":
    unittest.main()
