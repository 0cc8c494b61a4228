"""Tests of the benchmark's own arithmetic and checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


class HighPercentileTest(unittest.TestCase):
    def test_leaves_exactly_ten_samples_beyond(self):
        values = list(range(1, 101))
        pct, value = stats.high_percentile(values)
        self.assertEqual((pct, value), (90.0, 90))
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_order_of_input_does_not_matter(self):
        self.assertEqual(stats.high_percentile(list(range(1000, 0, -1))), (99.0, 990))

    def test_needs_more_than_ten_samples(self):
        self.assertIsNone(stats.high_percentile([1.0] * 10))
        pct, value = stats.high_percentile([float(v) for v in range(11)])
        self.assertAlmostEqual(pct, 100 / 11)
        self.assertEqual(value, 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_tree(self):
        # root [0, 10] > a [1, 4], b [5, 9] > c [6, 7]
        starts = [0.0, 1.0, 5.0, 6.0]
        ends = [10.0, 4.0, 9.0, 7.0]
        parents = [-1, 0, 0, 2]
        self.assertEqual(list(stats.self_times(starts, ends, parents)), [3.0, 3.0, 3.0, 1.0])

    def test_overlapping_and_overhanging_children_count_once(self):
        # parent [0, 10]; children [1, 5] and [3, 8] overlap; [9, 12] overhangs
        starts = [0.0, 1.0, 3.0, 9.0]
        ends = [10.0, 5.0, 8.0, 12.0]
        parents = [-1, 0, 0, 0]
        self.assertEqual(stats.self_times(starts, ends, parents)[0], 10.0 - 7.0 - 1.0)

    def test_child_inside_an_earlier_sibling_adds_nothing(self):
        starts = [0.0, 1.0, 2.0]
        ends = [10.0, 6.0, 4.0]
        parents = [-1, 0, 0]
        self.assertEqual(stats.self_times(starts, ends, parents)[0], 5.0)


class FailedFracTest(unittest.TestCase):
    def test_counts_each_failure_kind_once_per_operation(self):
        ok_row = "instance,budget,importance,runs,mean,variance,rel_variance,stderr,exact\nx,5,f2,4,3.0,1.0,0.1,0.5,\n"
        other = ok_row.replace("3.0", "3.5")
        failures = [
            workloads.invocation_failures(0, ok_row, ""),
            workloads.invocation_failures(3, "", "resource cap exceeded"),
            workloads.invocation_failures(1, "FAIL  golden fixtures (4 instances)\n", ""),
            workloads.mismatch_failures(other, ok_row),
            workloads.invocation_failures(1, "", "Traceback (most recent call last):\n  ...\n"),
        ]
        self.assertEqual(failures[0], [])
        self.assertEqual(failures[1], ["exit code 3"])
        self.assertEqual(failures[2], ["exit code 1", "FAIL line"])
        self.assertEqual(len(failures[3]), 1)
        self.assertIn("mean 3.5 vs 3.0", failures[3][0])
        self.assertEqual(failures[4], ["exit code 1", "traceback"])
        self.assertEqual(stats.failed_frac(failures), 4 / 5)

    def test_mean_outside_tolerance_fails(self):
        row = "instance,budget,importance,runs,mean,variance,rel_variance,stderr,exact\nx,1,uniform,9,100.0,1,1,1.0,{}\n"
        self.assertEqual(workloads.estimate_failures(row.format(107), 107), [])
        self.assertIn("9.0 stderr below", workloads.estimate_failures(row.format(109), 109)[0])
        self.assertIn("!= reference count", workloads.estimate_failures(row.format(104), 105)[0])

    def test_only_the_wide_multi_worker_mismatch_is_the_known_defect(self):
        row = "instance,budget,importance,runs,mean,variance,rel_variance,stderr,exact\nx,5,f2,4,{},1.0,0.1,0.5,\n"
        spec = {"cells": [{"name": "n24", "workers": 2, "poset": "a", "n": 24},
                          {"name": "n40", "workers": 2, "poset": "b", "n": 40}]}

        def record(pass_, cell, workers, mean, rc=0):
            return {"pass": pass_, "cell": cell, "workers": workers, "rc": rc,
                    "stdout": row.format(mean), "stderr": ""}

        records = [record("reference", "n24", 1, 3.0), record("reference", "n40", 1, 3.0),
                   record("measured-0", "n24", 2, 3.5), record("measured-0", "n40", 2, 3.5),
                   record("traced-0", "n40", 1, 3.5), record("measured-1", "n40", 2, 3.5, rc=1)]
        failures, known = run.evaluate(spec, records, {})
        self.assertEqual([len(f) for f in failures], [0, 0, 1, 0, 1, 1])
        self.assertEqual([len(k) for k in known], [0, 0, 0, 1, 0, 1])
        self.assertEqual(failures[5], ["exit code 1"])

    def test_no_operations_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.failed_frac([])


class UpsetCountTest(unittest.TestCase):
    def test_matches_brute_force(self):
        from stochenum.posets import random_poset

        for seed in range(12):
            poset = random_poset(9, 0.15 + 0.05 * (seed % 4), seed)
            brute = 0
            for bits in itertools.product((0, 1), repeat=poset.n):
                mask = sum(b << i for i, b in enumerate(bits))
                if all(not (mask >> e & 1) or poset.above[e] & ~mask == 0 for e in range(poset.n)):
                    brute += 1
            self.assertEqual(workloads.upset_count(poset), brute)


class KnuthSecondMomentTest(unittest.TestCase):
    def test_matches_sum_over_paths(self):
        from stochenum.posets import random_poset

        def paths(poset, deleted, weight):
            # sum over root-to-leaf paths of prob(path) * X(path)^2 = product of successor counts
            full = (1 << poset.n) - 1
            remaining = full & ~deleted
            children = [e for e in range(poset.n) if remaining >> e & 1 and poset.above[e] & remaining == 0]
            if not children:
                return weight
            return sum(paths(poset, deleted | 1 << e, weight * len(children)) for e in children)

        for seed in range(8):
            poset = random_poset(6, 0.1 + 0.1 * (seed % 3), seed)
            self.assertEqual(workloads.knuth_second_moment(poset), paths(poset, 0, 1))

    def test_lower_bound_uses_the_second_moment(self):
        row = "instance,budget,importance,runs,mean,variance,rel_variance,stderr,exact\nx,1,uniform,1000,{},1,1,1.0,100\n"
        # m2 = 2 * 100^2: the bound is 100 - sqrt(2 * 20000 * ln(1e9) / 1000) = 71.2
        self.assertEqual(workloads.estimate_failures(row.format(75.0), 100, 20000), [])
        self.assertIn("lower bound", workloads.estimate_failures(row.format(70.0), 100, 20000)[0])
        self.assertIn("9.0 stderr below", workloads.estimate_failures(row.format(91.0), 100)[0])
        self.assertIn("9.0 stderr above", workloads.estimate_failures(row.format(109.0), 100, 20000)[0])


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_lists_match_run_py(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], list(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
