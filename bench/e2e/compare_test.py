#!/usr/bin/env python3
"""Unit tests of compare.py's run pairing and verdicts (registered with
ctest; also runs as `python3 bench/e2e/compare_test.py`)."""
import json
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True  # no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

LOWER = {"better": "lower", "bound": 0.10}


def runs(seed_values):
    """[(seed, {"t": value}), ...] from [(seed, value), ...]."""
    return [(s, {"t": v}) for s, v in seed_values]


class Pairs(unittest.TestCase):
    def test_repeated_seed_pairs_runs_in_order(self):
        base = runs([(7, 1.0), (7, 2.0), (7, 3.0)])
        new = runs([(7, 10.0), (7, 20.0), (7, 30.0)])
        got = [(b["t"], n["t"]) for b, n in compare.pairs(base, new)]
        self.assertEqual(got, [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)])

    def test_unmatched_runs_are_left_out(self):
        base = runs([(1, 1.0), (2, 2.0), (2, 2.5)])
        new = runs([(2, 20.0), (3, 30.0), (2, 21.0), (2, 22.0)])
        got = [(b["t"], n["t"]) for b, n in compare.pairs(base, new)]
        self.assertEqual(got, [(2.0, 20.0), (2.5, 21.0)])


class LoadSet(unittest.TestCase):
    def test_saved_stdout_beside_its_record_is_not_a_second_run(self):
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"t": {"value": 1.5, "unit": "s"}}}
        record = dict(result, workload="model", seed=7, traced=False)
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, "model-seed7-run1.json"), "w") as f:
                json.dump(record, f)
            with open(os.path.join(d, "model-seed7-run1.out"), "w") as f:
                f.write("host {}\n" + json.dumps(result) + "\n")
            runs = compare.load_set([d])
        self.assertEqual(runs, {("model", False): [(7, {"t": 1.5})]})


class Verdict(unittest.TestCase):
    def test_ten_clear_wins_are_better(self):
        base = runs([(s, 1.00 + 0.001 * s) for s in range(10)])
        new = runs([(s, 0.80 + 0.001 * s) for s in range(10)])
        self.assertEqual(compare.verdict("t", LOWER, base, new), "better")

    def test_fewer_than_ten_pairs_are_never_better(self):
        base = runs([(7, 1.00 + 0.001 * i) for i in range(5)])
        new = runs([(7, 0.80 + 0.001 * i) for i in range(5)])
        self.assertEqual(compare.verdict("t", LOWER, base, new),
                         "unresolved")

    def test_worse_beyond_the_bound(self):
        base = runs([(s, 1.00 + 0.001 * s) for s in range(10)])
        new = runs([(s, 1.20 + 0.001 * s) for s in range(10)])
        self.assertEqual(compare.verdict("t", LOWER, base, new), "worse")

    def test_wide_spread_is_unresolved(self):
        base = runs([(s, 1.0 + 0.05 * s) for s in range(10)])
        new = runs([(s, 1.0 + 0.05 * ((s + 5) % 10)) for s in range(10)])
        self.assertEqual(compare.verdict("t", LOWER, base, new),
                         "unresolved")


if __name__ == "__main__":
    unittest.main()
