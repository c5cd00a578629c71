#!/usr/bin/env python3
"""Tests for the throughput gate's decision (wired into ctest as
`perf_gate_self`).

Feeds scripts/perf_gate.py's verdict() canned perfbench result lines,
the JSON object perfbench prints last, and pins which pairs run BASE
first. Pure Python: nothing is built or run.
"""

import contextlib
import importlib.util
import io
import os
import unittest
from unittest import mock

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = importlib.util.spec_from_file_location(
    "perf_gate", os.path.join(REPO, "scripts", "perf_gate.py"))
gate = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(gate)


def result(minstr_per_s, correct=True, failed=0):
    """One perfbench result line, as parsed JSON."""
    return {"correct": correct, "attempted": 36, "failed": failed,
            "metrics": {gate.METRIC: {"value": minstr_per_s,
                                      "unit": "Minstr/s"}}}


# Five runs a side, spread the way real runs spread.
BASE_RUNS = [40.0, 38.5, 41.2, 39.6, 40.4]


def runs(change_scale):
    """Both workloads: BASE_RUNS against them scaled by `change_scale`."""
    return {w: {"base": [result(v) for v in BASE_RUNS],
                "change": [result(v * change_scale) for v in BASE_RUNS]}
            for w in gate.WORKLOADS}


class TestSpeed(unittest.TestCase):
    def test_equal_medians_pass(self):
        self.assertEqual(gate.verdict(runs(1.0)), [])

    def test_ten_percent_slower_passes(self):
        self.assertEqual(gate.verdict(runs(0.90)), [])

    def test_twenty_five_percent_slower_fails(self):
        problems = gate.verdict(runs(0.75))
        self.assertEqual(len(problems), len(gate.WORKLOADS))
        for problem in problems:
            self.assertIn("below BASE", problem)

    def test_one_slow_workload_fails(self):
        mixed = runs(1.0)
        mixed["trace-windows"]["change"] = [
            result(v * 0.75) for v in BASE_RUNS]
        problems = gate.verdict(mixed)
        self.assertEqual(len(problems), 1)
        self.assertTrue(problems[0].startswith("trace-windows"))


class TestCorrectness(unittest.TestCase):
    def check_fails_on_either_side(self, bad):
        for side in ("base", "change"):
            # As fast as the rest, or faster: speed cannot excuse it.
            for scale in (1.0, 2.0):
                mixed = runs(scale)
                mixed["paper-sweep"][side][2] = bad
                problems = gate.verdict(mixed)
                self.assertTrue(
                    any("paper-sweep %s run 2" % side in p
                        for p in problems), (side, scale, problems))

    def test_incorrect_run_fails(self):
        self.check_fails_on_either_side(result(40.0, correct=False))

    def test_failed_point_fails(self):
        self.check_fails_on_either_side(result(40.0, failed=1))

    def test_run_that_printed_nothing_fails(self):
        self.check_fails_on_either_side(
            {"correct": False, "failed": "exit 1", "metrics": {}})


class TestOrder(unittest.TestCase):
    def test_base_runs_first_exactly_on_even_pairs(self):
        for pair in range(gate.PAIRS * 2):
            self.assertEqual(gate.base_first(pair), pair % 2 == 0, pair)

    def test_measure_alternates_sides_and_seeds(self):
        calls = []

        def fake_run(src, target, workload, seed):
            calls.append((src, workload, seed))
            return result(40.0)

        with mock.patch.object(gate, "run", fake_run), \
                contextlib.redirect_stdout(io.StringIO()):
            gate.measure({"base": ("B", "b"), "change": ("C", "c")})
        expected = []
        for workload in gate.WORKLOADS:
            for pair in range(gate.PAIRS):
                order = "BC" if pair % 2 == 0 else "CB"
                expected += [(src, workload, pair + 1) for src in order]
        self.assertEqual(calls, expected)


if __name__ == "__main__":
    unittest.main()
