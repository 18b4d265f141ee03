#!/usr/bin/env python3
"""Tests of the A/B gate's verdict on canned simbench results.

    python3 tools/ab_gate_test.py
"""
import copy
import json
import pathlib
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import ab_gate  # noqa: E402

END_TO_END = json.loads((HERE.parent / "BENCHMARK.json").read_text())[
    "end_to_end"]

# The last line of `simbench/run.py --workload dumbbell-zoo --seed 1
# --seconds 5 --trace 0` on a 4-core Xeon.
RESULT = json.loads(
    '{"correct": true, "attempted": 480, "failed": 0, "metrics": {'
    '"sim_s_per_wall_s": {"value": 1044.3565137392748, "unit": "sim_s/s"}, '
    '"setup_s": {"value": 5.1439667217949883e-05, "unit": "s"}, '
    '"peak_rss_mb": {"value": 4.41015625, "unit": "MB"}, '
    '"ok_run_share": {"value": 1, "unit": "ratio"}, '
    '"sim_slowdown": {"value": 1.0573657595710155, "unit": "x"}, '
    '"table1_unfair_err_pct": {"value": 8.0897360753177203, "unit": "%"}}}')

# Run-to-run spread of the canned runs: +-2% around the values above.
SPREAD = (0.98, 0.99, 1.0, 1.01, 1.02)


def runs(**scale):
    """Five results, each metric but ok_run_share times its SPREAD factor,
    and times scale[metric] (1 when not given)."""
    out = []
    for s in SPREAD:
        r = copy.deepcopy(RESULT)
        for name, m in r["metrics"].items():
            m["value"] *= scale.get(name, 1.0)
            if name != "ok_run_share":
                m["value"] *= s
        out.append(r)
    return out


def failures(change_runs):
    _, fails = ab_gate.verdict(END_TO_END, {"dumbbell-zoo": runs()},
                               {"dumbbell-zoo": change_runs})
    return fails


class Verdict(unittest.TestCase):
    def test_identical_runs_pass(self):
        self.assertEqual(failures(runs()), [])

    def test_change_within_bound_passes(self):
        self.assertEqual(failures(runs(sim_s_per_wall_s=0.9,
                                       peak_rss_mb=1.1)), [])

    def test_improvement_passes(self):
        self.assertEqual(failures(runs(sim_s_per_wall_s=1.5,
                                       peak_rss_mb=0.5)), [])

    def test_throughput_down_25_percent_fails(self):
        fails = failures(runs(sim_s_per_wall_s=0.75))
        self.assertEqual(len(fails), 1)
        self.assertTrue(fails[0].startswith("dumbbell-zoo/sim_s_per_wall_s"))

    def test_peak_rss_up_20_percent_fails(self):
        fails = failures(runs(peak_rss_mb=1.2))
        self.assertEqual(len(fails), 1)
        self.assertTrue(fails[0].startswith("dumbbell-zoo/peak_rss_mb"))

    def test_ok_run_share_drop_fails(self):
        # One simulation fails in one run of five: the median stays 1.0, the
        # mean drops.
        change = runs()
        change[2]["metrics"]["ok_run_share"]["value"] = 479 / 480
        fails = failures(change)
        self.assertEqual(len(fails), 1)
        self.assertTrue(fails[0].startswith("dumbbell-zoo/ok_run_share"))

    def test_missing_metric_fails(self):
        change = runs()
        del change[0]["metrics"]["setup_s"]
        fails = failures(change)
        self.assertEqual(len(fails), 1)
        self.assertIn("setup_s", fails[0])

    def test_incorrect_result_fails(self):
        change = runs()
        change[4]["correct"] = False
        fails = failures(change)
        self.assertEqual(len(fails), 1)
        self.assertIn("correct: false", fails[0])

    def test_failed_run_fails(self):
        self.assertNotEqual(failures(runs()[:3] + [None]), [])

    def test_every_metric_is_reported(self):
        lines, _ = ab_gate.verdict(END_TO_END, {"dumbbell-zoo": runs()},
                                   {"dumbbell-zoo": runs()})
        self.assertEqual(len(lines), len(END_TO_END))


if __name__ == "__main__":
    unittest.main()
