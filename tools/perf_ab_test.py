#!/usr/bin/env python3
"""The gain rule of tools/perf_ab.py on canned samples (no perfbench
build): python3 tools/perf_ab_test.py"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import perf_ab  # noqa: E402


class RuleTest(unittest.TestCase):
    BASE = [0.100, 0.104, 0.098, 0.110, 0.101, 0.099, 0.105, 0.103, 0.097,
            0.108]

    def test_clear_gain_holds(self):
        change = [b - 0.012 for b in self.BASE]
        verdict = perf_ab.rule(self.BASE, change, "lower")
        self.assertEqual(verdict["won"], 10)
        self.assertEqual(verdict["needed"], 9)
        self.assertTrue(verdict["holds"])

    def test_same_samples_never_hold(self):
        verdict = perf_ab.rule(self.BASE, list(self.BASE), "lower")
        self.assertEqual(verdict["won"], 0)
        self.assertFalse(verdict["holds"])

    def test_nine_of_ten_is_enough_eight_is_not(self):
        change = [b - 0.012 for b in self.BASE]
        change[0] = self.BASE[0] + 0.001
        self.assertTrue(perf_ab.rule(self.BASE, change, "lower")["holds"])
        change[1] = self.BASE[1] + 0.001
        verdict = perf_ab.rule(self.BASE, change, "lower")
        self.assertEqual(verdict["won"], 8)
        self.assertFalse(verdict["holds"])

    def test_every_pair_won_inside_the_iqr_fails(self):
        # Each pair a hair better, but the median gap (0.001) is well
        # inside the base's interquartile range.
        change = [b - 0.001 for b in self.BASE]
        verdict = perf_ab.rule(self.BASE, change, "lower")
        self.assertEqual(verdict["won"], 10)
        self.assertLess(verdict["base_median"] - verdict["change_median"],
                        verdict["base_q3"] - verdict["base_q1"])
        self.assertFalse(verdict["holds"])

    def test_higher_is_better_flips_the_direction(self):
        change = [b + 0.012 for b in self.BASE]
        self.assertTrue(perf_ab.rule(self.BASE, change, "higher")["holds"])
        self.assertFalse(perf_ab.rule(self.BASE, change, "lower")["holds"])

    def test_quartiles_interpolate(self):
        q1, median, q3 = perf_ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((q1, median, q3), (2.0, 3.0, 4.0))
        self.assertEqual(perf_ab.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_sixteen_pairs_need_fifteen(self):
        base = self.BASE + self.BASE[:6]
        change = [b - 0.012 for b in base]
        self.assertEqual(perf_ab.rule(base, change, "lower")["needed"], 15)

    def test_bad_input_rejected(self):
        with self.assertRaises(ValueError):
            perf_ab.rule([], [], "lower")
        with self.assertRaises(ValueError):
            perf_ab.rule([1.0], [1.0, 2.0], "lower")
        with self.assertRaises(ValueError):
            perf_ab.rule([1.0], [1.0], "faster")


if __name__ == "__main__":
    unittest.main()
