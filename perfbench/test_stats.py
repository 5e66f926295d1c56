"""Tests for the benchmark's own statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import stats


class TailRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail(list(range(10))))
        value, pct, n = stats.tail(list(range(1, 12)))
        # 11 samples: only the smallest has 10 beyond it.
        self.assertEqual((value, n), (1, 11))
        self.assertAlmostEqual(pct, 100 / 11)

    def test_picks_highest_qualifying_percentile(self):
        xs = list(range(1, 101))
        value, pct, n = stats.tail(xs[::-1])  # order of arrival does not matter
        self.assertEqual((value, pct, n), (90, 90.0, 100))
        self.assertEqual(sum(1 for x in xs if x > value), 10)

    def test_large_sample(self):
        value, pct, _ = stats.tail(list(range(1, 1001)))
        self.assertEqual((value, pct), (990, 99.0))


class Quartiles(unittest.TestCase):
    def test_match_statistics_quantiles(self):
        xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
        self.assertEqual(list(stats.quartiles(xs)), statistics.quantiles(xs, n=4))

    def test_spread_is_iqr_over_median(self):
        xs = [10.0] * 4 + [11.0, 9.0] * 3
        q1, _, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(stats.spread(xs), (q3 - q1) / statistics.median(xs))
        self.assertEqual(stats.spread([5.0] * 10), 0.0)


class FailureCounting(unittest.TestCase):
    def test_error_rate(self):
        ops = stats.OpCounter()
        for ok in (True, True, False, True):
            ops.record(ok, "wrong output")
        self.assertEqual((ops.attempted, ops.failed), (4, 1))
        self.assertEqual(stats.error_rate(ops.failed, ops.attempted), 0.25)
        self.assertEqual(ops.reasons, ["wrong output"])

    def test_late_check_fails_a_counted_op(self):
        ops = stats.OpCounter()
        ops.record(True)
        ops.record(True)
        ops.fail("stream differs")
        self.assertEqual((ops.attempted, ops.failed), (2, 1))
        ops.fail("again")
        ops.fail("never more failures than ops")
        self.assertEqual((ops.attempted, ops.failed), (2, 2))

    def test_merge_and_bounds(self):
        a, b = stats.OpCounter(), stats.OpCounter()
        a.record(True)
        b.record(False, "refused")
        a.merge(b)
        self.assertEqual((a.attempted, a.failed), (2, 1))
        with self.assertRaises(ValueError):
            stats.error_rate(0, 0)
        with self.assertRaises(ValueError):
            stats.error_rate(3, 2)


class LayerSums(unittest.TestCase):
    def test_consistency_check(self):
        self.assertIsNone(stats.layer_check(10.0, 9.0))
        self.assertIsNone(stats.layer_check(10.0, 5.0))
        self.assertIn("more", stats.layer_check(10.0, 10.5).replace("sum to", "more"))
        self.assertIn("only", stats.layer_check(10.0, 4.9))
        self.assertIsNotNone(stats.layer_check(0.0, 1.0))

    def test_self_time_subtracts_child_cover(self):
        spans = [
            {"start": 0, "end": 100, "parent": None},
            {"start": 10, "end": 40, "parent": 0},
            # Overlapping children (two threads) are counted once.
            {"start": 30, "end": 60, "parent": 0},
            {"start": 90, "end": 120, "parent": 0},  # clipped to the parent
            {"start": 15, "end": 20, "parent": 1},
        ]
        self.assertEqual(stats.self_times(spans), [100 - 50 - 10, 30 - 5, 30, 30, 5])


if __name__ == "__main__":
    unittest.main()
