"""Statistics for the benchmark: medians, quartiles, the tail rule,
failure counting, self time and the layer-sum consistency check.

Kept free of I/O so `test_stats.py` can pin every rule.
"""

import statistics

# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def quartiles(values):
    """(Q1, Q2, Q3) as `statistics.quantiles(values, n=4)` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def tail(values):
    """The highest percentile with at least `TAIL_BEYOND` samples beyond it.

    Returns `(value, percentile, n)`, or `None` when there are too few
    samples for any percentile to qualify. With the samples sorted
    ascending, the k-th smallest has `n - k` samples beyond it, so the
    rule picks `k = n - TAIL_BEYOND` and reports it as the
    `100 * k / n`-th percentile.
    """
    n = len(values)
    k = n - TAIL_BEYOND
    if k < 1:
        return None
    return sorted(values)[k - 1], 100.0 * k / n, n


def error_rate(failed, attempted):
    """Failed (or refused, or wrong) ops over ops attempted."""
    if attempted < 1:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..{attempted}")
    return failed / attempted


class OpCounter:
    """Counts ops attempted and failed; an op with any failed check fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, ok, reason=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)

    def fail(self, reason):
        """A check made after the fact failed an op already counted."""
        if self.failed < self.attempted:
            self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons[: max(0, 20 - len(self.reasons))])


def covered(intervals, lo, hi):
    """Length of [lo, hi) covered by the union of `intervals`."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover.

    `spans` is a list of dicts with `start`, `end` and `parent` (the
    index of the parent span in the list, or None).
    """
    children = {}
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        cover = covered(children.get(i, []), s["start"], s["end"])
        out.append((s["end"] - s["start"]) - cover)
    return out


def layer_check(parent, children_sum):
    """Flag a parent whose children sum to more than its own time, or
    explain less than half of it. Returns None when consistent, else a
    one-line reason."""
    if parent <= 0:
        return "parent time is zero"
    share = children_sum / parent
    if share > 1.0:
        return f"children sum to {share:.0%} of the parent"
    if share < 0.5:
        return f"children explain only {share:.0%} of the parent"
    return None
