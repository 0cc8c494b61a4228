"""Arithmetic shared by the benchmark entry point and the trace reader.

Pure functions over plain sequences, so the tests can pin them on small
synthetic inputs.
"""

from __future__ import annotations

from array import array


def high_percentile(values, beyond: int = 10):
    """Highest order statistic with at least ``beyond`` samples above it.

    Returns (percentile, value), or None when there are too few samples
    for such a statistic to exist (``len(values) <= beyond``).  With n
    samples the rank is k = n - beyond, labelled as the 100*k/n
    percentile: p90 at 100 samples, p99 at 1000.
    """
    n = len(values)
    if n <= beyond:
        return None
    ordered = sorted(values)
    rank = n - beyond
    return 100.0 * rank / n, ordered[rank - 1]


def self_times(starts, ends, parents) -> array:
    """Per span: its duration minus the part of it that its children cover.

    Spans are indexed in order of their start, so every parent precedes
    its children and a parent's children arrive in start order.  Child
    intervals are clipped to the parent and merged before subtraction, so
    overlapping children are not counted twice.
    """
    count = len(starts)
    covered = array("d", bytes(8 * count))
    reach = {}  # parent index -> end of the merged child cover so far
    for i in range(count):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p], reach.get(p, starts[p]))
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return array("d", (ends[i] - starts[i] - covered[i] for i in range(count)))


def failed_frac(failures) -> float:
    """Share of attempted operations that failed.

    ``failures`` holds one entry per attempted operation: a list of the
    reasons it failed, empty when it succeeded.
    """
    if not failures:
        raise ValueError("no operations attempted")
    return sum(1 for reasons in failures if reasons) / len(failures)
