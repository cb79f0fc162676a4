"""Order statistics and reference-speed rescaling for the benchmark."""

from __future__ import annotations

import math
import statistics

# candidate tail percentiles, highest last
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def rescale(pieces, end, r0):
    """Reference-speed seconds of one op.

    The op ran in pieces (seconds, kernel time at the piece's start); the
    kernel took ``end`` right after the last piece.  Each piece is rescaled
    by r0 / r, r the mean of the kernel times at its two ends.
    """
    starts = [k for _, k in pieces]
    ends = starts[1:] + [end]
    return sum(d * r0 / ((a + b) / 2) for (d, _), a, b in zip(pieces, starts, ends))


def tail(values):
    """(percentile, value, samples beyond it) for the highest ladder
    percentile that leaves at least MIN_BEYOND samples above its rank;
    the value is the nearest-rank percentile."""
    xs = sorted(values)
    n = len(xs)
    best = None
    for p in TAIL_LADDER:
        k = max(1, math.ceil(p / 100 * n))
        if n - k >= MIN_BEYOND:
            best = (p, xs[k - 1], n - k)
    if best is None:
        raise ValueError(f"{n} samples leave fewer than {MIN_BEYOND} "
                         "beyond the median")
    return best


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
