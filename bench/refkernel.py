"""Reference kernel: a fixed piece of work timed next to every op.

The host's CPU speed drifts by tens of percent within seconds, so raw op
seconds do not repeat.  Each op's time is rescaled by ``R0 / r``, where
``r`` is the kernel's time measured next to the op; the result is in
reference-speed seconds, the time the op would take on a host where the
kernel takes exactly ``R0``.  The kernel has to slow down like the
workloads do, so it imitates their three hot paths: Bareiss determinants
with ``Fraction`` sums, a brute-force facet search over point subsets, and
``Fraction`` Gauss-Jordan elimination.  It does not import ``newtonzeta``,
so a change to the package cannot change it.
"""

from __future__ import annotations

import gc
import itertools
import signal
import time
from fractions import Fraction

# nominal kernel time in seconds, fixed once; never retune it, or every
# earlier reference-speed figure changes scale
R0 = 0.002

_DETS = [[[(7 * i + 3 * j * j + 11 * k + i * j * k) % 13 - 6 for j in range(5)]
          for i in range(5)] for k in range(35)]
_POINTS = [tuple((7 * i * (j + 1) + 3 * j * j + i * i) % 9 for j in range(4))
           for i in range(11)]
_RANK = [[(3 * i + 5 * j + i * j) % 7 - 3 for j in range(5)] for i in range(6)]


def _bareiss(rows) -> int:
    a = [list(r) for r in rows]
    n = len(a)
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for j in range(i + 1, n):
                if a[j][i] != 0:
                    a[i], a[j] = a[j], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for j in range(i + 1, n):
            for k in range(i + 1, n):
                a[j][k] = (a[j][k] * a[i][i] - a[j][i] * a[i][k]) // prev
            a[j][i] = 0
        prev = a[i][i]
    return sign * a[-1][-1]


def _determinants() -> Fraction:
    acc = Fraction(0)
    for k, m in enumerate(_DETS):
        acc += Fraction(_bareiss(m), k + 1)
    return acc


def _facet_search() -> int:
    found = {}
    d = len(_POINTS[0])
    for combo in itertools.islice(itertools.combinations(range(len(_POINTS)), d), 14):
        p0 = _POINTS[combo[0]]
        vecs = [tuple(x - y for x, y in zip(_POINTS[i], p0)) for i in combo[1:]]
        a = tuple((-1) ** j * _bareiss([[v[t] for t in range(d) if t != j]
                                        for v in vecs]) for j in range(d))
        if any(a):
            c = sum(x * y for x, y in zip(a, p0))
            found[(a, c)] = all(sum(x * y for x, y in zip(a, p)) >= c
                                for p in _POINTS)
    return len(found)


def _rank() -> int:
    m = [[Fraction(x) for x in r] for r in _RANK]
    rank = 0
    for col in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = Fraction(1) / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def kernel():
    return _determinants(), _facet_search(), _rank()


def ref_time() -> float:
    """Seconds one kernel run takes now (collector paused while it runs)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times the kernel every ``period`` seconds while its block runs.

    A SIGALRM handler runs the kernel between bytecodes of the op, so the
    reference follows speed changes in the middle of a long op.  ``ticks``
    holds (start, kernel seconds, end) of each sample; the op's own time is
    what lies between them.
    """

    def __init__(self, period: float):
        self.period = period
        self.ticks: list[tuple[float, float, float]] = []
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        kernel_s = ref_time()
        self.ticks.append((start, kernel_s, time.perf_counter()))

    def __enter__(self):
        self.ticks = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
