"""The machine's current speed, read off two fixed references.

The benchmark runs on shared hosts whose speed changes by a third and
more, in bursts of seconds and in phases of minutes, as other tenants come
and go; every time the benchmark takes changes with it.  So it samples a
fixed reference while it works and divides each op's time by the factor
by which the reference ran slower than nominal around that op.  The
reported times read as times on a machine running at the reference speed;
the raw times go into the run record too.

Two references, because the two kinds of work change speed differently:

- `kernel()`: a frozen piece of pure Python in the style of the program
  (exact rational elimination, tuple-keyed dict vectors, partition
  recursion), for work done inside one interpreter (`tables`, `certify`).
  `Sampler` runs it from a timer signal every INTERVAL_S while the ops
  run, so a long op is measured against the speed during that very op.
- `start_sample()`: a fresh interpreter that imports the standard modules
  the CLI uses, for work dominated by process start (`cli`, set-up); the
  workload takes these samples between its ops.

Both live here, not in `src/`, so no change to the program moves them.
"""

from __future__ import annotations

import bisect
import signal
import sys
import time
from fractions import Fraction
from itertools import permutations
from statistics import median

import common

# Nominal seconds of one reference run, about what they took on a shared
# 2.1 GHz Xeon vCPU under CPython 3.11.  They fix the unit the reported
# times are counted in, so they must never change.
KERNEL_S = 0.0035
START_S = 0.075

INTERVAL_S = 0.06  # wall time between kernel samples taken by a Sampler
NEAREST = 5  # samples an op is measured against when fewer fell inside it

START_ARGV = (sys.executable, "-c", "import argparse, fractions, json")


def _partitions(k: int, most: int):
    if k == 0:
        yield ()
        return
    for p in range(min(k, most), 0, -1):
        for rest in _partitions(k - p, p):
            yield (p,) + rest


def kernel() -> tuple:
    """About 3 ms of interpreter work; returns a fixed checksum."""
    n = 8
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n)] for i in range(n)]
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(n):
            if r != rank and m[r][col]:
                c = m[r][col]
                m[r] = [x - c * y for x, y in zip(m[r], m[rank])]
        rank += 1
    vec: dict = {}
    for w in permutations(range(5)):
        key = w[:2] + tuple(sorted(w[2:]))
        vec[key] = vec.get(key, 0) + w[0] * w[4]
    parts = sum(1 for _ in _partitions(14, 14))
    return rank, len(vec), sum(vec.values()), parts


CHECKSUM = (8, 20, 420, 135)


def sample() -> float:
    """Seconds of one kernel run."""
    t0 = time.perf_counter()
    out = kernel()
    dt = time.perf_counter() - t0
    if out != CHECKSUM:
        raise RuntimeError(f"speed kernel returned {out}, expected {CHECKSUM}")
    return dt


def start_sample() -> float:
    """Wall seconds of one fresh reference interpreter."""
    res = common.run_child(list(START_ARGV), timeout=10)
    if res.code != 0:
        raise RuntimeError(f"reference interpreter exited {res.code}: {res.stderr.decode()[-400:]}")
    return res.wall_s


class Sampler:
    """Reference samples with the time they were taken, and the ops' times
    measured against them.

    Used as a context manager, it runs `kernel()` from a SIGALRM handler
    every INTERVAL_S of wall time, in the ops' own process and thread;
    `span` leaves the sampling time out of an op's time.  Without the
    context, the caller adds samples between the ops."""

    def __init__(self, nominal: float = KERNEL_S):
        self.nominal = nominal
        self.at: list = []  # midpoints of the samples, ascending
        self.took: list = []  # their seconds
        self.spent = 0.0  # seconds spent sampling inside the context
        self._old = None

    def add(self, at: float, took: float) -> None:
        self.at.append(at)
        self.took.append(took)

    def add_start_sample(self) -> None:
        """Take and add one `start_sample()`."""
        t0 = time.perf_counter()
        took = start_sample()
        self.add(t0 + took / 2, took)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        took = sample()
        self.add(t0 + took / 2, took)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def span(self):
        """Start timing an op; call the result to get (start, end,
        seconds of the op without the sampling inside it)."""
        t0, s0 = time.perf_counter(), self.spent

        def stop():
            t1 = time.perf_counter()
            return t0, t1, (t1 - t0) - (self.spent - s0)

        return stop

    def factor(self, start: float, end: float) -> float:
        """How many times slower than nominal the reference ran during
        [start, end]: the median of the samples taken inside it, or of the
        NEAREST samples to its midpoint when fewer fell inside.  1 when
        there are no samples at all."""
        lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        if hi - lo < NEAREST:
            mid = (start + end) / 2
            lo = hi = bisect.bisect_left(self.at, mid)
            while hi - lo < min(NEAREST, len(self.at)):
                if hi < len(self.at) and (lo == 0 or self.at[hi] - mid < mid - self.at[lo - 1]):
                    hi += 1
                else:
                    lo -= 1
        picked = self.took[lo:hi]
        return median(picked) / self.nominal if picked else 1.0
