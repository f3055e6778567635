"""A fixed reference work unit, timed around every measured phase.

On a shared host the speed of the CPU drifts by tens of percent over a
minute, and every measured phase drifts with it. The reference unit
does a fixed amount of work that does not depend on the program under
test: interpreted Python, a NumPy sort and a random gather over a table
larger than the L2 cache, which is the same kinds of work the campaign
layers do. It is timed right before and right after each phase. The
phase's host-time rate is then scaled by ``reference / NOMINAL_S``,
with ``reference`` the mean of the two timings: the rate the phase would
have had if the host had run at the speed at which one reference unit
takes ``NOMINAL_S`` seconds.
"""

import time

import numpy as np

# Duration of one reference unit on an uncontended 2-vCPU Xeon host
# (CPython 3.11, NumPy 2.4). It only sets the scale: a different host
# shifts every normalized rate by the same factor.
NOMINAL_S = 0.035


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20130623)
        self._table = rng.integers(0, 1 << 40, size=1_000_000)
        self._index = rng.integers(0, len(self._table), size=500_000)
        self._keys = rng.integers(0, 1 << 40, size=200_000)

    def _work(self):
        total = 0
        buckets = {}
        for i in range(250_000):
            total += i * i
            buckets[i & 255] = total
        np.sort(self._keys)
        for _ in range(4):
            total += int(np.take(self._table, self._index).sum())
        return total

    def seconds(self, samples=3):
        """Host seconds one reference unit takes right now (median)."""
        times = []
        for _ in range(samples):
            start = time.perf_counter()
            self._work()
            times.append(time.perf_counter() - start)
        return sorted(times)[len(times) // 2]
