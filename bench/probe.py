"""A fixed job that tracks the speed of a shared machine.

The benchmark runs on virtual machines shared with other tenants, whose
load slows every process by up to 2x for minutes at a time. Steal time
stays near zero and CPU time tracks wall time, so the slowdown is
contention for shared hardware that no clock of the process can see.
:class:`Probe` times a fixed job between driver calls: a Householder QR
of a seeded 2000-by-200 matrix (BLAS-bound) and a pure-Python loop
(interpreter-bound), the two kinds of work the drivers do. Its value is
the geometric mean of the two times.

A wall time divided by the median probe value around it, times
:data:`REFERENCE_S`, is that wall time in reference seconds: what it
would have been while the probe ran at its reference speed. The job is
the benchmark's own code, so a change to the package cannot move it.
"""

import math
import statistics
import time

import numpy as np

# Probe value on a quiet 2-vCPU x86_64 virtual machine (OpenBLAS 0.3.31,
# numpy 2.4, Python 3.11). It only sets the unit: reference seconds
# equal wall seconds whenever the probe runs this fast.
REFERENCE_S = 0.015

# Probe runs that start this close to an interval count as around it.
PAD_S = 2.0


class Probe:
    """Timed runs of the fixed job: start times and values."""

    reference = REFERENCE_S

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._a = np.random.default_rng(0).standard_normal((2000, 200))
        self.starts = []
        self.values = []

    def run(self):
        t0 = self.clock()
        np.linalg.qr(self._a)
        t1 = self.clock()
        total = 0
        for i in range(150_000):
            total += i * i
        t2 = self.clock()
        self.starts.append(t0)
        self.values.append(math.sqrt((t1 - t0) * (t2 - t1)))

    def around(self, start, end):
        """Median value of the runs that started within PAD_S of the interval."""
        near = [v for s, v in zip(self.starts, self.values)
                if start - PAD_S <= s <= end + PAD_S]
        if not near:
            raise ValueError("no probe run near the interval")
        return statistics.median(near)

    def reference_seconds(self, start, wall):
        """``wall`` seconds from ``start`` on, in reference seconds."""
        return wall * self.reference / self.around(start, start + wall)
