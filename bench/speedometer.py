"""Machine-speed samples taken while the program runs.

The cores this benchmark was built on are shared with other tenants: the
same code runs up to 1.7x slower for stretches of several seconds while a
neighbour is busy, and a 20 s run can fall wholly inside or outside such a
stretch.  A SIGALRM timer runs a fixed reference kernel every PERIOD seconds,
between the program's bytecodes.  The kernel is one Gibbs scan's mix of work
done with plain numpy/scipy on fixed data: a 54x54 Gaussian correlation
matrix from 10-d squared differences, its Cholesky factor, one solve and a
short interpreter loop.  Each sample is the faster of two back-to-back runs:
the first refills the cache lines the program evicted, so the second
measures the core, and the program's own memory footprint does not move the
scale.  The kernel touches no program state and adds under 1% to the time
of each operation.

`scale(start, end)` is REF_NOMINAL_S over the median kernel time around an
interval: multiplying a wall time by it gives the time the interval would
have taken had the kernel run at its nominal 100 us, between its times on a
quiet (70 us) and a contended (115-130 us) core of the machine the
benchmark was built on.  On that 2-vCPU shared VM this cut the IQR/median
of single 1500-scan chain times to between a third and a half of the raw
spread.  It cannot remove the part where the program and the kernel slow by
different factors.
"""

import bisect
import signal
import time

import numpy as np
from scipy.linalg import cho_solve

PERIOD = 0.05
REF_NOMINAL_S = 100e-6
# An interval shorter than this is widened to it, so that it holds samples.
WINDOW = 0.5


class Speedometer:
    def __init__(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(size=(54, 10))
        diff = pts[:, None, :] - pts[None, :, :]
        self._sqdiffs = (diff * diff).reshape(-1, 10)
        self._theta = np.full(10, 0.3)
        self._ones = np.ones(54)
        self.at = []
        self.took = []
        self._previous = None

    def reference(self) -> float:
        """Seconds the reference kernel takes now, with a warm cache."""
        return min(self._kernel(), self._kernel())

    def _kernel(self) -> float:
        start = time.perf_counter()
        corr = np.exp(-(self._sqdiffs @ self._theta)).reshape(54, 54)
        corr[np.diag_indices(54)] += 1e-5
        cho_solve((np.linalg.cholesky(corr), True), self._ones)
        acc = 0.0
        for i in range(300):
            acc += i * 0.5
        return time.perf_counter() - start

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.took.append(self.reference())
        self.at.append(start)

    def __enter__(self):
        # The first runs pay for lazy set-up in numpy and scipy; keep them out.
        for _ in range(5):
            self.reference()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start, end) -> float:
        """REF_NOMINAL_S over the median kernel time in [start, end]."""
        pad = max(0.0, (WINDOW - (end - start)) / 2)
        lo = bisect.bisect_left(self.at, start - pad)
        hi = bisect.bisect_right(self.at, end + pad)
        if hi == lo:
            raise RuntimeError(f"no speed sample within [{start - pad:.3f}, {end + pad:.3f}]")
        return REF_NOMINAL_S / float(np.median(self.took[lo:hi]))
