"""Host-speed reference for rescaling per-op wall times on a shared machine.

On a shared host the same operations ran up to 1.6 times slower from one
minute to the next, and the two CPUs differed in speed, so one process's
speed jumped as it moved between them.  The bench therefore samples a fixed
loop, shaped like the rate kernel (Gaussian tails of a few cells, a small
matrix product, a log-ratio sum), between operations.  The loop calls
nothing in the package, so its time tracks only the host.  Each operation's
time is rescaled by the mean of the two samples around it, to a host on
which the loop takes ``NOMINAL_MS``.
"""

from time import perf_counter

import numpy as np
from scipy.special import ndtr

NOMINAL_MS = 4.0
INTERVAL_S = 0.25  # between samples

_LO = np.array([-np.inf, -1.5, -0.5, 0.0, 0.5, 1.5])
_HI = np.append(_LO[1:], np.inf)
_PROBS = np.array([0.4, 0.6])


def reference_ms():
    """Milliseconds taken by the fixed reference loop now."""
    start = perf_counter()
    for i in range(150):
        means = np.array([[0.3 + 1e-3 * i], [-1.2]])
        a, b = _LO - means, _HI - means
        cells = np.where(a >= 0.0, ndtr(-a) - ndtr(-b), ndtr(b) - ndtr(a))
        py = _PROBS @ cells
        np.sum(np.where(cells > 0.0, cells * np.log2(np.where(cells > 0.0, cells, 1.0) / py), 0.0))
    return 1e3 * (perf_counter() - start)


class HostClock:
    """Reference samples taken between ops, and the rescaling they give."""

    def __init__(self):
        self.samples = []
        self._before = []  # per op: index of the last sample taken before it
        self._next = 0.0

    def before_op(self):
        if perf_counter() >= self._next:
            self.samples.append(reference_ms())
            self._next = perf_counter() + INTERVAL_S
        self._before.append(len(self.samples) - 1)

    def rescale(self, times):
        """Per-op times at nominal host speed; closes the sampling."""
        if len(self.samples) == self._before[-1] + 1:
            self.samples.append(reference_ms())
        samples = np.asarray(self.samples)
        before = np.asarray(self._before)
        local = 0.5 * (samples[before] + samples[before + 1])
        return (np.asarray(times) * NOMINAL_MS / local).tolist()
