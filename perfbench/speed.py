"""Machine-speed probe: express a measured time at a fixed reference speed.

The benchmark runs on shared machines whose speed drifts by tens of percent
over minutes, in CPU time as much as in wall time.  While a timed span runs,
a real-time interval timer interrupts the program every ``INTERVAL_S``
seconds and times a fixed kernel of small-rational arithmetic and dict
stores, interpreter-bound work like that of both ``swkb`` layers.  The
kernel's mean time against ``REF_SAMPLE_S`` is the machine's slowdown during
that span; the span's own time (its elapsed time minus the kernel samples)
divided by that slowdown is its time at reference speed.  The kernel uses only the standard library, so no change
to ``swkb`` can change the yardstick.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction
from typing import List

INTERVAL_S = 0.05
KERNEL_STEPS = 300
# The reference speed is the one at which a kernel sample takes this long.
# It is near the fastest seen on a 2-CPU Xeon VM with Python 3.11, so
# reference seconds are close to seconds on that machine when unloaded.
REF_SAMPLE_S = 1.5e-3


def kernel() -> float:
    """Time one fixed batch of small-rational products and dict stores."""
    t0 = time.perf_counter()
    d = {}
    for i in range(1, KERNEL_STEPS):
        d[i % 97] = (Fraction(i % 13 + 1, i % 11 + 2) * Fraction(i % 5 + 3, i % 7 + 1)
                     + Fraction(1, i % 3 + 2))
    return time.perf_counter() - t0


class SpeedProbe:
    """Context manager timing a span and sampling the kernel inside it.

    After exit, ``elapsed_s`` is the span's time, ``own_s`` the same without
    the samples and ``ref_s`` the latter at reference speed."""

    def __init__(self):
        self.samples: List[float] = []
        self.elapsed_s = 0.0
        self.own_s = 0.0
        self.ref_s = 0.0

    def _sample(self, signum, frame):
        self.samples.append(kernel())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.elapsed_s = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        self.own_s = self.elapsed_s - sum(self.samples)
        if not self.samples:  # a span shorter than one interval
            self.samples.append(kernel())
        self.ref_s = self.own_s * REF_SAMPLE_S * len(self.samples) / sum(self.samples)
        return False
