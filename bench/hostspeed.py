"""Host speed, measured in the run itself with a fixed reference loop.

On a shared host the speed of one core swings by up to 2x within a second,
and CPU time swings with it. The end-to-end times are therefore reported at
a nominal host speed. Every timed section (one job, one set-up) is
bracketed by probes of a reference loop, and its time is scaled by

    NOMINAL_S / mean(probe before, probe after)

The reference loop is the kind of work the library does (exact Gaussian
elimination over Fractions, in pure Python) and is fixed in the benchmark's
own files, so a change to the library changes the job times but not the
probes. A probe is the median of SAMPLES_PER_PROBE loops.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.005  # reference-loop time that defines nominal speed
SAMPLES_PER_PROBE = 3

_rng = random.Random(7)
_M = [[Fraction(_rng.randint(-3, 3), _rng.randint(1, 3)) for _ in range(10)] for _ in range(10)]


def reference_loop():
    """Gauss-Jordan elimination of a fixed dense 10x10 Fraction matrix:
    about 5 ms."""
    m = [row[:] for row in _M]
    n = len(m)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m


class HostSpeed:
    """Probes of the reference loop, taken between the timed sections of a run."""

    def __init__(self):
        self.samples = []

    def probe(self):
        """Median time of SAMPLES_PER_PROBE reference loops."""
        times = []
        for _ in range(SAMPLES_PER_PROBE):
            t0 = perf_counter()
            reference_loop()
            times.append(perf_counter() - t0)
        self.samples.extend(times)
        return statistics.median(times)


def at_nominal(seconds, before, after):
    """A section's time scaled to nominal speed by the probes around it."""
    return seconds * NOMINAL_S * 2 / (before + after)
