"""How fast this machine runs right now, for rescaling wall times.

The CPU speed of a shared machine drifts.  On a 2-core Intel Xeon
virtual machine, a fixed pure-Python loop took between
0.34 and 0.48 s within one minute, and `table comp --n 2..5` ran at
0.67 s for a few passes and then at 1.1 s for twenty seconds.  This probe
slowed by the same factor (0.032 s against 0.054 s), so the ratio of a
command's time to the probe's cut the run-to-run variation of the table
from 18 % to 6 % (coefficient of variation over 30 passes).

The probe is a fixed unit of work in the benchmark, not in the program:
interpreter arithmetic on Python ints, as in the kernels, and small
numpy popcounts, as in the pure `comp_scan`.  A stretch of timed work
of a second or more, with wall time `w` between probes `p0` and `p1`,
counts as `w * REF_S / mean(p0, p1)`: the seconds it would take on a
machine where the probe takes REF_S.  The machine flips between a fast
and a slow state (the probe reads about 24 or 35 ms), so the probes must
sit next to the work they rescale: one median over a whole run jumps
between the two states, and it widened the spread of `exact` from 9 % to
23 % over five seeds.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.03  # the probe's time at the reference speed
_MASK = (1 << 64) - 1
_WORDS = np.arange(1, 4097, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)


def probe() -> float:
    """Seconds this fixed unit of work takes now (about 30-60 ms here)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200):
        word = np.uint64((i * 0x5851F42D4C957F2D) & _MASK)
        acc += int(np.bitwise_count(word & _WORDS).sum())
    x = 1
    for _ in range(100_000):
        x = (x * 6364136223846793005 + 1442695040888963407) & _MASK
        acc ^= x.bit_count()
    return time.perf_counter() - t0


class Clock:
    """Rescales consecutive stretches of timed work by the probes taken
    at either end of each stretch."""

    def __init__(self):
        self.probes = [probe()]

    def rescale(self, wall: float) -> float:
        """`wall` seconds just measured, at reference speed."""
        self.probes.append(probe())
        return wall * REF_S / ((self.probes[-2] + self.probes[-1]) / 2)
