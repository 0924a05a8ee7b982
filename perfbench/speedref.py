"""A fixed slice of pure-Python work that measures how fast the machine is right now.

On a shared machine the speed of a core moves with other tenants' load; on
the 2-vCPU Intel Xeon VM the first baseline was taken on, one slice took
0.009 s on a quiet core and 0.02 s under load, for minutes at a time.  The
benchmark times a slice between consecutive calls of a workload and
reports each call's seconds scaled by REF_NOMINAL_S over the mean of the
slices around it: the time the call would take at a fixed reference
speed.  A change to the program moves that figure; a change in the
machine's speed moves the slice with it and largely cancels.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

# The unit of normalized seconds: one slice's time at the reference speed,
# about a quiet core of the baseline machine.  Not a tuning knob.
REF_NOMINAL_S = 0.01


def reference_seconds() -> float:
    """Seconds one slice took: small-rational and float arithmetic like the program's own."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    x = 0.0
    for i in range(1, 2000):
        acc = (acc + Fraction(i % 13 - 6, i % 11 + 1)) * Fraction(3, 5)
        acc = Fraction(acc.numerator % 1000003, acc.denominator % 1000003 + 1)
        x += math.cos(i * 0.1) * math.sqrt(i)
    return time.perf_counter() - t0
