"""Host-speed normalisation of measured times.

The 2-vCPU host this benchmark was built on changes its clock speed by up
to 1.9x, for seconds to minutes at a time, with the load of other tenants;
CPU time moves with wall time, so neither is steady.  Every time the
benchmark reports is therefore the measured wall time multiplied by
``scale()``, taken around the measurement: the ratio of a fixed
pure-Python kernel's reference time to its time now.  The result is the
wall time the same work takes when the kernel runs in REF_KERNEL_S, still
in seconds.  The kernel uses no part of skewtent, so the program under test
cannot change it.
"""

import time
from fractions import Fraction

# kernel time at the host's fast clock state; fixes the unit, not a tolerance
REF_KERNEL_S = 2.0e-4


def _kernel():
    s = 0.0
    d = {}
    for i in range(1, 400):
        s += (i * 0.5) ** 0.5
        d[i % 17] = d.get(i % 17, 0) + i
    f = Fraction(0)
    for i in range(1, 60):
        f += Fraction(1, i)
    return s, f


def scale() -> float:
    """REF_KERNEL_S over the best of two kernel times."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return REF_KERNEL_S / best
