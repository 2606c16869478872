"""Scale measured times to a fixed machine speed.

On the shared 2-core machine the bounds were set on, the same pass of ops
takes from 0.7x to 1.3x its usual time, in periods of seconds to minutes,
and the two cores run at different speeds.  Raw run medians spread by
15-35% between runs.

So the benchmark times a fixed reference kernel next to every measured
interval: before and after each op and each set-up probe.  A time t
measured between kernel times r1 and r2 is reported as
t * REF_S / ((r1 + r2) / 2), that is, in seconds on a machine where the
kernel takes REF_S.  The kernel is the benchmark's own code, so a change to
the program cannot move it.  Its mix of integer divmod, list indexing, dict
updates and frozenset intersections and unions is the program's own mix.
"""

from __future__ import annotations

import statistics
import time

# About the kernel's median time on the machine the bounds were set on, so
# that scaled times read close to wall times there.
REF_S = 0.016


def _kernel() -> float:
    t0 = time.perf_counter()
    n = 20000
    table = list(range(n))
    counts: dict[int, int] = {}
    for i in range(20000):
        a, b = divmod(i * 7919 % n, 97)
        x = table[(a * 131 + b) % n]
        counts[x] = counts.get(x, 0) + 1
    sets = [frozenset(range(k, k + 600, 3)) for k in range(0, 6000, 60)]
    for s1 in sets[:30]:
        for s2 in sets[30:60]:
            s1 & s2, s1 | s2
    return time.perf_counter() - t0


def reference() -> float:
    """Median wall time in seconds of three runs of the reference kernel.

    One run jitters by about 10%; the median of three is what an op is
    scaled by.
    """
    return statistics.median(_kernel() for _ in range(3))


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """A time measured between two kernel runs, in reference-speed seconds."""
    return seconds * REF_S * 2 / (ref_before + ref_after)
