"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared machine, other tenants can slow all of this process's work by
up to 2x, in phases that last seconds to tens of seconds. The benchmark
times the reference kernel before and after every timed window. It scales
the window's times by ``REFERENCE_MS / reference time``. The result is what
the window would have taken at the reference speed. The kernel imitates a
control step (a 5-link chain: cumulative angles, sin/cos, a 5x5 coupling
sum, small tuples) in pure Python. A phase that slows exobench's
interpreter-bound code therefore slows the kernel by about the same
factor. The kernel does not depend on exobench, so a change to exobench
moves the scaled times exactly as it moves the raw ones.

Never change this kernel or REFERENCE_MS: every scaled number depends on
them.
"""

import gc
import math
import time

# the kernel's time on an undisturbed 2.1 GHz Xeon vCPU (Python 3.11);
# any constant works, this one keeps scaled times close to wall times
REFERENCE_MS = 11.5

_COUPLING = tuple(tuple(0.1 * ((i * 5 + j) % 7) for j in range(5))
                  for i in range(5))


def _chain_step(q):
    s = []
    c = []
    acc = 0.0
    for x in q:
        acc += x
        s.append(math.sin(acc))
        c.append(math.cos(acc))
    out = [0.0] * 5
    for a in range(5):
        row = _COUPLING[a]
        da = 0.0
        for b in range(5):
            da += row[b] * (c[a] * c[b] + s[a] * s[b])
        out[a] = da
    return tuple(out)


def reference_ms(steps: int = 3000) -> float:
    """Wall time of the kernel in ms, with the garbage collector paused so
    that the size of the caller's heap does not change it."""
    q = [0.1, 0.2, 0.3, 0.4, 0.5]
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = 0.0
        for k in range(steps):
            q[k % 5] = k * 1e-4
            total += _chain_step(q)[k % 5]
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if not math.isfinite(total):
        raise ArithmeticError("reference kernel diverged")
    return elapsed * 1e3


def reading_ms() -> float:
    """The fastest of three kernel runs, so that a single interruption does
    not count as a slow phase."""
    return min(reference_ms() for _ in range(3))


class SpeedLog:
    """Reference times taken between timed windows. Window k lies between
    readings k and k + 1; its scale factor uses the mean of the two."""

    def __init__(self):
        self.readings = [reading_ms()]

    def mark(self):
        self.readings.append(reading_ms())

    def factor(self, k: int) -> float:
        return 2.0 * REFERENCE_MS / (self.readings[k] + self.readings[k + 1])
