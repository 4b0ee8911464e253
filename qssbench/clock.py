"""Wall times normalized to a reference machine speed.

On a shared host the CPU speed drifts by tens of percent within minutes,
with the load of other tenants; command times drift with it, and so does
any fixed piece of work.  A small reference kernel (a Python loop, small
complex eigensolves and small numpy calls, the mix the commands run) is
timed right before and right after each measured call.  The call's wall
time is scaled by ``REFERENCE_S`` over the mean of those two kernel times:
the result is the time the call would take when the kernel takes
``REFERENCE_S``.  Raw wall times are kept alongside.
"""

from __future__ import annotations

import time

import numpy as np

# typical kernel time on a shared 2-core Xeon VM, one BLAS thread
REFERENCE_S = 0.020

_RNG = np.random.default_rng(20250806)
_MATRICES = [_RNG.standard_normal((n, n)) + 1j * _RNG.standard_normal((n, n))
             for n in (16, 36, 64)]
_SMALL = _RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))


def kernel() -> float:
    """Run the reference kernel once and return its wall time in s."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    for m in _MATRICES:
        np.linalg.eig(m)
    v = np.ones(16, dtype=complex)
    for _ in range(200):
        v = np.kron(_SMALL, np.eye(4)) @ v
        v = v / np.linalg.norm(v)
    return time.perf_counter() - t0


class Clock:
    """Times calls between two runs of the reference kernel."""

    def __init__(self):
        kernel()                    # first-call costs stay out of the reference
        self._last = kernel()

    def time(self, fn, *args, **kwargs):
        """``(result, raw_s, normalized_s, scale)`` of ``fn(*args, **kwargs)``."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        after = kernel()
        scale = REFERENCE_S / (0.5 * (self._last + after))
        self._last = after
        return result, raw, raw * scale, scale
