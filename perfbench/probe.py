"""A fixed CPU probe: how fast does this machine run right now?

On a shared virtual machine the speed of one core drifts by up to 2x
within minutes, which moves every wall time with it. The probe runs a
fixed mix of the work numur does (small numpy gathers, means and dot
products, and pure-Python arithmetic) right before and right after each
timed command, outside the timed region. A command's time in
*reference seconds* is its measured time scaled to the speed at which
the probe takes ``REFERENCE_S``. The probe shares no code with numur, so
a change to numur moves reference seconds in the same proportion as
measured seconds.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.020

_rng = np.random.default_rng(0)
_TABLE = _rng.random((1024, 16))
_ROWS = _rng.integers(0, 1024, size=(400, 5))
_VEC = _rng.random(16)


def probe() -> float:
    """Seconds the fixed probe work takes now (~20 ms on a 2-core VM)."""
    t0 = time.perf_counter()
    for _ in range(4):
        acc = 0.0
        for row in _ROWS:
            acc += float(np.logaddexp(0.0, _TABLE[row].mean(axis=0) @ _VEC))
        x = 0
        for j in range(20000):
            x += j
    return time.perf_counter() - t0


def reference_seconds(measured: float, before: float, after: float) -> float:
    """`measured` seconds at the speed the probes around it show, in reference seconds."""
    return measured * REFERENCE_S / ((before + after) / 2.0)
