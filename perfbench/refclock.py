"""Reference clock: wall time rescaled to a fixed processor speed.

A shared virtual CPU runs the same code at different speeds from one second
to the next (on a 2-vCPU Xeon VM a fixed Python loop switches between two
states about 1.5x apart, each lasting seconds). Timing the benchmark's own
fixed loop right before and after a measured interval tells the speed the
interval ran at; scaling the interval's wall time by ``REF_NOMINAL_S`` over
that loop time gives "reference seconds", the time the interval would have
taken at the speed where the loop takes ``REF_NOMINAL_S``. The loop mixes
interpreted bytecode with a NumPy sort, as the program does, and never calls
errexp, so a faster program still reads faster.

The benchmark binds itself to one CPU (``pin``) before it starts its
workers, which inherit the binding, so the loop and the interval it
calibrates run on the same virtual CPU.
"""

from __future__ import annotations

import os
import time

import numpy as np

# a reference sample's time on an uncontended 2.0 GHz Xeon vCPU
# (Python 3.11, NumPy 2.4)
REF_NOMINAL_S = 0.00055

_ARRAY = np.random.default_rng(0).random(2048)


def _one_pass() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(8_000):
        s += i * i % 7
    for _ in range(4):
        np.sort(_ARRAY)
    return time.perf_counter() - t0


def reference_loop() -> float:
    """Wall seconds of the fixed reference work: the median of three passes,
    so that an interrupt during one pass does not skew the reading."""
    return sorted(_one_pass() for _ in range(3))[1]


def scale(wall: float, ref_before: float, ref_after: float, exponent: float = 1.0) -> float:
    """``wall`` in reference seconds, given the loop times around it.

    Code with a larger working set than the loop slows more than the loop
    when the host is busy; ``exponent`` is how much more, as the slope of
    log wall time against log loop time.
    """
    return wall * (REF_NOMINAL_S / (0.5 * (ref_before + ref_after))) ** exponent


def pin() -> None:
    """Bind this process (and the children it starts) to its first allowed CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
