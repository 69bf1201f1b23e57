"""The bracket-and-bisect tilt solver, kept as the bit-level reference.

``errexp.dist._solve_tilt`` replays this loop's bisection path but skips the
steps whose outcome a certified bracket already decides. ``_tilt_mean`` and
``solve_tilt`` below are the plain loop, with no rounding certificate of its
own; the tests compare the two with ``float.hex`` and expect the same
bracket-growth errors.
"""

from __future__ import annotations

import numpy as np

from errexp import ConvergenceError

# iteration cap of the tilt solver's bracket growth
_TILT_MAX_ITER = 200


def _tilt_mean(log_base, energy: np.ndarray, beta: float) -> float:
    # mean energy under exp(log_base - beta * energy), max-shifted so the
    # largest weight is exactly 1
    log_w = log_base - beta * energy
    w = np.exp(log_w - log_w.max())
    return float((energy * w).sum() / w.sum())


def solve_tilt(log_base, energy: np.ndarray, target: float) -> float:
    """The beta >= 0 at which exp(log_base - beta * energy) has mean ``target``.

    The mean falls in beta, so the target must lie below the beta = 0 mean.
    The upper bracket grows geometrically from 1 until the mean undershoots;
    bisection then runs until the bracket collapses to adjacent doubles,
    since the mean curve flattens at large beta and any earlier stop would
    leave beta coarse.
    """
    hi = 1.0
    for _ in range(_TILT_MAX_ITER):
        if _tilt_mean(log_base, energy, hi) <= target:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("failed to bracket the target mean energy")

    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if _tilt_mean(log_base, energy, mid) > target:
            lo = mid
        else:
            hi = mid
