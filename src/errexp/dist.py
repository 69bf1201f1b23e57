"""Discrete distributions, entropy, relative entropy, and exponential tilting.

Information quantities in this module are in bits (base 2); the Boltzmann
module works in natural log. ``LN2`` is the single conversion constant
between the two conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DegenerateSupportError, ValidationError

LN2 = math.log(2.0)

#: absolute tolerance for probability-vector sums
PROB_ATOL = 1e-12

# below this k, ln k! is a compensated running sum; above, math.lgamma
_LOG_FACT_CUTOFF = 256

# iteration cap of the tilt solver's bracket growth and of its bisection
_TILT_MAX_ITER = 200


def _validate_probs(probs: np.ndarray) -> None:
    if probs.ndim != 1 or probs.size < 1:
        raise ValidationError("probability vector must be 1-D and nonempty")
    if not np.all(np.isfinite(probs)):
        raise ValidationError("probability vector must be finite")
    if np.any(probs < 0):
        raise ValidationError("probability vector must be nonnegative")
    if abs(float(probs.sum()) - 1.0) > PROB_ATOL:
        raise ValidationError(
            f"probabilities must sum to 1 within {PROB_ATOL}; got {probs.sum()!r}"
        )


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability vector over symbols 0..alphabet_size-1.

    Inputs failing validation are rejected, never silently renormalized;
    normalization happens only through :func:`make_distribution`.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64).copy()
        _validate_probs(probs)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    @property
    def alphabet_size(self) -> int:
        return int(self.probs.size)

    def __eq__(self, other):
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        return self.probs.shape == other.probs.shape and bool(
            np.all(self.probs == other.probs)
        )

    def __hash__(self):
        return hash(self.probs.tobytes())


def make_distribution(weights) -> DiscreteDistribution:
    """Normalize a nonnegative weight vector into a distribution."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size < 1:
        raise ValidationError("weights must be a nonempty 1-D vector")
    if not np.all(np.isfinite(w)):
        raise ValidationError("weights must be finite")
    if np.any(w < 0):
        raise ValidationError("weights must be nonnegative")
    total = float(w.sum())
    if total <= 0.0:
        raise ValidationError("weights must contain a strictly positive entry")
    return DiscreteDistribution(w / total)


def entropy(p: DiscreteDistribution) -> float:
    """Shannon entropy in bits, with the 0*log 0 = 0 convention."""
    probs = p.probs
    pos = probs[probs > 0]
    return float(-(pos * np.log2(pos)).sum())


def kl_divergence(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Relative entropy D(p||q) in bits; +inf when p puts mass outside supp q."""
    if p.alphabet_size != q.alphabet_size:
        raise ValidationError("distributions must share an alphabet")
    pp, qq = p.probs, q.probs
    mask = pp > 0
    pp, qq = pp[mask], qq[mask]
    if np.any(qq == 0):
        return math.inf
    with np.errstate(over="ignore"):
        log_ratio = np.log2(pp / qq)
    d = float((pp * log_ratio).sum())
    if math.isinf(d):
        # p/q overflowed where q is below about p * 5.6e-309; the difference
        # of the logs is finite there
        big = np.isinf(log_ratio)
        log_ratio[big] = np.log2(pp[big]) - np.log2(qq[big])
        d = float((pp * log_ratio).sum())
    return d


@dataclass(frozen=True)
class TiltedFamily:
    """Geometric interpolation between two same-alphabet distributions.

    ``at(1)`` recovers p1 and ``at(0)`` recovers p2 when supports match.
    """

    p1: DiscreteDistribution
    p2: DiscreteDistribution

    def __post_init__(self):
        if self.p1.alphabet_size != self.p2.alphabet_size:
            raise ValidationError("tilted family requires a shared alphabet")

    def at(self, lam: float) -> DiscreteDistribution:
        return tilted(self, lam)


def tilted(family: TiltedFamily, lam: float) -> DiscreteDistribution:
    """The normalized tilt p1^lam * p2^(1-lam) / Z.

    Symbols where both endpoints vanish contribute nothing to Z; a zero
    normalizer means the supports are incompatible at this lam.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValidationError("tilt parameter must lie in [0, 1]")
    w = _tilt_weights(family.p1.probs, family.p2.probs, lam)
    z = float(w.sum())
    if z <= 0.0:
        raise DegenerateSupportError("tilt normalizer is zero: disjoint supports")
    return DiscreteDistribution(w / z)


def _tilt_weights(p1: np.ndarray, p2: np.ndarray, lam: float) -> np.ndarray:
    # lam = 1 returns p1 verbatim (and p2 at lam = 0) so the endpoints are
    # recovered bit-for-bit

    if lam == 1.0:
        return p1.copy()
    if lam == 0.0:
        return p2.copy()
    return p1**lam * p2 ** (1.0 - lam)


def _tilt_mean(log_base, energy: np.ndarray, beta: float) -> float:
    # mean energy under exp(log_base - beta * energy), max-shifted so the
    # largest weight is exactly 1
    log_w = log_base - beta * energy
    w = np.exp(log_w - log_w.max())
    return float((energy * w).sum() / w.sum())


def _solve_tilt(log_base, energy: np.ndarray, target: float, tol: float) -> float:
    """The beta >= 0 at which exp(log_base - beta * energy) has mean ``target``.

    The mean falls in beta, so the target must lie below the beta = 0 mean.
    The upper bracket grows geometrically from 1 until the mean undershoots;
    bisection then runs until the bracket collapses, since the mean curve
    flattens at large beta and a stop at ``tol`` would leave beta coarse.
    ``tol`` bounds the final residual, in the energy's units.
    """
    hi = 1.0
    for _ in range(_TILT_MAX_ITER):
        if _tilt_mean(log_base, energy, hi) <= target:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("failed to bracket the target mean energy")

    lo = 0.0
    for _ in range(_TILT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _tilt_mean(log_base, energy, mid) > target:
            lo = mid
        else:
            hi = mid
    beta = 0.5 * (lo + hi)
    residual = abs(_tilt_mean(log_base, energy, beta) - target)
    if residual > tol:
        raise ConvergenceError(
            f"bisection landed {residual} away from the target mean, beyond tolerance {tol}"
        )
    return beta


def log_factorial(k: int) -> float:
    """ln k!; compensated summation for small k, lgamma above the cutoff."""
    if k < 0 or k != int(k):
        raise ValidationError("log_factorial requires a nonnegative integer")
    k = int(k)
    if k <= _LOG_FACT_CUTOFF:
        return _small_log_fact_table()[k]
    return math.lgamma(k + 1.0)


@lru_cache(maxsize=1)
def _small_log_fact_table() -> tuple:
    # Kahan-compensated running sum of ln i
    vals = [0.0]
    acc = 0.0
    comp = 0.0
    for i in range(1, _LOG_FACT_CUTOFF + 1):
        y = math.log(i) - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        vals.append(acc)
    return tuple(vals)


@lru_cache(maxsize=64)
def log_factorial_table(n: int) -> np.ndarray:
    """Read-only table of ln k! for k = 0..n, shared by the type kernels."""
    table = np.array([log_factorial(k) for k in range(n + 1)])
    table.flags.writeable = False
    return table
