"""Discrete distributions, entropy, relative entropy, and the Gibbs tilt solver.

Information quantities in this module are in bits (base 2); the Boltzmann
module works in natural log. ``LN2`` is the single conversion constant
between the two conventions.

The paper's two applications tilt by one Gibbs law, exp(log_base - beta *
energy) / Z, whose weights ``_gibbs_weights`` forms in the log domain:
Chernoff's P_lam = p1^lam p2^(1-lam) / Z is it with base ln p2, energy
log2(p2/p1) and beta = lam ln 2, and the Boltzmann law exp(-beta * eps) / Z
with a flat base over ground-shifted levels. ``_solve_tilt`` finds the beta
at which either has a target mean energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, ValidationError

LN2 = math.log(2.0)

#: absolute tolerance for probability-vector sums
PROB_ATOL = 1e-12

# below this k, ln k! is a compensated running sum; above, math.lgamma
_LOG_FACT_CUTOFF = 256

# iteration cap of the tilt solver's bracket growth
_TILT_MAX_ITER = 200

# cap on the Newton steps that place the tilt solver's certified bracket
_NEWTON_MAX_ITER = 12


def _sum_and_min(v: np.ndarray) -> tuple[float, float]:
    """The sum and the least entry of a nonempty 1-D vector, two reductions.

    A finite sum has only finite terms, and min >= 0 holds exactly when no
    entry is < 0 (-0.0 passes both), so a vector with a finite sum and
    min >= 0 passes the element-wise finite and nonnegative checks, which
    the validators run only for the other vectors. The sum is ``v.sum()``
    to the bit. NumPy's warnings are off here: a vector that fails the two
    tests meets the element-wise checks, which warn where they sum, as
    before, and one that passes them sums without a warning.
    """
    with np.errstate(all="ignore"):
        return float(np.add.reduce(v)), float(np.minimum.reduce(v))


def _validate_probs(probs: np.ndarray) -> None:
    if probs.ndim != 1 or probs.size < 1:
        raise ValidationError("probability vector must be 1-D and nonempty")
    total, least = _sum_and_min(probs)
    if abs(total - 1.0) <= PROB_ATOL and least >= 0:
        return
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
    total, least = _sum_and_min(w)
    if not (math.isfinite(total) and least >= 0):
        if not np.all(np.isfinite(w)):
            raise ValidationError("weights must be finite")
        if np.any(w < 0):
            raise ValidationError("weights must be nonnegative")
        # finite, nonnegative terms whose sum overflowed: scale by the largest
        w = w / w.max()
        total = float(w.sum())
    if total <= 0.0:
        raise ValidationError("weights must contain a strictly positive entry")
    return DiscreteDistribution(w / total)


def entropy(p: DiscreteDistribution) -> float:
    """Shannon entropy in bits, with the 0*log 0 = 0 convention."""
    probs = p.probs
    pos = probs[probs > 0]
    # + 0.0: a point mass sums to -0.0
    return float(-(pos * np.log2(pos)).sum()) + 0.0


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


def _gibbs_weights(log_base, energy: np.ndarray, beta: float) -> np.ndarray:
    """exp(log_base - beta * energy), shifted so the largest weight is exactly 1.

    The one Gibbs (maximum-entropy) law of the package, unnormalized: with
    log_base = ln p2 and the energy log2(p2/p1) at beta = lam ln 2 it is
    Chernoff's tilt p1^lam p2^(1-lam); with log_base = 0 and ground-shifted
    levels it is the Boltzmann law, whose largest exponent is then +-0.
    """
    log_w = log_base - beta * energy
    return np.exp(log_w - log_w.max())


def _tilt_mean(log_base, energy: np.ndarray, beta: float) -> float:
    # mean energy under the Gibbs weights at beta
    w = _gibbs_weights(log_base, energy, beta)
    return _weighted_mean(energy, w, w.sum())


def _weighted_mean(energy: np.ndarray, w: np.ndarray, z) -> float:
    # sum(energy * w) / z; where that sum overflows (silently inside
    # _solve_tilt), the least energy plus the mean above it under the
    # normalized weights, whose terms are at most the energies' finite span
    total = (energy * w).sum()
    if math.isfinite(total):
        return float(total / z)
    ground = float(energy.min())
    return ground + float(((energy - ground) * (w / z)).sum())


def _tilt_moments(log_base, energy: np.ndarray, beta: float, scaled: np.ndarray, scale: float):
    """Mean and variance of the energy at beta.

    The mean carries the bits of ``_tilt_mean``. The variance is taken on
    ``scaled = energy / scale`` so no square of a huge energy overflows; it
    steers Newton steps only.
    """
    w = _gibbs_weights(log_base, energy, beta)
    z = w.sum()
    mean = _weighted_mean(energy, w, z)
    dev = scaled - mean / scale
    return mean, float((dev * dev * w).sum() / z) * scale * scale


# Rounding error of _tilt_mean, which the certified bracket of _solve_tilt
# rests on. Let u = 2^-53, k = energy.size, l = log_base, A = max |e_i|,
# R = max e_i - min e_i, L = max |l_i|, and f(beta) the exact mean on these
# double inputs; f falls in beta (its slope is minus the variance).
# 1. beta * e_i, l_i - beta * e_i and the shift by the maximum m round once
#    each, so the computed exponent y_i is within u (2 beta |e_i| + |l_i| +
#    |y_i|) of l_i - beta * e_i - m, to first order. m is one constant for
#    every i, and the mean does not depend on it.
# 2. np.exp is taken to be within 4 ulp (8u relative; NumPy's SIMD exp
#    measured 0.69 ulp on 10^5 arguments), so each weight w_i = exp(y_i)
#    has relative error d_i <= 8u + u (2 beta A + L) + u |y_i|. A weight
#    below 2^-1021 has absolute error below 2^-1021 instead.
# 3. The mean under weights w_i (1 + d_i) is f + sum_i (e_i - f) p_i d_i /
#    (1 + sum_i p_i d_i), p the exact tilt, as sum_i (e_i - f) p_i = 0. A law
#    on an interval of length R has sum_i |e_i - f| p_i <= R / 2. The largest
#    weight is exp(0) = 1, so sum_i p_i |y_i| = H(p) - ln sum_i w_i <= ln k.
#    The weights thus move the mean by at most
#    (R / 2) (8u + u (2 beta A + L)) + u R ln k + k R 2^-1021.
# 4. k products and a sum of k terms in any order are within k u of
#    sum_i |e_i| w_i <= A sum_i w_i; the sum of weights within (k - 1) u of
#    itself; the quotient adds u A: at most (2k + 1) u A.
# The sum, times 1.1 for the second-order terms, is c0 + c1 * beta.


def _tilt_error_bound(log_base, energy: np.ndarray) -> tuple[float, float]:
    """(c0, c1) with |_tilt_mean(beta) - f(beta)| <= c0 + c1 * beta."""
    k = energy.size
    e_max, e_min = float(energy.max()), float(energy.min())
    a, r = max(e_max, -e_min), e_max - e_min
    l = float(np.abs(log_base).max())
    u = 2.0**-53
    c0 = 1.1 * (r * (4 * u + 0.5 * u * l + u * math.log(k) + k * 2.0**-1021) + (2 * k + 1) * u * a)
    return c0, 1.1 * u * a * r


def _certified_bracket(log_base, energy, target, hi, moments, scaled, scale, bound):
    """(a, b, evaluations) with every computed mean at beta <= a above
    ``target`` and every one at b <= beta <= hi at or below it.

    With ``bound`` = (c0, c1) and E(beta) = c0 + c1 * beta increasing, a
    point a whose computed mean exceeds the target by more than 2 E(a)
    certifies the left side: for beta <= a, _tilt_mean(beta) >= f(beta) -
    E(a) >= f(a) - E(a) >= _tilt_mean(a) - 2 E(a) > target. A point b whose
    computed mean falls short by at least 2 E(hi) certifies [b, hi] the same way.

    Safeguarded Newton steps from hi, whose ``moments`` (mean, variance)
    the bracket growth took, bring beta near the root; once a step is
    predicted to land within E / variance of it, the candidates a and b are
    placed 2.5 E / variance to either side and evaluated. Newton sets only
    where a and b fall, and so the speed, never the result.
    """
    # a Python float, so that Newton arithmetic overflowing to inf raises no
    # NumPy warning
    target = float(target)
    c0, c1 = bound
    margin_hi = 2.0 * (c0 + c1 * hi)
    a, b, evals = 0.0, hi, 0
    if not target - margin_hi > float(energy.min()):
        # no mean falls below the least energy, so none can certify b, and
        # half a bracket does not pay for the Newton steps
        return a, b, evals

    def record(x, mean):
        nonlocal a, b
        if mean - target > 2.0 * (c0 + c1 * x):
            a = max(a, x)
        elif target - mean >= margin_hi:
            b = min(b, x)

    x, xl, xr = hi, 0.0, hi
    mean, var = moments
    for _ in range(_NEWTON_MAX_ITER):
        x_new = x + (mean - target) / var if var > 0.0 else math.nan
        if xl <= x_new <= xr:
            step = x_new - x
            noise = (c0 + c1 * x_new) / var
            # Taylor estimate of the Newton error: the slope is -var and the
            # curvature the third central moment, at most R var here and
            # changing by at most 4 R^2 var per unit of beta
            miss = (0.5 * scale + 2.0 * scale * scale * abs(step)) * step * step
            if miss <= noise:
                break
        else:
            x_new = 0.5 * (xl + xr)
        x = x_new
        mean, var = _tilt_moments(log_base, energy, x, scaled, scale)
        evals += 1
        record(x, mean)
        if mean > target:
            xl = x
        else:
            xr = x
    else:
        return a, b, evals

    # evaluate candidates 2.5 E / var beyond the predicted root (the margin
    # 2 E and E / 2 for the rounding of their means), doubling on a miss
    for side, err in ((-1.0, c0 + c1 * x_new), (1.0, c0 + c1 * hi)):
        reach = miss + 2.5 * err / var
        for _ in range(3):
            cand = x_new + side * reach
            if not a < cand < b:
                break
            record(cand, _tilt_mean(log_base, energy, cand))
            evals += 1
            reach *= 2.0
    return a, b, evals


# one error state per solve: entering it costs a few percent of a solve
# where each mean evaluation would enter its own
@np.errstate(over="ignore", invalid="ignore")
def _solve_tilt(log_base, energy: np.ndarray, target: float):
    """The beta >= 0 at which exp(log_base - beta * energy) has mean ``target``.

    Returns (beta, evaluations, residual): the mean and moment evaluations
    made, and |mean(beta) - target| in the energy's units.

    The mean falls in beta, so the target must lie below the beta = 0 mean.
    The upper bracket grows geometrically from 1 until the mean undershoots;
    bisection then runs until the bracket collapses, since the mean curve
    flattens at large beta and an earlier stop would leave beta coarse.
    The bisection evaluates the mean only inside a bracket [a, b] that
    ``_certified_bracket`` places around the root: a mid at or below a, or
    at or above b, takes the side its evaluation would take. The result is
    the plain bisection's, bit for bit, at about a third of its evaluations.

    No tolerance is asked for. At the collapsed bracket [lo, hi] the computed
    means straddle the target, within E(hi) = c0 + c1 * hi of the exact mean,
    whose slope is minus the variance, at most R^2 / 4 for a span R. A residual
    above 2 E(hi) + (R^2 / 4) (hi - lo) (inf past R ~ 1e154) means the error
    model failed: ConvergenceError. A target at or above the beta = 0 mean gives 0.
    """
    hi = 1.0
    scale = float(energy.max() - energy.min()) or 1.0
    scaled = energy / scale
    evals = 0
    for _ in range(_TILT_MAX_ITER):
        moments = _tilt_moments(log_base, energy, hi, scaled, scale)
        evals += 1
        if moments[0] <= target:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("failed to bracket the target mean energy")

    c0, c1 = bound = _tilt_error_bound(log_base, energy)
    a, b, n = _certified_bracket(log_base, energy, target, hi, moments, scaled, scale, bound)
    evals += n
    lo, mean_lo, mean_hi = 0.0, None, moments[0]
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid <= a:
            lo, mean_lo = mid, None
        elif mid >= b:
            hi, mean_hi = mid, None
        else:
            mean = _tilt_mean(log_base, energy, mid)
            evals += 1
            if mean > target:
                lo, mean_lo = mid, mean
            else:
                hi, mean_hi = mid, mean
    beta = 0.5 * (lo + hi)
    # the collapsed bisection's midpoint is one of its ends, whose mean the
    # loop may already hold
    if beta == lo and mean_lo is not None:
        mean = mean_lo
    elif beta == hi and mean_hi is not None:
        mean = mean_hi
    else:
        mean = _tilt_mean(log_base, energy, beta)
        evals += 1
    residual = abs(mean - target)
    certificate = 2.0 * (c0 + c1 * hi) + 0.25 * scale * scale * (hi - lo)
    if residual > certificate and (beta > 0.0 or mean > target):
        raise ConvergenceError(
            f"bisection landed {residual} away from the target mean, beyond its bound {certificate}"
        )
    return beta, evals, residual


def log_factorial(k: int) -> float:
    """ln k!; compensated summation for small k, lgamma above the cutoff."""
    try:
        # int() raises on inf and nan, so they are refused first
        if k < 0 or not math.isfinite(k) or k != int(k):
            raise ValidationError("log_factorial requires a nonnegative integer")
        k = int(k)
        if k <= _LOG_FACT_CUTOFF:
            return _small_log_fact_table()[k]
        return math.lgamma(k + 1.0)
    except OverflowError:
        # k itself, k + 1.0 or ln k! lies beyond the double range
        raise ValidationError("log_factorial requires ln k! within the double range") from None


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
def log_factorial_residual(n: int) -> float:
    """ln n! - log_factorial(n), the rounding left in the double, from ln n!
    to 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        return float(Decimal(math.factorial(n)).ln() - Decimal(log_factorial(n)))


@lru_cache(maxsize=64)
def log_factorial_table(n: int) -> np.ndarray:
    """Read-only table of ln k! for k = 0..n, shared by the type kernels."""
    table = np.array([log_factorial(k) for k in range(n + 1)])
    table.flags.writeable = False
    return table
