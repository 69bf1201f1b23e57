"""Discrete distributions, entropy, relative entropy, and the Gibbs tilt solver.

Information quantities in this module are in bits (base 2); the Boltzmann
module works in natural log. ``LN2`` is the single conversion constant
between the two conventions.

Every relative entropy D comes from one kernel, ``_divergence_terms``
(``kl_divergence``, Chernoff's d1 and d2, Sanov's d*, the deviation sum's
table; ``_divergence_term_floats`` is its float branch, below), and every
entropy sums the terms of ``_xlog2x``.

The paper's two applications tilt by one Gibbs law, exp(log_base - beta *
energy) / Z, whose weights ``_gibbs_weights`` forms in the log domain:
Chernoff's P_lam = p1^lam p2^(1-lam) / Z is it with base ln p2, energy
log2(p2/p1) and beta = lam ln 2, and the Boltzmann law exp(-beta * eps) / Z
with a flat base over ground-shifted levels. ``_solve_tilt`` finds the beta
at which either has a target mean energy.

Below ``_SHORT_SUM`` = 8 entries, where NumPy costs more per call than the
arithmetic, these run on lists of Python floats: validation
(``_sum_and_min``), the tilt solver's bound and mean (``_tilt_floats``),
Chernoff's set-up and d1/d2 (``testing``), and the Boltzmann checks, uniform
mean and law (``boltzmann``); the divergence kernel does so up to 16
arguments (``_divergence_term_floats``, also Sanov's d*). Each keeps the bits
of the array code on NumPy premises that ``tests/test_dist.py`` checks: the
products, differences and shifts are the same IEEE operations on floats;
np.exp, np.log, np.log1p and np.expm1 of a list are the call on the array
(NumPy's SIMD exp differs from math.exp in the last bit); add.reduce sums
fewer than 8 terms, also along a row, left to right from 0.0, as
``_sum_floats`` does; and minimum.reduce keeps the last of equal entries, as
min of the reversed list does, which tells -0.0 from 0.0. From 8 terms on
NumPy sums pairwise, in an order no short Python loop matches, so larger
inputs keep the arrays, as do vectors whose sum is not finite in validation
and d1/d2 at masses below about 1e-305.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
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

# cap on the secant steps that place the tilt solver's certified bracket
_SECANT_MAX_ITER = 12

# NumPy's add.reduce sums fewer terms than this left to right, more pairwise
# (module docstring); below it the float branches keep the arrays' bits
_SHORT_SUM = 8

# a left-to-right sum of floats from 0.0; from Python 3.12 on, sum() of
# floats is compensated and no longer NumPy's short sum
if sys.version_info < (3, 12):
    _sum_floats = sum
else:

    def _sum_floats(v):
        return functools.reduce(operator.add, v, 0.0)

# below this |x| psi(x) comes from its series, whose Horner coefficients
# 2 / (2m + 3), m = 10..0, leave a tail under 2^-55 of psi; up to
# _PSI_FLOATS arguments it runs on Python floats, 10x cheaper than NumPy
_PSI_SERIES, _PSI_FLOATS = 0.35, 16
_PSI_COEFFS = tuple(2.0 / (2 * m + 3) for m in range(10, -1, -1))


def _sum_and_min(v: np.ndarray) -> tuple[float, float]:
    """The sum and the least entry of a nonempty 1-D vector, two reductions.

    A finite sum has only finite terms, and min >= 0 holds exactly when no
    entry is < 0 (-0.0 passes both), so a vector with a finite sum and
    min >= 0 passes the element-wise finite and nonnegative checks, which
    the validators run only for the other vectors. Both are NumPy's to the
    bit, from the list below ``_SHORT_SUM`` entries where the sum is finite.
    NumPy's warnings are off here: a vector that fails the two tests meets
    the element-wise checks, which warn where they sum, as before.
    """
    if v.size < _SHORT_SUM:
        vals = v.tolist()
        total = _sum_floats(vals)
        if math.isfinite(total):
            # NumPy's minimum keeps the last of equal entries: -0.0 or 0.0
            return total, min(reversed(vals))
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


def _xlog2x(v: np.ndarray) -> np.ndarray:
    """v log2 v, 0 where v = 0: the terms of -H in bits, all of one sign."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(v > 0, v * np.log2(v), 0.0)


def entropy(p: DiscreteDistribution) -> float:
    """Shannon entropy in bits: minus the sum of the :func:`_xlog2x` terms of
    the entries p > 0, all of one sign, so within a few ulps relative."""
    probs = p.probs
    # + 0.0: a point mass sums to -0.0
    return float(-_xlog2x(probs[probs > 0]).sum()) + 0.0


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _divergence_terms(diff: np.ndarray, q: np.ndarray) -> np.ndarray:
    """q psi(diff / q) / ln 2 element-wise, psi(x) = (1 + x) ln(1 + x) - x >= 0.

    With p = q + diff this is p log2(p / q) - (p - q) / ln 2, so D(p||q) is
    the sum of the terms plus sum(p - q) / ln 2, which the caller adds once
    and exactly. Each term is within a few ulps of its value however close
    p is to q, where p log2(p / q) cancels to nothing: below |x| =
    ``_PSI_SERIES`` psi is its series, above it the direct form, which
    cancels by at most 8x. An element's term has the same bits in any array.
    p = 0 gives psi = 1; q = 0 gives 0 (diff = 0) or inf; where p / q or
    psi overflows, at q below about 1e-305, the term is p (ln p - ln q) - diff.
    """
    x = diff / q
    psi = np.log1p(x)
    psi *= 1.0 + x
    psi -= x
    # nonzero and count_nonzero: a third of the cost of flatnonzero and all
    near = (np.abs(x) < _PSI_SERIES).ravel().nonzero()[0]
    if near.size > _PSI_FLOATS:
        psi.flat[near] = _psi_series(x.flat[near])
    elif near.size:
        psi.flat[near] = [_psi_series(v) for v in x.flat[near].tolist()]
    psi *= q
    if np.count_nonzero(np.isfinite(psi)) < psi.size:
        p = q + diff
        far = p * (np.log(p) - np.log(q)) - diff
        psi = np.where(np.isfinite(psi), psi, np.where(x <= -1.0, q, far))
        psi = np.where(q == 0, np.where(diff > 0, np.inf, 0.0), psi)
    psi /= LN2
    return psi


def _divergence_term_floats(diff, q) -> list | None:
    """The :func:`_divergence_terms` of sequences of Python floats, bit for bit,
    with np.log1p the one NumPy call; None where some q is 0 or a term other
    than p = 0's is not finite, cases left to the array kernel."""
    if 0.0 in q:
        return None
    x = [d / v for d, v in zip(diff, q)]
    # the term at x <= -1 (p <= 0) is q; 0.0 keeps np.log1p quiet there
    log1p = np.log1p([v if v > -1.0 else 0.0 for v in x]).tolist()
    terms = []
    for lx, xi, qi in zip(log1p, x, q):
        if xi <= -1.0:
            term = qi
        else:
            term = (_psi_series(xi) if abs(xi) < _PSI_SERIES else lx * (1.0 + xi) - xi) * qi
            if not math.isfinite(term):
                return None
        terms.append(term / LN2)
    return terms


def _psi_series(x):
    """psi(x) = u (2 + (t + u) S(u)) / (1 - t), t = x / (2 + x), u = t^2, S(u)
    = sum_m 2 u^m / (2m + 3); on an array or a float alike, to the bit."""
    t = x / (2.0 + x)
    u = t * t
    s = _PSI_COEFFS[0]
    for c in _PSI_COEFFS[1:]:
        s = s * u + c
    return u * (2.0 + (t + u) * s) / (1.0 - t)


def kl_divergence(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Relative entropy D(p||q) in bits; +inf when p puts mass outside supp q.

    The :func:`_divergence_terms` plus sum(p - q) / ln 2 by ``math.fsum``:
    within about 1e-15 relative, however close p is to q.
    """
    if p.alphabet_size != q.alphabet_size:
        raise ValidationError("distributions must share an alphabet")
    pp, qq = p.probs, q.probs
    linear = math.fsum([*pp.tolist(), *(-qq).tolist()])
    return float(_divergence_terms(pp - qq, qq).sum()) + linear / LN2


def _gibbs_weights(log_base, energy, beta: float):
    """exp(log_base - beta * energy), shifted so the largest weight is exactly 1.

    The one Gibbs (maximum-entropy) law of the package, unnormalized: with
    log_base = ln p2 and the energy log2(p2/p1) at beta = lam ln 2 it is
    Chernoff's tilt p1^lam p2^(1-lam); with log_base = 0 and ground-shifted
    levels it is the Boltzmann law, whose largest exponent is then +-0.
    """
    if isinstance(energy, list):
        log_w = [l - beta * e for l, e in zip(log_base, energy)]
        top = max(log_w)
        return np.exp([y - top for y in log_w]).tolist()
    log_w = log_base - beta * energy
    return np.exp(log_w - log_w.max())


def _tilt_floats(log_base, energy):
    """The tilt solver's (log_base, energy): below ``_SHORT_SUM`` energies
    two lists of Python floats, a scalar base repeated, on which the Gibbs
    helpers take their float branch; the arguments as given otherwise."""
    if len(energy) >= _SHORT_SUM:
        return log_base, energy
    if isinstance(log_base, float):
        log_base = [log_base] * len(energy)
    return list(map(float, log_base)), list(map(float, energy))


def _tilt_mean(log_base, energy, beta: float) -> float:
    # mean energy under the Gibbs weights at beta
    w = _gibbs_weights(log_base, energy, beta)
    return _weighted_mean(energy, w, _sum_floats(w) if isinstance(w, list) else w.sum())


def _weighted_mean(energy, w, z) -> float:
    # sum(energy * w) / z; where that sum overflows (silently inside
    # _solve_tilt), the least energy plus the mean above it under the
    # normalized weights, whose terms are at most the energies' finite span
    if isinstance(energy, list):
        total = _sum_floats([e * x for e, x in zip(energy, w)])
        if math.isfinite(total):
            return total / z
        ground = min(energy)
        return ground + _sum_floats([(e - ground) * (x / z) for e, x in zip(energy, w)])
    total = (energy * w).sum()
    if math.isfinite(total):
        return float(total / z)
    ground = float(energy.min())
    return ground + float(((energy - ground) * (w / z)).sum())


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
# The float branch (_tilt_floats, below _SHORT_SUM = 8 energies) rounds
# exactly as the arrays do, so the bound covers both.
# The sum, times 1.1 for the second-order terms, is c0 + c1 * beta.


def _tilt_error_bound(log_base, energy):
    """(c0, c1, least, span): |_tilt_mean(beta) - f(beta)| <= c0 + c1 * beta,
    and the least energy and R, from the lists of ``_tilt_floats`` or arrays."""
    k, short = len(energy), isinstance(energy, list)
    e_min, e_max = (min(energy), max(energy)) if short else (energy.min(), energy.max())
    l = max(map(abs, log_base)) if short else float(np.abs(log_base).max())
    e_min, e_max = float(e_min), float(e_max)
    a, r = max(e_max, -e_min), e_max - e_min
    u = 2.0**-53
    c0 = 1.1 * (r * (4 * u + 0.5 * u * l + u * math.log(k) + k * 2.0**-1021) + (2 * k + 1) * u * a)
    return c0, 1.1 * u * a * r, e_min, r


def _certified_bracket(mean, target: float, hi: float, scale: float, bound):
    """(a, b) with every computed mean at beta <= a above ``target`` and
    every one at b <= beta <= hi at or below it.

    ``mean(beta)`` is the solver's memoized mean. With ``bound`` = (c0, c1)
    and E(beta) = c0 + c1 * beta increasing, a point a whose computed mean
    exceeds the target by more than 2 E(a) certifies the left side: for
    beta <= a, _tilt_mean(beta) >= f(beta) - E(a) >= f(a) - E(a) >=
    _tilt_mean(a) - 2 E(a) > target. A point b whose computed mean falls
    short by at least 2 E(hi) certifies [b, hi] the same way.

    Safeguarded secant steps from hi / 2 and hi (the bracket growth's last
    two points once hi > 1) bring beta near the root; once a step is
    predicted to land within E / slope of it, the candidates a and b are
    placed 2.5 E / slope to either side and evaluated. The secant sets only
    where a and b fall, and so the speed, never the result.
    """
    c0, c1 = bound
    margin_hi = 2.0 * (c0 + c1 * hi)
    a, b = 0.0, hi

    def record(x):
        nonlocal a, b
        m = mean(x)
        if m - target > 2.0 * (c0 + c1 * x):
            a = max(a, x)
        elif target - m >= margin_hi:
            b = min(b, x)
        return m

    x0, x1 = 0.5 * hi, hi
    m0, m1 = record(x0), record(x1)
    xl, xr = (x0, x1) if m0 > target else (0.0, x0)
    for _ in range(_SECANT_MAX_ITER):
        # the mean falls by the variance per unit beta (slope, somewhere
        # between the points) and curves by the third central moment, at
        # most R var: the secant root misses by curvature / (2 var) |x - x1|
        # |x - x0|, and the variance cancels
        slope = (m0 - m1) / (x1 - x0)
        x = x1 + (m1 - target) / slope if slope > 0.0 else math.nan
        if xl <= x <= xr:
            noise = (c0 + c1 * x) / slope
            miss = 0.5 * scale * abs(x - x1) * abs(x - x0)
            if miss <= noise:
                break
        else:
            x = 0.5 * (xl + xr)
            if x == xl or x == xr:
                return a, b
        m = record(x)
        if m > target:
            xl = x
        else:
            xr = x
        x0, m0, x1, m1 = x1, m1, x, m
    else:
        return a, b

    # evaluate candidates 2.5 E / slope beyond the predicted root (the margin
    # 2 E and E / 2 for the rounding of their means), doubling on a miss
    for side, err in ((-1.0, c0 + c1 * x), (1.0, c0 + c1 * hi)):
        reach = miss + 2.5 * err / slope
        for _ in range(3):
            cand = x + side * reach
            if not a < cand < b:
                break
            record(cand)
            reach *= 2.0
    return a, b


# one error state per solve: entering it costs a few percent of a solve
# where each mean evaluation would enter its own
@np.errstate(over="ignore", invalid="ignore")
def _solve_tilt(log_base, energy, target: float):
    """The beta >= 0 at which exp(log_base - beta * energy) has mean ``target``.

    Returns (beta, evaluations, residual): the distinct betas whose mean was
    evaluated, and |mean(beta) - target| in the energy's units.

    The mean falls in beta, so the target must lie below the beta = 0 mean.
    The upper bracket grows geometrically from 1 until the mean undershoots;
    bisection then runs until the bracket collapses, since the mean curve
    flattens at large beta and an earlier stop would leave beta coarse.
    The bisection evaluates the mean only inside a bracket [a, b] that
    ``_certified_bracket`` places around the root: a mid at or below a, or
    at or above b, takes the side its evaluation would take. The result is
    the plain bisection's, bit for bit, at about a third of its evaluations.
    Every evaluation goes through one memo per solve, so no beta is
    evaluated twice; below ``_SHORT_SUM`` energies, given as lists or not,
    each runs on the lists that ``_tilt_floats`` makes once per solve.

    No tolerance is asked for. At the collapsed bracket [lo, hi] the computed
    means straddle the target, within E(hi) = c0 + c1 * hi of the exact mean,
    whose slope is minus the variance, at most R^2 / 4 for a span R. A residual
    above 2 E(hi) + (R^2 / 4) (hi - lo) (inf past R ~ 1e154) means the error
    model failed: ConvergenceError. A target at or above the beta = 0 mean gives 0.
    """
    # a Python float, so that secant arithmetic overflowing to inf raises no
    # NumPy warning
    target = float(target)
    log_base, energy = _tilt_floats(log_base, energy)
    c0, c1, least, scale = _tilt_error_bound(log_base, energy)
    bound, scale = (c0, c1), scale or 1.0
    memo = {}

    def mean(beta):
        m = memo.get(beta)
        if m is None:
            m = memo[beta] = _tilt_mean(log_base, energy, beta)
        return m

    hi = 1.0
    for _ in range(_TILT_MAX_ITER):
        if mean(hi) <= target:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("failed to bracket the target mean energy")

    # no mean falls below the least energy, so a target within 2 E(hi) of it
    # leaves b uncertifiable, and half a bracket does not pay for the steps
    if target - 2.0 * (c0 + c1 * hi) > least:
        a, b = _certified_bracket(mean, target, hi, scale, bound)
    else:
        a, b = 0.0, hi
    lo = 0.0
    while True:
        beta = 0.5 * (lo + hi)
        if beta == lo or beta == hi:
            break
        if beta <= a or (beta < b and mean(beta) > target):
            lo = beta
        else:
            hi = beta
    # the collapsed midpoint is one of the ends, which the memo may hold
    m = mean(beta)
    residual = abs(m - target)
    certificate = 2.0 * (c0 + c1 * hi) + 0.25 * scale * scale * (hi - lo)
    if residual > certificate and (beta > 0.0 or m > target):
        raise ConvergenceError(
            f"bisection landed {residual} away from the target mean, beyond its bound {certificate}"
        )
    return beta, len(memo), residual


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
