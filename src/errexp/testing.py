"""Asymptotic binary hypothesis testing.

Exact Stein-region error probabilities, the exact randomized Neyman-Pearson
optimum, and Chernoff information via bisection on the tilted family. All
error probabilities are computed exactly over type classes: the log
likelihood ratio is type-measurable, so no Monte Carlo is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import log2_multinomial, type_log_probs
from .dist import DiscreteDistribution, TiltedFamily, kl_divergence, log_factorial_table, tilted
from .errors import ConvergenceError, DegenerateHypothesisError, ValidationError
from .types_method import (
    ENUMERATION_CAP,
    EmpiricalType,
    _enumerate_counts,
    _log2_sum_exp2,
    _log2q,
)

_BISECTION_MAX_ITER = 200


@dataclass(frozen=True)
class BinaryHypothesis:
    """Two candidate sources over a shared alphabet, with positive priors."""

    p1: DiscreteDistribution
    p2: DiscreteDistribution
    priors: tuple = (0.5, 0.5)

    def __post_init__(self):
        if self.p1.alphabet_size != self.p2.alphabet_size:
            raise ValidationError("hypotheses must share an alphabet")
        if math.isinf(kl_divergence(self.p1, self.p2)):
            raise ValidationError("D(p1||p2) must be finite")
        pi1, pi2 = self.priors
        if pi1 <= 0 or pi2 <= 0 or abs(pi1 + pi2 - 1.0) > 1e-12:
            raise ValidationError("priors must be positive and sum to 1")
        object.__setattr__(self, "priors", (float(pi1), float(pi2)))


@dataclass(frozen=True)
class SteinReport:
    """Exact error probabilities of the two-sided LLR acceptance region."""

    n: int
    delta: float
    alpha_n: float
    beta_n: float
    exponent: float  # -(1/n) log2 beta_n, bits


@dataclass(frozen=True)
class ChernoffReport:
    """Equalizing tilt and the resulting Chernoff information, in bits."""

    lambda_star: float
    c_info: float
    d1: float
    d2: float


def _avg_llr_rows(counts: np.ndarray, h: BinaryHypothesis) -> np.ndarray:
    """Per-symbol average log2 likelihood ratio for each type row.

    Types carrying mass where p1 = 0 get -inf; both-zero symbols would give
    nan but such types have probability zero under either hypothesis, so the
    value is forced to -inf (outside every region, never accepted first).
    """
    n = counts.sum(axis=1)
    with np.errstate(invalid="ignore"):
        diff = _log2q(h.p1) - _log2q(h.p2)
        terms = np.where(counts > 0, counts * diff, 0.0)
        llr = terms.sum(axis=1) / n
    return np.nan_to_num(llr, nan=-np.inf, posinf=np.inf, neginf=-np.inf)


def stein_region_membership(
    t: EmpiricalType, h: BinaryHypothesis, delta: float
) -> bool:
    """Whether the type lies in the band |avg LLR - D(p1||p2)| <= delta."""
    if delta <= 0:
        raise ValidationError("delta must be positive")
    if t.alphabet_size != h.p1.alphabet_size:
        raise ValidationError("type and hypothesis must share an alphabet")
    counts = np.asarray(t.counts, dtype=np.int64)[None, :]
    llr = float(_avg_llr_rows(counts, h)[0])
    d = kl_divergence(h.p1, h.p2)
    return d - delta <= llr <= d + delta


def stein_errors(
    h: BinaryHypothesis, n: int, delta: float, cap: int = ENUMERATION_CAP
) -> SteinReport:
    """Exact alpha_n and beta_n of the Stein acceptance region."""
    if delta <= 0:
        raise ValidationError("delta must be positive")
    counts = _enumerate_counts(n, h.p1.alphabet_size, cap)
    llr = _avg_llr_rows(counts, h)
    d = kl_divergence(h.p1, h.p2)
    member = (llr >= d - delta) & (llr <= d + delta)

    table = log_factorial_table(n)
    counts = counts[member]
    log2_mult = log2_multinomial(counts, table)
    lp1 = type_log_probs(counts, _log2q(h.p1), table, log2_mult)
    lp2 = type_log_probs(counts, _log2q(h.p2), table, log2_mult)
    alpha = 1.0 - float(np.exp2(lp1[np.isfinite(lp1)]).sum())
    alpha = min(1.0, max(0.0, alpha))
    log2_beta = _log2_sum_exp2(lp2)
    beta = min(1.0, 2.0**log2_beta)
    exponent = math.inf if log2_beta == -math.inf else -log2_beta / n
    return SteinReport(n=n, delta=delta, alpha_n=alpha, beta_n=beta, exponent=exponent)


def neyman_pearson_min_beta(
    h: BinaryHypothesis, n: int, epsilon: float, cap: int = ENUMERATION_CAP
) -> float:
    """Exact minimal beta over randomized tests with alpha <= epsilon.

    Type classes are admitted in decreasing likelihood-ratio order until the
    accepted p1-mass reaches 1 - epsilon; the boundary class is accepted with
    the fractional probability that lands exactly on the constraint.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValidationError("epsilon must lie in (0, 1/2)")
    counts = _enumerate_counts(n, h.p1.alphabet_size, cap)
    llr = _avg_llr_rows(counts, h)
    table = log_factorial_table(n)
    log2_mult = log2_multinomial(counts, table)
    lp1 = type_log_probs(counts, _log2q(h.p1), table, log2_mult)
    lp2 = type_log_probs(counts, _log2q(h.p2), table, log2_mult)

    # descending LLR; the rows are in ascending lexicographic order, so a
    # stable sort breaks ties by the count vector
    order = np.argsort(-llr, kind="stable")
    # scalar pow, not np.exp2: the array routine can differ by 1 ulp
    mass1 = np.array([2.0**x for x in lp1[order].tolist()])
    # sequential running sum, the same additions as a loop over the order
    accepted = np.cumsum(mass1)

    target = 1.0 - epsilon
    boundary = int(np.searchsorted(accepted, target, side="left"))
    log2_beta_terms = lp2[order[:boundary]]
    if boundary < len(order) and mass1[boundary] > 0.0:
        accepted_p1 = float(accepted[boundary - 1]) if boundary else 0.0
        gamma = min(1.0, (target - accepted_p1) / mass1[boundary])
        lp2_boundary = lp2[order[boundary]]
        if gamma > 0.0 and np.isfinite(lp2_boundary):
            log2_beta_terms = np.append(log2_beta_terms, math.log2(gamma) + lp2_boundary)
    log2_beta = _log2_sum_exp2(log2_beta_terms)
    return min(1.0, 2.0**log2_beta)


def chernoff_lambda_star(h: BinaryHypothesis, tol: float = 1e-10) -> ChernoffReport:
    """Equalize D(P_lam||p1) = D(P_lam||p2) by bisection.

    g(lam) = D(P_lam||p1) - D(P_lam||p2) starts at D(p2||p1) > 0 and ends at
    -D(p1||p2) < 0, so the bracket [0, 1] always carries a sign change.
    """
    if tol <= 0:
        raise ValidationError("tolerance must be positive")
    if h.p1 == h.p2:
        raise DegenerateHypothesisError("hypotheses are identical")
    if math.isinf(kl_divergence(h.p2, h.p1)):
        raise ValidationError("D(p2||p1) must be finite for the tilted family")

    family = TiltedFamily(h.p1, h.p2)

    def g(lam: float) -> float:
        p_lam = tilted(family, lam)
        return kl_divergence(p_lam, h.p1) - kl_divergence(p_lam, h.p2)

    lo, hi = 0.0, 1.0
    if not (g(lo) > 0.0 and g(hi) < 0.0):
        raise ConvergenceError("no sign change on [0, 1]: support pathology")
    lam = 0.5
    for _ in range(_BISECTION_MAX_ITER):
        lam = 0.5 * (lo + hi)
        val = g(lam)
        if abs(val) <= tol:
            break
        if val > 0.0:
            lo = lam
        else:
            hi = lam
    else:
        raise ConvergenceError(
            f"bisection did not reach |g| <= {tol} in {_BISECTION_MAX_ITER} iterations"
        )
    p_star = tilted(family, lam)
    d1 = kl_divergence(p_star, h.p1)
    d2 = kl_divergence(p_star, h.p2)
    return ChernoffReport(lambda_star=lam, c_info=max(d1, d2), d1=d1, d2=d2)


def bayesian_error_exponent(h: BinaryHypothesis, n: int) -> float:
    """Best achievable Bayesian error exponent in bits.

    Independent of both n and the priors: any fixed positive prior pair
    yields the same exponent, the Chernoff information of (p1, p2).
    """
    if n < 1:
        raise ValidationError("n must be positive")
    return chernoff_lambda_star(h).c_info
