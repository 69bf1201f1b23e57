"""Asymptotic binary hypothesis testing.

Exact log2 error probabilities of the Stein region and of the randomized
Neyman-Pearson optimum, from one pass over the types, and Chernoff
information by the Boltzmann tilt solver. All error probabilities are
computed exactly over type classes: the log likelihood ratio is
type-measurable, so no Monte Carlo is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import LN2, DiscreteDistribution, TiltedFamily, _solve_tilt, kl_divergence
from .errors import DegenerateHypothesisError, ValidationError
from .types_method import (
    ENUMERATION_CAP,
    EmpiricalType,
    _check_delta,
    _exp2,
    _log2_prob,
    _log2_sum_exp2,
    _log2q,
    _rows_walk,
    _walk_scores,
    _walk_types,
)


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
        # written so that a NaN prior fails it
        if not (pi1 > 0 and pi2 > 0 and abs(pi1 + pi2 - 1.0) <= 1e-12):
            raise ValidationError("priors must be positive and sum to 1")
        object.__setattr__(self, "priors", (float(pi1), float(pi2)))


@dataclass(frozen=True)
class SteinReport:
    """Exact log2 error probabilities of the two-sided LLR acceptance region
    and of the randomized Neyman-Pearson optimum at level epsilon, from one
    pass over the n-types. Each is at most 0, and finite wherever the
    probability is positive, however far below the double range."""

    n: int
    delta: float
    epsilon: float
    log2_alpha: float  # log2 P1(reject) of the region
    log2_beta: float  # log2 P2(accept) of the region
    np_log2_beta: float  # log2 of the least P2(accept) with P1(reject) <= epsilon


@dataclass(frozen=True)
class ChernoffReport:
    """Equalizing tilt and the resulting Chernoff information, in bits."""

    lambda_star: float
    c_info: float
    d1: float
    d2: float
    iterations: int  # mean and moment evaluations of the tilt solver
    residual: float  # |D(P_lam||p1) - D(P_lam||p2)| at lambda_star, bits


def _llr_weights(log2p1: np.ndarray, log2p2: np.ndarray) -> np.ndarray:
    """log2 p1(a) / p2(a) per symbol, the weights of the log likelihood ratio.

    Types carrying mass where p1 = 0 get -inf; both-zero symbols would give
    nan but such types have probability zero under either hypothesis, so the
    weight is forced to -inf (outside every region, never accepted first).
    p2 > 0 wherever p1 > 0 (D(p1||p2) is finite), so no ratio is +inf.
    """
    with np.errstate(invalid="ignore"):
        diff = log2p1 - log2p2
    diff[np.isnan(diff)] = -np.inf
    return diff


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 0.5:
        raise ValidationError("epsilon must lie in (0, 1/2)")


def stein_region_membership(
    t: EmpiricalType, h: BinaryHypothesis, delta: float
) -> bool:
    """Whether the type lies in the band |avg LLR - D(p1||p2)| <= delta."""
    _check_delta(delta)
    if t.alphabet_size != h.p1.alphabet_size:
        raise ValidationError("type and hypothesis must share an alphabet")
    llr = float(_type_scores(h, t.n, _rows_walk([t.counts]))[0][0])
    d = kl_divergence(h.p1, h.p2)
    return d - delta <= llr <= d + delta


def _type_scores(h: BinaryHypothesis, n: int, walk):
    """(avg LLR, log2 P1, log2 P2) of every type of ``walk``, in its order.

    ``walk`` is a :func:`_walk_types` walk over the n-types or a
    :func:`_rows_walk` over given types. One log2 multinomial coefficient
    serves both hypotheses, and no count matrix is formed. The scores carry
    the bits of ``avg_llr_rows`` and ``type_log_probs`` of
    ``tests/row_oracle.py`` on the column-major count matrix. Every value
    depends on its own type only, so a type scores the same bits in any
    walk, and selecting entries of the scores gives the same bits as
    scoring the selected types.
    """
    log2p1, log2p2 = _log2q(h.p1), _log2q(h.p2)
    weights = [_llr_weights(log2p1, log2p2)]
    (lp1, lp2), (llr,) = _walk_scores(walk, n, [log2p1, log2p2], weights=weights)
    llr /= n
    return llr, lp1, lp2


def _np_threshold(epsilon: float, llr: np.ndarray, w: np.ndarray):
    """(t, gamma) of the NP test with p1 weights ``w``, or None where the
    whole p1 mass is within epsilon.

    A weighted quickselect of the threshold t from below: the p1 mass
    strictly below t is at most epsilon, and with the tie class at t it
    exceeds it. The rejected mass is the smaller side (epsilon < 1/2), so
    its sums keep their relative accuracy where 1 - epsilon would round.
    """
    vals, below = llr, 0.0
    while vals.size:
        pivot = np.partition(vals, vals.size // 2)[vals.size // 2]
        lo = vals < pivot
        m_lo = w[lo].sum()
        if below + m_lo > epsilon:
            vals, w = vals[lo], w[lo]
            continue
        eq = vals == pivot
        m_eq = w[eq].sum()
        if below + m_lo + m_eq > epsilon:
            # accept the fraction gamma > 0 of the tie class that brings alpha
            # to epsilon
            return pivot, min(1.0, (below + m_lo + m_eq - epsilon) / m_eq)
        below += m_lo + m_eq
        hi = vals > pivot
        vals, w = vals[hi], w[hi]
    return None


def _np_log2_min_beta(epsilon: float, scores) -> float:
    """log2 of the NP optimum from the type scores. The p1 weights are
    formed in place of the scores' log2 P1 vector, which is lost."""
    llr, lp1, lp2 = scores
    threshold = _np_threshold(epsilon, llr, _exp2(lp1, out=lp1))
    if threshold is None:
        # the whole p1 mass is within epsilon: reject every type
        return -math.inf
    pivot, gamma = threshold
    # the tie class shares one likelihood ratio, so randomizing it whole
    # gives the same beta as randomizing it type by type
    tie = math.log2(gamma) + _log2_sum_exp2(lp2, llr == pivot)
    return _log2_prob(lp2, llr > pivot, tail=[tie])


def stein_errors(
    h: BinaryHypothesis,
    n: int,
    delta: float,
    epsilon: float,
    cap: int = ENUMERATION_CAP,
) -> SteinReport:
    """log2 of the exact errors of the Stein region |avg LLR - D(p1||p2)| <=
    delta, and of the Neyman-Pearson optimum at level epsilon.

    The optimal test is a threshold t on the likelihood ratio (the
    Neyman-Pearson lemma): it accepts every type above t, rejects every type
    below, and accepts the tie class at t with the probability that makes
    alpha exactly epsilon. t is found by weighted selection on the p1 mass
    below candidate thresholds, without sorting the types. Both arguments
    are checked before anything is enumerated, and one type pass serves
    both tests.
    """
    _check_delta(delta)
    _check_epsilon(epsilon)
    scores = _type_scores(h, n, _walk_types(n, h.p1.alphabet_size, cap))
    llr, lp1, lp2 = scores
    d = kl_divergence(h.p1, h.p2)
    member = llr >= d - delta
    member &= llr <= d + delta
    log2_beta = _log2_prob(lp2, member)
    # sum the rejected p1 mass itself: 1 - (accepted mass) loses every digit
    # of an alpha below the rounding of 1
    log2_alpha = _log2_prob(lp1, np.logical_not(member, out=member))
    # the NP pass overwrites log2 P1, so it runs after alpha is summed
    return SteinReport(
        n=n,
        delta=delta,
        epsilon=epsilon,
        log2_alpha=log2_alpha,
        log2_beta=log2_beta,
        np_log2_beta=_np_log2_min_beta(epsilon, scores),
    )


def chernoff_lambda_star(h: BinaryHypothesis, tol: float = 1e-10) -> ChernoffReport:
    """Equalize D(P_lam||p1) = D(P_lam||p2) with the tilt solver of ``solve_beta``.

    g(lam) = D(P_lam||p1) - D(P_lam||p2) is the mean energy log2(p2/p1) under
    P_lam = p1^lam p2^(1-lam) / Z = p2 exp(-lam ln2 * energy) / Z. It falls from
    D(p2||p1) > 0 to -D(p1||p2) < 0, so lam* solves mean 0 with ``tol`` in bits.
    """
    if not tol > 0:
        raise ValidationError("tolerance must be positive")
    if h.p1 == h.p2:
        raise DegenerateHypothesisError("hypotheses are identical")
    if math.isinf(kl_divergence(h.p2, h.p1)):
        raise ValidationError("D(p2||p1) must be finite for the tilted family")

    # p1, p2 share this support; log1p is accurate where they nearly agree,
    # but (p2 - p1)/p1 rounds toward -1 as p2/p1 -> 0, so ln p2 - ln p1 there
    support = h.p2.probs > 0
    p1, p2 = h.p1.probs[support], h.p2.probs[support]
    near = np.abs(p2 - p1) < 0.5 * p1
    energy = np.log(p2) - np.log(p1)
    energy[near] = np.log1p((p2[near] - p1[near]) / p1[near])
    beta, iterations, residual = _solve_tilt(np.log(p2), energy / LN2, 0.0, tol)
    lam = beta / LN2
    if lam > 1.0:
        # the exact g(1) = -D(p1||p2) < 0 puts lam* inside [0, 1]; the
        # computed g(1) can only be >= 0 where that divergence is below the
        # rounding of the normalized probabilities
        raise DegenerateHypothesisError(
            "hypotheses differ by less than the rounding of their normalization: "
            "the equalizing tilt falls outside [0, 1]"
        )

    p_star = TiltedFamily(h.p1, h.p2).at(lam)
    # D >= 0; a float sum of near-cancelling terms can round below it
    d1 = max(0.0, kl_divergence(p_star, h.p1))
    d2 = max(0.0, kl_divergence(p_star, h.p2))
    return ChernoffReport(
        lambda_star=lam,
        c_info=max(d1, d2),
        d1=d1,
        d2=d2,
        iterations=iterations,
        residual=residual,
    )


def bayesian_error_exponent(h: BinaryHypothesis, n: int) -> float:
    """Best achievable Bayesian error exponent in bits.

    Independent of both n and the priors: any fixed positive prior pair
    yields the same exponent, the Chernoff information of (p1, p2).
    """
    if n < 1:
        raise ValidationError("n must be positive")
    return chernoff_lambda_star(h).c_info
