"""The enumerated Sanov path, kept as the reference for the closed form.

``errexp.types_method`` computes both Sanov quantities on the merged
alphabet {a, not a}. The functions here are the enumeration it replaced:
they list every n-type, keep the rows whose constrained count passes the
event's float test, and reduce them (the minimum of ``_kl_rows`` with ties
to the first row in enumeration order, and the log2-sum of the type
log-probabilities). Their results are pinned bit for bit in
``test_golden.py``.

``log2_prob_mp`` and ``kl_bits_mp`` are 50-digit references that call
nothing in errexp: the event's probability as a Binomial(n, p_a) sum over
the counts that pass the event's float test, and D(type||p) of one type.
Both take the double probabilities of ``p`` as exact inputs.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from row_oracle import _kl_rows, type_log_probs

from errexp import ConstraintSet, DiscreteDistribution, EmpiricalType, InfeasibleError
from errexp.dist import log_factorial_table
from errexp.types_method import (
    ENUMERATION_CAP,
    _enumerate_counts,
    _log2_sum_exp2,
    _log2q,
)


def mask(pi: ConstraintSet, counts: np.ndarray, n: int) -> np.ndarray:
    """Boolean membership for each row of a counts matrix."""
    frac = counts[:, pi.symbol] / n
    if pi.mode == "lower":
        return frac >= pi.threshold
    return frac <= pi.threshold


def sanov_exponent(
    pi: ConstraintSet,
    p: DiscreteDistribution,
    n: int,
    cap: int = ENUMERATION_CAP,
):
    """(min D(Q||p) in bits over the member n-types, first minimizing type)."""
    counts = _enumerate_counts(n, p.alphabet_size, cap)
    member = mask(pi, counts, n)
    if not member.any():
        raise InfeasibleError("no n-type satisfies the constraint set")
    rows = counts[member]
    kl = _kl_rows(rows, n, p)
    best = int(np.argmin(kl))
    minimizer = EmpiricalType(tuple(int(c) for c in rows[best]), n)
    return float(kl[best]), minimizer


def sanov_exact_log2_prob(
    pi: ConstraintSet,
    p: DiscreteDistribution,
    n: int,
    cap: int = ENUMERATION_CAP,
) -> float:
    """log2 of the summed probabilities of the member n-types."""
    counts = _enumerate_counts(n, p.alphabet_size, cap)
    member = mask(pi, counts, n)
    if not member.any():
        return -math.inf
    lp = type_log_probs(counts[member], _log2q(p), log_factorial_table(n))
    return _log2_sum_exp2(lp)


def log2_prob_mp(pi: ConstraintSet, p: DiscreteDistribution, n: int) -> float:
    """log2 P(P_hat_n in Pi) summed in 50-digit arithmetic."""
    t = pi.threshold
    kept = [m for m in range(n + 1) if (m / n >= t if pi.mode == "lower" else m / n <= t)]
    with mpmath.workdps(50):
        probs = [mpmath.mpf(float(x)) for x in p.probs]
        p_a = probs[pi.symbol]
        p_rest = mpmath.fsum(probs[: pi.symbol] + probs[pi.symbol + 1 :])
        # 0 ** 0 = 1: with one symbol only the count m = n has mass
        total = mpmath.fsum(math.comb(n, m) * p_a**m * p_rest ** (n - m) for m in kept)
        return float(mpmath.log(total, 2))


def kl_bits_mp(counts, p: DiscreteDistribution):
    """D(counts / n || p) in bits as a 50-digit mpf; inf off the support of p."""
    n = sum(counts)
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for c, q in zip(counts, p.probs):
            if c == 0:
                continue
            if q == 0:
                return mpmath.inf
            f = mpmath.mpf(c) / n
            total += f * mpmath.log(f / mpmath.mpf(float(q)), 2)
        return total
