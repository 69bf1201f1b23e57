"""The enumerated Sanov path, kept as the reference for the closed form.

``errexp.types_method`` computes both Sanov quantities on the merged
alphabet {a, not a}. The functions here are the enumeration it replaced:
they list every n-type, keep the rows whose constrained count passes the
event's float test, and reduce them: the exact minimum of D over those rows,
the first such row in enumeration order (the lexicographically smallest)
with its ``_kl_rows`` value, and the log2-sum of the type log-probabilities.
Their results are pinned bit for bit in ``test_golden.py``.

``log2_prob_mp`` and ``kl_bits_mp`` are 50-digit references that call
nothing in errexp: the event's probability as a Binomial(n, p_a) sum over
the counts that pass the event's float test, and D(type||p) of one type.
Both take the double probabilities of ``p`` as exact inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
from row_oracle import _enumerate_counts, _kl_rows, type_log_probs

from errexp import ConstraintSet, DiscreteDistribution, EmpiricalType, InfeasibleError
from errexp.dist import log_factorial_table
from errexp.types_method import (
    ENUMERATION_CAP,
    _log2_sum_exp2,
    _log2q,
)


def mask(pi: ConstraintSet, counts: np.ndarray, n: int) -> np.ndarray:
    """Boolean membership for each row of a counts matrix."""
    frac = counts[:, pi.symbol] / n
    if pi.mode == "lower":
        return frac >= pi.threshold
    return frac <= pi.threshold


def exact_d_ratio(counts, p: DiscreteDistribution):
    """prod_j (c_j / (n p_j))^c_j, whose ln is n ln 2 * D(counts / n || p), as
    an exact Fraction with each p_j the exact ratio of its double; None off
    the support of p (D = inf)."""
    n, out = sum(counts), Fraction(1)
    for c, q in zip(counts, p.probs.tolist()):
        if c:
            if q == 0.0:
                return None
            out *= (Fraction(c, n) / Fraction(q)) ** c
    return out


def sanov_exponent(
    pi: ConstraintSet,
    p: DiscreteDistribution,
    n: int,
    cap: int = ENUMERATION_CAP,
):
    """(D(Q||p) in bits of the first member n-type of least exact D, that type).

    Rows are compared in exact arithmetic (:func:`exact_d_ratio`). Only the
    rows whose float D lies within 1e-9 (relative, floored at 1) of the
    least float D can hold the exact minimum: the float D of a row is within
    far less of its exact value for every distribution the tests use.
    Where every member has D = inf, the first member is returned.
    """
    counts = _enumerate_counts(n, p.alphabet_size, cap)
    member = mask(pi, counts, n)
    if not member.any():
        raise InfeasibleError("no n-type satisfies the constraint set")
    rows = counts[member]
    kl = _kl_rows(rows, n, p)
    least = float(kl.min())
    best = 0
    if math.isfinite(least):
        near = np.flatnonzero(kl <= least + 1e-9 * max(1.0, least))
        ratios = [exact_d_ratio(rows[i].tolist(), p) for i in near]
        best = int(near[ratios.index(min(ratios))])
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


def unit_move_sign(counts, p: DiscreteDistribution, i: int, j: int) -> int:
    """The sign of D after moving one unit of counts from symbol i to j, less
    D before, in exact arithmetic; counts has finite D and c_i > 0."""
    c, probs = counts, p.probs.tolist()
    if probs[j] == 0.0:
        return 1
    if probs[i] == probs[j] and sorted((c[i] - 1, c[j] + 1)) == sorted((c[i], c[j])):
        return 0  # the same terms in another order
    with mpmath.workdps(50):

        def f(x):
            return x * mpmath.log(x) if x else mpmath.mpf(0)

        # n ln 2 times the change of D; 50 digits resolve it far below 1e-30
        diff = f(c[j] + 1) + f(c[i] - 1) - f(c[j]) - f(c[i])
        diff += mpmath.log(mpmath.mpf(probs[i]) / mpmath.mpf(probs[j]))
    if abs(diff) > 1e-30:
        return 1 if diff > 0 else -1
    moved = list(c)
    moved[i] -= 1
    moved[j] += 1
    before, after = exact_d_ratio(c, p), exact_d_ratio(moved, p)
    return (after > before) - (after < before)


def moves_against_the_minimizer(pi: ConstraintSet, p: DiscreteDistribution, counts):
    """The unit moves inside the event that lower D, or that keep it and move
    a unit to a later symbol. D is separable and convex in the counts, so a
    member with none is the lexicographically smallest exact minimizer: a
    smaller minimizer would first differ by a lower count at some i, and
    moving a unit from i to a later symbol it exceeds would tie."""
    n, a, k, t = sum(counts), pi.symbol, len(counts), pi.threshold
    found = []
    for i in range(k):
        for j in range(k):
            if i == j or counts[i] == 0:
                continue
            frac = (counts[a] - (i == a) + (j == a)) / n
            if not (frac >= t if pi.mode == "lower" else frac <= t):
                continue
            sign = unit_move_sign(counts, p, i, j)
            if sign < 0 or (sign == 0 and j > i):
                found.append((i, j, sign))
    return found

