"""The Stein/NP type pass as it was before the blocked fill, kept as a bit oracle.

``walk_scores`` fills every per-type score with whole T-long vectors, one
column at a time, over ``walk_types``, a walk that yields whole columns
``(width, column)``. ``stein_report``, ``np_log2_min_beta`` and
``log2_sum_exp2`` reduce those vectors with fresh masks and compactions.
The library fills the same scores block by block into buffers and reduces
them in place; every element must go through the same float operations, so
results must agree bit for bit.

The functions are the library's earlier ones, verbatim, except that
``stein_report`` also returns log2 beta, which it computed but did not keep,
and that everything they call from the library (the tables, ``_log2q``,
``kl_divergence``) is unchanged by the blocked fill.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from errexp.dist import LN2, kl_divergence, log_factorial_table
from errexp.testing import _llr_weights
from errexp.types_method import _log2q, _type_kl_terms


@dataclass(frozen=True)
class SteinReport:
    n: int
    delta: float
    alpha_n: float
    beta_n: float
    exponent: float
    log2_alpha: float
    log2_beta: float


def guarded_scale(counts, weight):
    if weight == -np.inf:
        return np.where(counts > 0, -np.inf, 0.0)
    return counts * weight


def walk_types(n: int, alphabet_size: int):
    def columns():
        # rem[i] is what the i-th distinct prefix leaves for the later columns
        rem = np.array([n], dtype=np.int64)
        for _ in range(alphabet_size - 1):
            width = rem + 1
            column = np.arange(int(width.sum()), dtype=np.int64)
            column -= np.repeat(np.cumsum(width) - width, width)
            rem = np.repeat(rem, width)
            rem -= column
            yield width, column
        # drop the previous column before the last step, which holds T types
        width = column = None
        yield None, rem

    return columns()


def walk_scores(walk, n: int, log2qs, weights=(), tables=()):
    k = len(log2qs[0])
    log_fact = log_factorial_table(n)

    def scaled(w):
        return lambda j, column: guarded_scale(column, w[j])

    def looked_up(table):
        # the counts lie in 0..n, so "clip" never clips; it skips the
        # bounds check of the default mode
        return lambda j, column: table[j].take(column, mode="clip")

    # one log-factorial table serves every column of the multinomial sum
    terms = [*map(scaled, (*log2qs, *weights)), *map(looked_up, (*tables, [log_fact] * k))]
    sums = [None] * len(terms)
    for j, (width, column) in enumerate(walk):
        for i, term in enumerate(terms):
            if j == 0:
                # the first column has one parent, the empty prefix
                sums[i] = term(j, column)
                continue
            if width is not None:
                sums[i] = np.repeat(sums[i], width)
            sums[i] += term(j, column)
    *sums, log2_mult = sums
    # log2 n! / prod c_j!, formed as log2_multinomial forms it
    np.subtract(log_fact[n], log2_mult, out=log2_mult)
    log2_mult /= LN2
    lps = sums[: len(log2qs)]
    for lp in lps:
        lp += log2_mult
    return lps, sums[len(log2qs) :]


def log2_sum_exp2(log2_vals: np.ndarray) -> float:
    """log2 of a sum of 2**x terms, max-shifted so nothing underflows."""
    finite = log2_vals[np.isfinite(log2_vals)]
    if finite.size == 0:
        return -math.inf
    m = float(finite.max())
    return m + math.log2(float(np.exp2(finite - m).sum()))


def log2_prob(log2_terms: np.ndarray) -> float:
    return min(log2_sum_exp2(log2_terms), 0.0)


def type_scores(h, n: int):
    walk = walk_types(n, h.p1.alphabet_size)
    log2p1, log2p2 = _log2q(h.p1), _log2q(h.p2)
    weights = [_llr_weights(log2p1, log2p2)]
    (lp1, lp2), (llr,) = walk_scores(walk, n, [log2p1, log2p2], weights=weights)
    llr /= n
    return llr, lp1, lp2


def stein_report(h, n: int, delta: float, scores) -> SteinReport:
    llr, lp1, lp2 = scores
    d = kl_divergence(h.p1, h.p2)
    member = (llr >= d - delta) & (llr <= d + delta)
    # sum the rejected p1 mass itself: 1 - (accepted mass) loses every digit
    # of an alpha below the rounding of 1
    log2_alpha = log2_prob(lp1[~member])
    log2_beta = log2_prob(lp2[member])
    alpha, beta = 2.0**log2_alpha, 2.0**log2_beta
    exponent = math.inf if log2_beta == -math.inf else -log2_beta / n
    return SteinReport(
        n=n,
        delta=delta,
        alpha_n=alpha,
        beta_n=beta,
        exponent=exponent,
        log2_alpha=log2_alpha,
        log2_beta=log2_beta,
    )


def np_log2_min_beta(epsilon: float, scores) -> float:
    llr, lp1, lp2 = scores
    # weighted quickselect of the threshold t from below: the p1 mass
    # strictly below t is at most epsilon, and with the tie class at t it
    # exceeds it. The rejected mass is the smaller side (epsilon < 1/2), so
    # its sums keep their relative accuracy where 1 - epsilon would round
    vals, w = llr, np.exp2(lp1)
    below = 0.0
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
            # to epsilon; its types share one likelihood ratio, so randomizing
            # it whole gives the same beta as randomizing it type by type
            gamma = min(1.0, (below + m_lo + m_eq - epsilon) / m_eq)
            tie = math.log2(gamma) + log2_sum_exp2(lp2[llr == pivot])
            return log2_prob(np.append(lp2[llr > pivot], tie))
        below += m_lo + m_eq
        hi = vals > pivot
        vals, w = vals[hi], w[hi]
    # the whole p1 mass is within epsilon: reject every type
    return -math.inf


def deviation_probability_exact(n: int, p, delta: float) -> float:
    walk = walk_types(n, p.alphabet_size)
    log2q = _log2q(p)
    kl_table = _type_kl_terms(p.probs, n, np.arange(n + 1)[None, :])
    (lp,), (kl,) = walk_scores(walk, n, [log2q], tables=[kl_table])
    deviating = kl >= delta
    if not deviating.any():
        return 0.0
    return min(1.0, 2.0 ** log2_sum_exp2(lp[deviating]))
