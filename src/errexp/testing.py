"""Asymptotic binary hypothesis testing.

Exact log2 error probabilities of the Stein region and of the randomized
Neyman-Pearson optimum, and Chernoff information: lam* from the Gibbs tilt
solver that the Boltzmann law shares, D(P_lam*||p_h) from the relative-entropy
kernel of ``dist``. All error probabilities are computed exactly over type
classes: the log likelihood ratio is type-measurable, so no Monte Carlo is
involved.

Below four symbols of positive p1, one walk scores every type. From four
up, the walk covers only the prefixes (c_0, ..., c_{k-3}): under a prefix
with remainder r the LLR is linear in the split of r between the last two
symbols, so the r + 1 types of the prefix are one run, whose mass is the
prefix's mass under the law with those two symbols merged times a
Binomial(r, theta) term. Ranges of a run are summed from left and right
cumulative tables of those terms, with cuts where the band or the NP
bracket crosses the run and every type near a cut judged by its own walk
score (:class:`_Runs`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import (
    _SHORT_SUM,
    LN2,
    DiscreteDistribution,
    _divergence_term_floats,
    _divergence_terms,
    _solve_tilt,
    _sum_floats,
    kl_divergence,
    log_factorial_residual,
)
from .errors import DegenerateHypothesisError, ValidationError
from .types_method import (
    ENUMERATION_CAP,
    EmpiricalType,
    _capped_count,
    _check_delta,
    _exp2,
    _log2_binomial_tables,
    _log2_prob,
    _log2_sum_exp2,
    _log2q,
    _rows_walk,
    _walk_scores,
    _walk_types,
)

# an alphabet with at least this many symbols of positive p1 is summed by
# runs; below it the binomial tables would be about as large as the types
_RUN_SYMBOLS = 4

# a walk score is within 4 units of roundoff of |prefix LLR| + r max|w|, over
# n, of its value on the reals, and a cut computed on the reals within about
# 10 of those units plus n |edge|; a cut is trusted this far from the edge
_CUT_ROUNDING = 32 * 2.0**-53

# the NP bracket is at least 2^-40 of the score range wide
_BISECTIONS = 40

# a bracket holding more than this share of the types (a tie class wider
# than about one type per run) leaves the NP optimum to the walk
_BRACKET_SHARE = 0.25


@dataclass(frozen=True)
class BinaryHypothesis:
    """Two candidate sources over a shared alphabet."""

    p1: DiscreteDistribution
    p2: DiscreteDistribution

    def __post_init__(self):
        if self.p1.alphabet_size != self.p2.alphabet_size:
            raise ValidationError("hypotheses must share an alphabet")
        if np.any((self.p1.probs > 0) & (self.p2.probs == 0)):
            raise ValidationError("D(p1||p2) must be finite")


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
    iterations: int  # distinct betas at which the tilt solver took the mean
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
    return _np_tail(threshold, llr, lp2)


def _np_tail(threshold, llr, lp2, above=()) -> float:
    """log2 of the NP beta at ``threshold`` = (t, gamma): the P2 terms
    ``above`` (log2, held outside the scores), then those of the types
    scoring above t, then the share gamma of the tie class at t."""
    pivot, gamma = threshold
    # the tie class shares one likelihood ratio, so randomizing it whole
    # gives the same beta as randomizing it type by type
    tie = math.log2(gamma) + _log2_sum_exp2(lp2, llr == pivot)
    # the terms in summation order, in an array of ours that the sum
    # overwrites without copying it again
    return _log2_prob(np.concatenate([above, lp2[llr > pivot], [tie]]), where=...)


def _log2_range(left, right, a, b) -> np.ndarray:
    """log2 of the sums over [a, b) of binomial rows, from the tables of
    :func:`_log2_binomial_tables` at flat indices a < b, each taken from the
    side whose difference cancels least."""
    la, lb, ra, rb = left[a], left[b], right[a], right[b]
    from_left = lb <= ra
    top = np.where(from_left, lb, ra)
    # the tables rise to the right on the left side and to the left on the
    # right side, so the ratio is at most 1
    ratio = np.minimum(np.where(from_left, la, rb) - top, 0.0)
    with np.errstate(divide="ignore"):
        return top + np.log1p(-_exp2(ratio, out=ratio)) / LN2


class _Runs:
    """The n-types of an alphabet with positive p1 on every symbol, as runs.

    A run is a prefix (c_0, ..., c_{k-3}) with remainder r and its r + 1
    types, which split r between the last two symbols; x counts the one of
    the larger LLR weight. A type's walk score is ((S + c_{k-2} w_{k-2}) +
    c_{k-1} w_{k-1}) / n, the bits of :func:`_type_scores`, with S the
    prefix's partial sum; on the reals it is (base + x step) / n, rising in
    x with a step all runs share. Its P_h mass is the prefix's mass under p_h
    with the last two symbols merged times the Binomial(r, theta_h) term at
    x, theta_h the share of the x symbol in the merged one. One walk over
    the C(n + k - 2, k - 2) prefixes scores every run, and the per-h tables
    of :func:`_log2_binomial_tables` sum any range of one.
    """

    def __init__(self, h: BinaryHypothesis, n: int, support: np.ndarray, cap: int):
        log2qs = [_log2q(h.p1)[support], _log2q(h.p2)[support]]
        w = log2qs[0] - log2qs[1]
        k = w.size
        self.n = n
        self.last = w[-2], w[-1]
        self.rising = bool(w[-2] >= w[-1])
        self.step = float(abs(w[-2] - w[-1]))
        merged, thetas = [], []
        for p, log2q in zip((h.p1, h.p2), log2qs):
            q = p.probs[support]
            log2_s = math.log2(q[-2] + q[-1])
            merged.append(np.r_[log2q[:-2], log2_s])
            up, down = (log2q[-2], log2q[-1]) if self.rising else (log2q[-1], log2q[-2])
            thetas.append((up - log2_s, down - log2_s))
        self.tables = [[t.ravel() for t in ts] for ts in _log2_binomial_tables(n, thetas)]
        # the merged symbol weighs 0 in the LLR, and 1 in a sum that gives r
        weights = [np.r_[w[:-2], 0.0], np.r_[np.zeros(k - 2), 1.0]]
        walk = _walk_types(n, k - 1, cap)
        (self.lp1, self.lp2), (self.partial, r) = _walk_scores(walk, n, merged, weights=weights)
        # each prefix's log2 multinomial holds the double ln n!, whose
        # rounding every type shares; the NP tie fraction amplifies such a
        # common error by the p1 mass below the tie over the tie's own, so
        # it is added back
        residual = log_factorial_residual(n) / LN2
        self.lp1 += residual
        self.lp2 += residual
        self.r = r.astype(np.int64)
        self.row = self.r * (n + 2)
        # base on the reals, widened by the rounding of the scores (tol is
        # the widest), in units of the step where it is not 0
        base = self.partial + self.r * min(self.last)
        tol = np.abs(self.partial) + self.r * max(abs(w[-2]), abs(w[-1]))
        tol *= _CUT_ROUNDING
        self.tol = float(tol.max())
        self.high, self.low = base + tol, base - tol
        if self.step:
            self.high /= self.step
            self.low /= self.step

    def _clip(self, x: np.ndarray) -> np.ndarray:
        # x within 0..r + 1, as counts
        np.maximum(x, 0.0, out=x)
        return np.minimum(x, self.r + 1.0, out=x).astype(np.int64)

    def below(self, edge: float) -> np.ndarray:
        """Per run, the least x whose score may reach ``edge``: every type
        before it scores below ``edge``, whatever its rounding."""
        reach = self.n * edge - _CUT_ROUNDING * abs(self.n * edge)
        if self.step == 0.0:
            # a run is one tie class on the reals
            return np.where(self.high < reach, self.r + 1, 0)
        return self._clip(np.ceil(reach / self.step - self.high))

    def above(self, edge: float) -> np.ndarray:
        """Per run, the least x from which every type scores above ``edge``,
        whatever its rounding."""
        reach = self.n * edge + _CUT_ROUNDING * abs(self.n * edge)
        if self.step == 0.0:
            return np.where(self.low > reach, 0, self.r + 1)
        return self._clip(np.floor(reach / self.step - self.low) + 1.0)

    def types(self, lo: np.ndarray, hi: np.ndarray):
        """(avg LLR, log2 P1, log2 P2) of the types lo <= x < hi of each run,
        in run order."""
        width = hi - lo
        run = np.flatnonzero(width)
        width = width[run]
        start = lo[run] - (np.cumsum(width) - width)
        run = np.repeat(run, width)
        x = np.repeat(start, width)
        x += np.arange(run.size)
        cell = self.row[run]
        cell += x
        # c_{k-2} into x, c_{k-1} into r
        r = self.r[run]
        if not self.rising:
            np.subtract(r, x, out=x)
        r -= x
        llr = self.partial[run]
        llr += x * self.last[0]
        llr += r * self.last[1]
        llr /= self.n
        del x, r
        (terms1, _, _), (terms2, _, _) = self.tables
        lp1 = self.lp1[run]
        lp1 += terms1[cell]
        lp2 = self.lp2[run]
        lp2 += terms2[cell]
        return llr, lp1, lp2

    def band(self, lower: float, upper: float):
        """(a1, a2, a3, a4) per run, in order: the types with x < a1 score
        below ``lower``, those with x >= a4 above ``upper``, and those with
        a2 <= x < a3 between them, whatever their rounding; the others are
        judged by their own score."""
        a1, a2 = self.below(lower), self.above(lower)
        a3, a4 = self.below(upper), self.above(upper)
        a2 = np.maximum(a2, a1)
        a3 = np.maximum(a3, a2)
        return a1, a2, a3, np.maximum(a4, a3)

    def stein(self, lower: float, upper: float):
        """(log2 alpha, log2 beta) of the band lower <= avg LLR <= upper."""
        a1, a2, a3, a4 = self.band(lower, upper)
        (_, left1, right1), (_, left2, right2) = self.tables
        inner = np.flatnonzero(a2 < a3)
        row = self.row[inner]
        beta = [self.lp2[inner] + _log2_range(left2, right2, row + a2[inner], row + a3[inner])]
        alpha = [self.lp1 + left1[self.row + a1], self.lp1 + right1[self.row + a4]]
        for lo, hi in ((a1, a2), (a3, a4)):
            llr, lp1, lp2 = self.types(lo, hi)
            member = llr >= lower
            member &= llr <= upper
            beta.append(lp2[member])
            alpha.append(lp1[~member])
        return _log2_prob(np.concatenate(alpha)), _log2_prob(np.concatenate(beta))

    def np_log2_min_beta(self, epsilon: float):
        """log2 of the NP optimum, selected by :func:`_np_threshold` among
        the types of a bracket of scores that holds the threshold; the P1
        mass below the bracket and the P2 mass above it come from the
        tables. None where the bracket holds more than ``_BRACKET_SHARE``
        of the types or misses the threshold."""
        lower, upper = self._bracket(epsilon)
        a1, a4 = self.below(lower), self.above(upper)
        if (a4 - a1).sum() > _BRACKET_SHARE * (self.r.sum() + self.r.size):
            return None
        (_, left1, _), (_, _, right2) = self.tables
        below = 2.0 ** _log2_sum_exp2(self.lp1 + left1[self.row + a1])
        llr, lp1, lp2 = self.types(a1, a4)
        threshold = _np_threshold(epsilon - below, llr, _exp2(lp1, out=lp1))
        if threshold is None or not lower <= threshold[0] <= upper:
            return None
        return _np_tail(threshold, llr, lp2, above=self.lp2 + right2[self.row + a4])

    def _bracket(self, epsilon: float):
        """Scores (lower, upper) that hold the NP threshold: the P1 mass at
        or below lower is at most epsilon and that at or below upper exceeds
        it. The types up to the cut above a score hold all that score at or
        below it, so the bisection keeps a lower score of P1 mass within
        epsilon; an upper score of mass beyond it may hold types within
        rounding of it whose scores lie above it, so it is widened by that
        rounding. The bisection starts around every score and stops once at
        most one type per run on average lies between the cuts: a tie class
        larger than that (every type, where p1 = p2) stays whole in the
        bracket after ``_BISECTIONS`` steps."""
        lower, upper = self.low.min(), self.high.max()
        if self.step:
            lower, upper = lower * self.step, (upper + self.r.max()) * self.step
        lower, upper = lower / self.n - 1.0, upper / self.n + 1.0
        weights = _exp2(self.lp1, out=np.empty_like(self.lp1))
        (_, left1, _), _ = self.tables
        # the P1 share of each run below x
        shares = _exp2(left1, out=np.empty_like(left1))
        lo, hi = np.zeros_like(self.r), self.r + 1
        for _ in range(_BISECTIONS):
            t = 0.5 * (lower + upper)
            if (hi - lo).sum() <= self.r.size or not lower < t < upper:
                break
            x = self.above(t)
            # a multiply and a sum: from about 10^4 prefixes "@" hands the
            # dot product to threaded BLAS, which took 400x longer on a
            # 2-vCPU VM
            mass = np.multiply(weights, shares[self.row + x]).sum()
            if mass <= epsilon:
                lower, lo = t, x
            else:
                upper, hi = t, x
        # twice the rounding of a score near upper
        return lower, upper + 2.0 * (self.tol + _CUT_ROUNDING * abs(self.n * upper)) / self.n


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
    below candidate thresholds, without sorting the types. Both arguments,
    and ``cap`` against the number of n-types, are checked before anything
    is enumerated, and one walk serves both tests.

    Types with mass where p1 = 0 have no p1 mass, lie outside the band and
    are rejected first, so they are left out. Below four other symbols the
    walk scores every type. From four up it scores the prefixes and
    :class:`_Runs` sums runs of types from binomial tables: the band is cut
    from each run, and t is selected, as above, among the types of a bracket
    of scores found by bisection on the p1 mass below it, the masses
    outside the bracket coming from the tables. Where a tie class keeps the
    bracket wide (p1 = p2 ties every type) or the bracket misses t, the NP
    optimum comes from the walk instead. Each type is judged on the walk's
    score either way, so both paths test the same band and the same ratio;
    the sums differ in their last bits, the runs' with the rounding of
    ln n! added back.
    """
    _check_delta(delta)
    _check_epsilon(epsilon)
    support = h.p1.probs > 0
    d = kl_divergence(h.p1, h.p2)
    if np.count_nonzero(support) >= _RUN_SYMBOLS:
        _capped_count(n, h.p1.alphabet_size, cap)
        runs = _Runs(h, n, support, cap)
        log2_alpha, log2_beta = runs.stein(d - delta, d + delta)
        np_log2_beta = runs.np_log2_min_beta(epsilon)
        # the walk below keeps T-long scores; the runs are not needed by then
        del runs
        if np_log2_beta is None:
            walk = _walk_types(n, h.p1.alphabet_size, cap)
            np_log2_beta = _np_log2_min_beta(epsilon, _type_scores(h, n, walk))
    else:
        scores = _type_scores(h, n, _walk_types(n, h.p1.alphabet_size, cap))
        llr, lp1, lp2 = scores
        member = llr >= d - delta
        member &= llr <= d + delta
        log2_beta = _log2_prob(lp2, member)
        # sum the rejected p1 mass itself: 1 - (accepted mass) loses every
        # digit of an alpha below the rounding of 1
        log2_alpha = _log2_prob(lp1, np.logical_not(member, out=member))
        # the NP pass overwrites log2 P1, so it runs after alpha is summed
        np_log2_beta = _np_log2_min_beta(epsilon, scores)
    return SteinReport(
        n=n,
        delta=delta,
        epsilon=epsilon,
        log2_alpha=log2_alpha,
        log2_beta=log2_beta,
        np_log2_beta=np_log2_beta,
    )


def chernoff_lambda_star(h: BinaryHypothesis) -> ChernoffReport:
    """Equalize D(P_lam||p1) = D(P_lam||p2) with the tilt solver of ``solve_beta``.

    g(lam) = D(P_lam||p1) - D(P_lam||p2) is the mean energy log2(p2/p1) under
    P_lam = p1^lam p2^(1-lam) / Z = p2 exp(-lam ln2 * energy) / Z. It falls from
    D(p2||p1) > 0 to -D(p1||p2) < 0, so lam* solves mean 0; the solver certifies
    its residual g(lam*), in bits, by a rounding bound, not a tolerance.
    d1 and d2 are D(P_lam*||p1) and D(P_lam*||p2) from the relative-entropy
    kernel (:func:`_tilt_divergences`), within about 1e-15 relative of their
    values at the returned lam*; c_info is the larger of the two.
    """
    short = h.p1.alphabet_size < _SHORT_SUM
    p1, p2 = (h.p1.probs.tolist(), h.p2.probs.tolist()) if short else (h.p1.probs, h.p2.probs)
    if (p1 == p2) if short else h.p1 == h.p2:
        raise DegenerateHypothesisError("hypotheses are identical")
    if any(a == 0.0 < b for a, b in zip(p1, p2)) if short else np.any((p2 > 0) & (p1 == 0)):
        raise ValidationError("D(p2||p1) must be finite for the tilted family")

    # p1, p2 share this support; log1p is accurate where they nearly agree,
    # but (p2 - p1)/p1 rounds toward -1 as p2/p1 -> 0, so ln p2 - ln p1 there
    if short:
        p1, p2 = map(list, zip(*[(a, b) for a, b in zip(p1, p2) if b > 0.0]))
        logs = np.log(p2 + p1).tolist()
        log_base = logs[: len(p2)]
        log_ratio = [b - a for a, b in zip(logs[len(p2) :], log_base)]
        near = [i for i, (a, b) in enumerate(zip(p1, p2)) if abs(b - a) < 0.5 * a]
        for i, v in zip(near, np.log1p([(p2[i] - p1[i]) / p1[i] for i in near]).tolist()):
            log_ratio[i] = v
    else:
        support = p2 > 0
        p1, p2 = p1[support], p2[support]
        near = np.abs(p2 - p1) < 0.5 * p1
        log_base = np.log(p2)
        log_ratio = log_base - np.log(p1)
        log_ratio[near] = np.log1p((p2[near] - p1[near]) / p1[near])
    energy = [r / LN2 for r in log_ratio] if short else log_ratio / LN2
    beta, iterations, residual = _solve_tilt(log_base, energy, 0.0)
    lam = beta / LN2
    if not 0.0 < lam <= 1.0:
        # the exact g(0) = D(p2||p1) > 0 and g(1) = -D(p1||p2) < 0 put lam*
        # inside (0, 1); the computed g can only miss that where a divergence
        # is below the rounding of the normalized probabilities
        raise DegenerateHypothesisError(
            "hypotheses differ by less than the rounding of their normalization: "
            "the equalizing tilt falls outside (0, 1]"
        )
    d1, d2 = _tilt_divergences(lam, log_ratio, p1, p2)
    return ChernoffReport(
        lambda_star=lam,
        c_info=max(d1, d2),
        d1=d1,
        d2=d2,
        iterations=iterations,
        residual=residual,
    )


@np.errstate(over="ignore")
def _tilt_divergences(lam: float, log_ratio, p1, p2):
    """(D(P_lam||p1), D(P_lam||p2)) in bits, from the relative-entropy kernel.

    P_lam / p_h - 1 is expm1 of y_1 = (1 - lam) ln(p2/p1) - ln Z_1 or y_2 =
    -lam ln(p2/p1) - ln Z_2, with Z_h - 1 summed exactly, so P_lam - p_h keeps
    its relative accuracy where a rounded P_lam would lose it to p_h; P_lam
    sums to 1, so the linear part of D is 1 - sum p_h. Lists of normal masses
    run on Python floats, unless a term passes the double range (at a mass
    below about 1e-305).
    """
    if isinstance(p1, list) and min(p1 + p2) >= 2.0**-1022:
        q, rows = p1 + p2, (slice(0, len(p1)), slice(len(p1), None))
        y = [(1.0 - lam) * r for r in log_ratio] + [-lam * r for r in log_ratio]
        terms = [a * b for a, b in zip(q, np.expm1(y).tolist())]
        for h in rows:
            shift = math.log1p(math.fsum([*terms[h], *q[h], -1.0]))
            y[h] = [v - shift for v in y[h]]
        terms = _divergence_term_floats([a * b for a, b in zip(q, np.expm1(y).tolist())], q)
        if terms is not None:
            # D >= 0; the doubles of p_h may sum above 1 by a rounding
            return tuple(
                max(0.0, _sum_floats(terms[h]) + math.fsum([1.0, *[-x for x in q[h]]]) / LN2)
                for h in rows
            )
    log_ratio, p1, p2 = np.asarray(log_ratio), np.asarray(p1), np.asarray(p2)
    k = log_ratio.size
    q = np.concatenate((p1, p2)).reshape(2, k)
    y = np.concatenate(((1.0 - lam) * log_ratio, -lam * log_ratio)).reshape(2, k)
    rows = q.tolist()
    for q_h, y_h, terms, row in zip(q, y, (q * np.expm1(y)).tolist(), rows):
        z_less_1 = math.fsum([*terms, *row, -1.0])
        if math.isinf(z_less_1):
            # exp(y) overflows only at a subnormal p_h: shift the log weights
            log_w = np.log(q_h) + y_h
            y_h -= log_w.max() + math.log(float(np.exp(log_w - log_w.max()).sum()))
        else:
            y_h -= math.log1p(z_less_1)
    diff = q * np.expm1(y)
    far = np.isinf(diff)  # P_lam / p_h past the double range, at a subnormal p_h
    if np.count_nonzero(far):
        diff[far] = np.exp(np.log(q[far]) + y[far]) - q[far]
    linear = [math.fsum([1.0, *[-x for x in row]]) / LN2 for row in rows]
    d = _divergence_terms(diff, q).sum(axis=1) + linear
    # D >= 0; the doubles of p_h may sum above 1 by a rounding
    return max(0.0, float(d[0])), max(0.0, float(d[1]))
