"""Stein and Neyman-Pearson at k >= 4 by runs, against exact oracles.

From four symbols of positive p1 up, ``stein_errors`` walks only the
prefixes (c_0, ..., c_{k-3}) and sums each run of types that share one from
binomial tables. Its errors must match the exact-fraction sums of
``np_oracle`` at 1e-12 relative, and the types it puts in the Stein band
must be those the walk score of :func:`_type_scores` puts there, type by
type: the types between a run's cuts, and the ones their rounding leaves
undecided judged by their own score, which must carry the walk's bits.
"""

import math

import mpmath
import numpy as np
import pytest
from np_oracle import np_log2_beta_types, stein_log2_errors_types
from row_oracle import _enumerate_counts

from errexp import BinaryHypothesis, kl_divergence, make_distribution, stein_errors
from errexp import testing
from errexp.testing import _np_log2_min_beta, _Runs, _type_scores
from errexp.types_method import _log2_binomial_tables, _walk_types

_CAP = 10**7
_LN2 = math.log(2.0)


def _hypothesis(w1, w2):
    return BinaryHypothesis(make_distribution(w1), make_distribution(w2))


def _walk_llr(h, n):
    llr, _, _ = _type_scores(h, n, _walk_types(n, h.p1.alphabet_size, cap=_CAP))
    return llr


def _run_band(h, n, lower, upper):
    """Whether each n-type, in enumeration order, lies in the band as the run
    path decides it, and the run path's own score of each type it scores
    alone (nan elsewhere)."""
    support = h.p1.probs > 0
    runs = _Runs(h, n, support, _CAP)
    a1, a2, a3, a4 = runs.band(lower, upper)
    prefixes = _enumerate_counts(n, int(support.sum()) - 1, cap=_CAP)
    run_of = {tuple(row[:-1]): i for i, row in enumerate(prefixes.tolist())}
    alone = {}
    for lo, hi in ((a1, a2), (a3, a4)):
        llr, _, _ = runs.types(lo, hi)
        cells = [(i, x) for i in range(lo.size) for x in range(lo[i], hi[i])]
        alone.update(zip(cells, llr))
    counts = _enumerate_counts(n, h.p1.alphabet_size, cap=_CAP)
    inside, own = np.zeros(len(counts), bool), np.full(len(counts), np.nan)
    for t, row in enumerate(counts):
        if row[~support].any():
            # mass where p1 = 0: never in the band
            continue
        c = row[support]
        i, x = run_of[tuple(c[:-2].tolist())], c[-2] if runs.rising else c[-1]
        if a2[i] <= x < a3[i]:
            inside[t] = True
        elif a1[i] <= x < a4[i]:
            own[t] = alone[i, x]
            inside[t] = lower <= own[t] <= upper
    return inside, own


def _assert_close(got, want):
    # relative error of the probability, from its log2
    if want == -math.inf:
        assert got == -math.inf
    else:
        assert abs(got - want) * _LN2 <= 1e-12, (got, want)


def _assert_run_path(h, n, delta, epsilon):
    assert np.count_nonzero(h.p1.probs) >= 4
    d = kl_divergence(h.p1, h.p2)
    lower, upper = d - delta, d + delta
    llr = _walk_llr(h, n)
    walk_band = (llr >= lower) & (llr <= upper)
    inside, own = _run_band(h, n, lower, upper)
    assert (inside == walk_band).all()
    alone = ~np.isnan(own)
    assert own[alone].tobytes() == llr[alone].tobytes()
    report = stein_errors(h, n, delta, epsilon, cap=_CAP)
    log2_alpha, log2_beta = stein_log2_errors_types(h.p1.probs, h.p2.probs, n, walk_band)
    _assert_close(report.log2_alpha, log2_alpha)
    _assert_close(report.log2_beta, log2_beta)
    _assert_close(report.np_log2_beta, np_log2_beta_types(h.p1.probs, h.p2.probs, n, epsilon))
    return alone.sum()


# the largest n per alphabet size that keeps the exact sums to about 5,000 types
_N_MAX = {4: 30, 5: 16, 6: 10}


@pytest.mark.parametrize("seed", range(9))
def test_seeded_alphabets(seed):
    rng = np.random.default_rng(1000 + seed)
    k = 4 + seed % 3
    n = int(rng.integers(1, _N_MAX[k] + 1))
    h = _hypothesis(rng.random(k) + 0.01, rng.random(k) + 0.01)
    _assert_run_path(h, n, float(rng.uniform(0.01, 0.3)), float(rng.uniform(0.001, 0.49)))


@pytest.mark.parametrize(
    "w1, w2, n",
    [
        ([2, 0, 3, 1, 4], [1, 1, 1, 1, 1], 16),  # p1 = 0 inside the alphabet
        ([1, 2, 3, 4, 0], [4, 3, 2, 1, 1], 16),  # p1 = 0 on the last symbol
        ([2, 3, 0, 1, 4], [1, 2, 0, 3, 1], 16),  # zero in both
        ([0, 2, 3, 0, 1, 4], [1, 2, 1, 0, 3, 1], 14),  # two, one of them in both
    ],
)
def test_zero_probability_symbols(w1, w2, n):
    _assert_run_path(_hypothesis(w1, w2), n, 0.1, 0.07)


@pytest.mark.parametrize(
    "w1, w2, n",
    [
        ([1, 2, 3, 3], [3, 2, 1, 1], 30),  # the last two weights are the same double
        ([2, 3, 1, 2], [3, 2, 4, 8], 25),  # equal on the reals, an ulp apart as doubles
        ([2, 3, 1, 3], [3, 2, 3, 9], 25),
        ([1, 1, 1, 1], [1, 1, 1, 1], 20),  # identical: every type has LLR 0
    ],
)
def test_equal_weights_on_the_last_two_symbols(w1, w2, n):
    h = _hypothesis(w1, w2)
    _assert_run_path(h, n, 0.05 + kl_divergence(h.p1, h.p2) / 2, 0.1)


@pytest.mark.parametrize(
    "w1, w2, n",
    [
        ([5, 5, 5, 5], [5, 5, 2, 8], 30),  # the LLR depends on (c_2, c_3) alone
        ([8, 3, 1, 1], [6, 9, 6, 3], 25),  # ratios of 2, 3 and 13: a lattice of LLRs
        ([2, 2, 1, 1, 1], [1, 1, 2, 2, 2], 12),
    ],
)
def test_lattice_llrs_with_ties_across_runs(w1, w2, n):
    h = _hypothesis(w1, w2)
    for epsilon in (0.05, 0.089, 0.3):
        _assert_run_path(h, n, 0.1, epsilon)


@pytest.mark.parametrize(
    "w1, w2, n",
    [
        ([1, 2, 3, 4], [4, 3, 2, 1], 20),
        ([5, 5, 5, 5], [5, 5, 2, 8], 25),
        ([2, 3, 1, 2], [3, 2, 4, 8], 20),
        ([3, 1, 4, 1, 5], [2, 7, 1, 8, 2], 12),
    ],
)
def test_band_edge_on_a_type(w1, w2, n):
    # delta = |LLR - D| of some type puts it on a band edge, where the last
    # bit of its walk score decides membership
    h = _hypothesis(w1, w2)
    llr = _walk_llr(h, n)
    d = kl_divergence(h.p1, h.p2)
    undecided = 0
    for x in llr[np.isfinite(llr)][:: max(1, llr.size // 5)]:
        if x != d:
            undecided += _assert_run_path(h, n, abs(float(x) - d), 0.1)
    # the cuts leave the types on the edges to their own scores
    assert undecided > 0


@pytest.mark.parametrize(
    "w1, w2, n, delta",
    [
        # theta_2 = 1e-12: the band lies 1,100+ bits into the P2 rows' tails,
        # where a row summed in doubles scaled by its largest term is 0
        ([1, 1, 8, 1], [1, 1, 1e-12, 1], 40, 0.5),
        ([1, 2, 8, 1], [2, 1, 1e-12, 3], 36, 1.0),
        # theta_1 = 1e-12
        ([1, 1, 1e-12, 1], [1, 1, 3, 1], 40, 0.05),
    ],
)
def test_binomial_rows_beyond_the_double_range(w1, w2, n, delta):
    _assert_run_path(_hypothesis(w1, w2), n, delta, 0.1)


@pytest.mark.parametrize("side", ["above", "below"])
def test_np_from_the_walk_where_the_bracket_misses_the_threshold(monkeypatch, side):
    # a bracket wholly on one side of the NP threshold holds no threshold
    # among its types, so the NP optimum comes from the walk, whose last
    # bits differ from the runs' here
    h = _hypothesis([1, 8, 5, 2], [9, 9, 1, 1])
    n, epsilon = 40, 0.05
    walk = _np_log2_min_beta(epsilon, _type_scores(h, n, _walk_types(n, 4, cap=_CAP)))
    assert walk.hex() == "-0x1.9d2a09efeacf2p+4"
    assert stein_errors(h, n, 0.1, epsilon).np_log2_beta != walk
    bracket, threshold = _Runs._bracket, testing._np_threshold
    found = []

    def missed(self, eps):
        lower, upper = bracket(self, eps)
        width = upper - lower
        if side == "above":
            return upper + width, upper + 2 * width
        return lower - 2 * width, lower - width

    def recorded(*args):
        found.append(threshold(*args))
        return found[-1]

    monkeypatch.setattr(_Runs, "_bracket", missed)
    monkeypatch.setattr(testing, "_np_threshold", recorded)
    assert stein_errors(h, n, 0.1, epsilon).np_log2_beta.hex() == walk.hex()
    # the bracket's types were searched and held no threshold; then the walk's
    assert len(found) == 2 and found[0] is None


@pytest.mark.parametrize("log2_theta", [-1.0, math.log2(0.3), math.log2(1e-12), math.log2(1 - 1e-9)])
def test_binomial_tables_match_mpmath(log2_theta):
    n = 60
    theta = 2.0**log2_theta
    log2_rest = math.log2(-math.expm1(log2_theta * _LN2))
    ((terms, left, right),) = _log2_binomial_tables(n, [(log2_theta, log2_rest)])
    with mpmath.workdps(50):
        a, b = mpmath.mpf(2) ** log2_theta, mpmath.mpf(2) ** log2_rest
        for r in (0, 1, 7, 30, 60):
            row = [mpmath.binomial(r, x) * a**x * b ** (r - x) for x in range(r + 1)]
            for x in range(r + 2):
                for got, part in ((left[r, x], row[:x]), (right[r, x], row[x:])):
                    want = mpmath.log(mpmath.fsum(part), 2) if part else -mpmath.inf
                    if part:
                        assert abs(got - float(want)) * _LN2 <= 1e-12, (theta, r, x)
                    else:
                        assert got == -math.inf
            assert (terms[r, r + 1 :] == -math.inf).all()
