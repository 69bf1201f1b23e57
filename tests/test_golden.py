"""Bit-level pins of the exact type-class quantities.

Every expected value below is ``float.hex`` of the result the recursive
enumerator produced on x86-64 Linux (glibc libm, NumPy 64-bit floats). The
array enumeration must reproduce them bit for bit. The grid spans alphabets
of 1 to 5 symbols and n up to 2000, and includes zero-probability symbols (on one side
and on both), hypotheses that agree on some symbols (heavy LLR ties) and
identical hypotheses (every type tied).

The Sanov pins were taken from the enumerated path, which ``sanov_oracle``
keeps; the oracle must still reproduce them bit for bit. The library sums
the Sanov probability over the merged alphabet {a, not a} instead, and
three of its log2 values differ from the enumerated sum in the last bits
(``SANOV_LOG2_MERGED_GOLDEN``); its exponents and minimizers do not.

The Neyman-Pearson pins were retaken when the optimum became a threshold
found by selection, with alpha summed on the rejected side; the comment
above ``NP_GOLDEN`` gives both errors against ``np_oracle``, and the tests
at the end compare the optimum with that exact oracle on random and edge
cases.

The Stein alpha pins were retaken when alpha became the log-space sum of
the rejected p1 mass instead of 1 minus the accepted mass; the comment above
``STEIN_GOLDEN`` gives both errors against an exact-fraction sum.

The Stein and Neyman-Pearson pins of four or more symbols with positive p1
were retaken when those sums became sums over runs of types; the comments
above ``NP_GOLDEN`` and ``STEIN_GOLDEN`` give both errors.

The ``solve_beta`` pins are the inverse temperatures the Boltzmann module's
own bracket-and-bisect loop returned on the same platform; the shared tilt
solver must reproduce them, and raise the same errors, bit for bit.
"""

import itertools
import math

import numpy as np
import pytest
import sanov_oracle
from np_oracle import np_log2_beta_types
from row_oracle import _enumerate_counts, avg_llr_rows, type_log_probs

from errexp import (
    BinaryHypothesis,
    ConstraintSet,
    InfeasibleError,
    deviation_exact_log2_prob,
    make_distribution,
    sanov_exact_log2_prob,
    sanov_exponent,
    solve_beta,
    stein_errors,
)
from errexp.dist import log_factorial_table
from errexp.types_method import _log2q

# (p1 weights, p2 weights, n, epsilon)
NP_CASES = {
    "k1_n5": ([1], [1], 5, 0.05),
    "k2_n10": ([1, 1], [1, 3], 10, 0.05),
    "k2_n100": ([1, 1], [1, 3], 100, 0.1),
    "k2_n2000": ([1, 1], [1, 3], 2000, 0.05),
    "k2_n2000_skew": ([3, 7], [6, 4], 2000, 0.2),
    "k2_identical": ([1, 1], [1, 1], 50, 0.05),
    "k3_zero_in_p1": ([1, 1, 0], [1, 1, 2], 30, 0.05),
    "k3_zero_in_both": ([1, 1, 0], [3, 7, 0], 40, 0.1),
    "k3_n150": ([1, 2, 3], [3, 2, 1], 150, 0.05),
    "k4_ties": ([5, 5, 5, 5], [5, 5, 2, 8], 60, 0.05),
    "k4_n100": ([1, 2, 3, 4], [4, 3, 2, 1], 100, 0.1),
    "k5_n30": ([1, 1, 1, 1, 1], [1, 2, 3, 4, 5], 30, 0.05),
    "k5_ties_zero": ([2, 2, 3, 3, 0], [2, 2, 1, 5, 1], 25, 0.3),
}

# (p1 weights, p2 weights, n, delta)
STEIN_CASES = {
    "k1_n5": ([1], [1], 5, 0.1),
    "k2_n100": ([1, 1], [1, 3], 100, 0.05),
    "k2_n2000": ([1, 1], [1, 3], 2000, 0.05),
    "k3_zero_in_p1": ([1, 1, 0], [1, 1, 2], 30, 0.1),
    "k3_n100": ([1, 2, 3], [3, 2, 1], 100, 0.2),
    "k4_ties": ([5, 5, 5, 5], [5, 5, 2, 8], 40, 0.1),
    "k5_n20": ([1, 1, 1, 1, 1], [1, 2, 3, 4, 5], 20, 0.1),
}

# (p weights, mode, symbol, threshold, n)
SANOV_CASES = {
    "k1_n5": ([1], "lower", 0, 0.5, 5),
    "k2_n10": ([1, 1], "lower", 1, 0.75, 10),
    "k2_n2000": ([1, 1], "lower", 1, 0.75, 2000),
    "k3_upper": ([1, 2, 3], "upper", 2, 0.3, 200),
    "k3_zero": ([1, 1, 0], "lower", 0, 0.6, 50),
    "k4_uniform": ([1, 1, 1, 1], "lower", 3, 0.4, 60),
    "k5_upper": ([1, 2, 3, 4, 5], "upper", 4, 0.2, 30),
}

# (p weights, n, delta)
DEVIATION_CASES = {
    "k1_none": ([1], 5, 0.1),
    "k2_n50": ([1, 1], 50, 0.05),
    "k2_n2000": ([1, 3], 2000, 0.01),
    "k3_n100": ([1, 2, 3], 100, 0.05),
    "k3_zero": ([1, 1, 0], 40, 0.02),
    "k4_n50": ([1, 1, 1, 1], 50, 0.1),
    "k5_n25": ([1, 2, 3, 4, 5], 25, 0.2),
}

# NP rejects the types of least likelihood ratio up to alpha = epsilon and
# randomizes the tie class at the threshold as a whole; it used to accept
# the sorted types up to 1 - epsilon, which rounds away the digits of the
# rejected mass. Relative errors against ``np_oracle.np_log2_beta_types``
# over the same doubles (old -> new, old hex): k2_n10 1.4e-14 -> 2.1e-15
# (0x1.024619999995cp-1), k2_n100 1.8e-13 -> 4.9e-14 (0x1.adff228dd95c9p-16),
# k2_n2000 1.7e-10 -> 1.3e-11 (0x1.7db1b8890f483p-365), k2_n2000_skew
# 5.6e-11 -> 8.3e-12 (0x1.5d2b7add60f10p-506), k3_zero_in_both 2.9e-14 ->
# 3.6e-15 (0x1.81f4d98addd58p-4), k3_n150 1.1e-12 -> 6.8e-14
# (0x1.5caa58e19cafdp-62), k4_ties 3.2e-13 -> 1.8e-14 (0x1.d6f20d42516a0p-6),
# k4_n100 6.6e-13 -> 9.5e-14 (0x1.82792613e7839p-55), k5_n30 1.0e-13 ->
# 7.9e-15 (0x1.05cd77906e55dp-3), k5_ties_zero 1.7e-14 -> 5.4e-15
# (0x1.86411ba3c6ac9p-11). Two are farther, left as the sums give them:
# k2_identical 1.9e-16 -> 1.3e-14 (0x1.e666666666668p-1) and k3_zero_in_p1
# 1.9e-16 -> 4.7e-15 (0x1.e666666666668p-31). There p2 is a fixed multiple
# of p1 on every accepted type, so 1 - epsilon of the float p1 mass gave
# beta almost exactly; alpha = epsilon leaves in beta the error of the
# float p1 total (1.2e-14 and 5.4e-15 below 1).
#
# From four symbols of positive p1 up, the optimum is summed by runs of
# types from binomial tables, selected among the types of a bracket of
# scores, with the rounding of ln n! that every type shares added back.
# Relative errors against ``np_oracle.np_log2_beta_types`` (walk -> runs,
# old hex): k4_n100 9.4e-14 -> 0 (0x1.82792613e6414p-55), k4_ties 1.8e-14
# -> 8.6e-15 (0x1.d6f20d4252190p-6), k5_n30 7.8e-15 -> 4.6e-15
# (0x1.05cd77906e361p-3), k5_ties_zero 5.0e-15 -> 3.6e-15
# (0x1.86411ba3c6a31p-11). The tie fraction gamma amplifies a relative
# error common to the p1 masses by about the p1 mass below the tie over the
# tie's: at k4_n100 the double ln 100! alone, 0.36 ulp low, put the walk
# 9.4e-14 off.
NP_GOLDEN = {
    "k1_n5": "0x1.e666666666666p-1",
    "k2_identical": "0x1.e6666666665f7p-1",
    "k2_n10": "0x1.02461999999a3p-1",
    "k2_n100": "0x1.adff228dd8efbp-16",
    "k2_n2000": "0x1.7db1b887dcdb2p-365",
    "k2_n2000_skew": "0x1.5d2b7add00ec3p-506",
    "k3_n150": "0x1.5caa58e19aee7p-62",
    "k3_zero_in_both": "0x1.81f4d98addc79p-4",
    "k3_zero_in_p1": "0x1.e66666666663ep-31",
    "k4_n100": "0x1.82792613e6691p-55",
    "k4_ties": "0x1.d6f20d425213ep-6",
    "k5_n30": "0x1.05cd77906e39ap-3",
    "k5_ties_zero": "0x1.86411ba3c6a6cp-11",
}

# alpha_n is the log-space sum of the rejected p1 mass, not 1 - accepted;
# relative errors against an exact-fraction sum over the same doubles
# (1 - accepted -> rejected sum, old hex):
# k2_n100 9.8e-15 -> 2.0e-14 (0x1.efbcbcc756c5cp-2; farther, left as the
# sum gives it), k2_n2000 1.6e-10 -> 7.3e-13 (0x1.270f6d0bc8500p-8),
# k3_n100 1.6e-13 -> 1.8e-14 (0x1.7f490b7b634f0p-4), k4_ties 5.3e-15 ->
# 2.9e-15 (0x1.857efa4a52cb4p-2), k5_n20 3.9e-15 -> 2.2e-15
# (0x1.2d711f39835f9p-1); k3_zero_in_p1 rejects only types with p1 mass 0,
# so alpha is exactly 0 (was 0x1.9000000000000p-48).
#
# From four symbols of positive p1 up, the band's errors are summed by
# runs of types from binomial tables; errors in ulps against an
# exact-fraction sum over the same band (walk -> runs, old hex):
# k4_ties alpha -20 -> 10 (0x1.857efa4a52c7cp-2), beta -14 -> 13
# (0x1.31978d42732c0p-6) and its exponent 3 -> -3, as close
# (0x1.261ecbbdc8193p-3); k5_n20 alpha 12 -> 5 (0x1.2d711f3983619p-1),
# beta 6 -> 0 (0x1.14303a9aa29a2p-5) and its exponent -3 -> 0
# (0x1.f4c94a4cf6633p-3)
STEIN_GOLDEN = {
    "k1_n5": ("0x0.0p+0", "0x1.0000000000000p+0", "-0x0.0p+0"),
    "k2_n100": ("0x1.efbcbcc756b5bp-2", "0x1.ab2dfa5326e59p-20", "0x1.8a78b0a89c59dp-3"),
    "k2_n2000": ("0x1.270f6d0aff13bp-8", "0x1.f2f043a5823fap-327", "0x1.4ddcb7990cbf1p-3"),
    "k3_n100": ("0x1.7f490b7b6304bp-4", "0x1.339c1850d0d5ep-39", "0x1.8ca5970e8f1bdp-2"),
    "k3_zero_in_p1": ("0x0.0p+0", "0x1.fffffffffffd4p-31", "0x1.0000000000001p+0"),
    "k4_ties": ("0x1.857efa4a52c9ap-2", "0x1.31978d42732dbp-6", "0x1.261ecbbdc818dp-3"),
    "k5_n20": ("0x1.2d711f3983612p-1", "0x1.14303a9aa299cp-5", "0x1.f4c94a4cf6636p-3"),
}

SANOV_EXPONENT_GOLDEN = {
    "k1_n5": ("0x0.0p+0", (5,)),
    "k2_n10": ("0x1.1cbee1a994addp-2", (2, 8)),
    "k2_n2000": ("0x1.82809d5be7074p-3", (500, 1500)),
    "k3_upper": ("0x1.e6490146367eap-4", (47, 93, 60)),
    "k3_zero": ("0x1.dbf209b244a38p-6", (30, 20, 0)),
    "k4_uniform": ("0x1.3fc853731f846p-4", (12, 12, 12, 24)),
    "k5_upper": ("0x1.0c22665144198p-4", (2, 5, 7, 10, 6)),
}

SANOV_LOG2_GOLDEN = {
    "k1_n5": "0x0.0p+0",
    "k2_n10": "-0x1.0c544c055fde7p+2",
    "k2_n2000": "-0x1.7e762bc4d3ae1p+8",
    "k3_upper": "-0x1.afbd2df6c24f0p+4",
    "k3_zero": "-0x1.a6c94b41cf5d5p+1",
    "k4_uniform": "-0x1.c3d68a9debc0bp+2",
    "k5_upper": "-0x1.c9c25fea1f194p+1",
}

# the binomial range sum of errexp.types_method; relative errors against a
# 50-digit sum of the same double inputs (enumerated -> merged):
# k3_upper 7.8e-16 -> 2.7e-16, k4_uniform 1.85e-15 -> 1.60e-15,
# k5_upper 2.16e-15 -> 2.66e-15
SANOV_LOG2_MERGED_GOLDEN = {
    **SANOV_LOG2_GOLDEN,
    "k3_upper": "-0x1.afbd2df6c24e8p+4",
    "k4_uniform": "-0x1.c3d68a9debc0dp+2",
    "k5_upper": "-0x1.c9c25fea1f198p+1",
}

DEVIATION_GOLDEN = {
    "k1_none": "0x0.0p+0",
    "k2_n2000": "0x1.1f625f44c56cfp-23",
    "k2_n50": "0x1.09dda64672bbdp-4",
    "k3_n100": "0x1.f634ab0560ecep-6",
    "k3_zero": "0x1.129fadc1efffap-2",
    "k4_n50": "0x1.4948fcb1eb8edp-4",
    "k5_n25": "0x1.5ff396e73dd5ep-3",
}


# (levels, target mean)
BETA_CASES = {
    "beta0_uniform_mean": ([0, 1], 0.5),
    "beta0_within_tol": ([0, 1, 2, 3], 1.5 - 5e-11),
    "warm": ([0, 1, 2, 3], 1.2),
    "cold_bracket_growth": ([0, 1, 2, 3], 1e-3),
    "frozen": ([0, 0.5, 4], 1e-9),
    "deep_cold": ([0, 1, 2, 3], 1e-320),
    "negative_levels": ([-2.5, -1, 0.75, 3], -1.2),
    "negative_degenerate": ([-3, -3, -1, 2, 2], -1.75),
    "near_uniform": ([0.25, 1.5, 2.0, 4.75], 2.125 - 1e-7),
    "unsorted": ([1.234, 4.567, 0.321, 2.5, 3.75], 1.5),
}

BETA_GOLDEN = {
    "beta0_uniform_mean": "0x0.0p+0",
    # 5e-11 below the uniform mean is far beyond its rounding, so it is
    # solved: 2.4e-16 from the root 4.00000033096e-11 (60 digits), not 0
    "beta0_within_tol": "0x1.5fd7735555554p-35",
    "warm": "0x1.f3c3b975fc566p-3",
    "cold_bracket_growth": "0x1.ba2909ca097e6p+2",
    "frozen": "0x1.407b5db2b96e2p+5",
    "deep_cold": "0x1.7069daef86fc6p+9",
    "negative_levels": "0x1.70f553451a524p-2",
    "negative_degenerate": "0x1.094f2e795d496p-2",
    "near_uniform": "0x1.3dc7269d00000p-25",
    "unsorted": "0x1.c1fe016b78504p-2",
}

# (levels, target mean): targets outside (ground, mean]
BETA_ERROR_CASES = {
    "above_uniform_mean": ([0, 1], 0.9),
    "at_ground": ([0, 1], 0.0),
}


def _hypothesis(w1, w2):
    return BinaryHypothesis(make_distribution(w1), make_distribution(w2))


# the pins were taken from the linear forms; stein_errors returns log2, and
# 2 ** log2 and -log2 beta / n give those same bits. The NP optimum does not
# depend on the Stein band, nor the band on epsilon: both are arbitrary here
ANY_DELTA, ANY_EPSILON = 0.1, 0.05


@pytest.mark.parametrize("case", sorted(NP_CASES))
def test_neyman_pearson_min_beta(case):
    w1, w2, n, eps = NP_CASES[case]
    r = stein_errors(_hypothesis(w1, w2), n, ANY_DELTA, eps)
    assert (2.0**r.np_log2_beta).hex() == NP_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(STEIN_CASES))
def test_stein_errors(case):
    w1, w2, n, delta = STEIN_CASES[case]
    r = stein_errors(_hypothesis(w1, w2), n, delta, ANY_EPSILON)
    got = (2.0**r.log2_alpha, 2.0**r.log2_beta, -r.log2_beta / n)
    assert tuple(x.hex() for x in got) == STEIN_GOLDEN[case]


def _sanov_case(case):
    w, mode, symbol, threshold, n = SANOV_CASES[case]
    return ConstraintSet(mode, symbol, threshold), make_distribution(w), n


@pytest.mark.parametrize("case", sorted(SANOV_CASES))
def test_sanov_exponent(case):
    d, t = sanov_exponent(*_sanov_case(case))
    assert (d.hex(), t.counts) == SANOV_EXPONENT_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(SANOV_CASES))
def test_sanov_exact_log2_prob(case):
    assert sanov_exact_log2_prob(*_sanov_case(case)).hex() == SANOV_LOG2_MERGED_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(SANOV_CASES))
def test_sanov_oracle_exponent(case):
    d, t = sanov_oracle.sanov_exponent(*_sanov_case(case))
    assert (d.hex(), t.counts) == SANOV_EXPONENT_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(SANOV_CASES))
def test_sanov_oracle_exact_log2_prob(case):
    assert sanov_oracle.sanov_exact_log2_prob(*_sanov_case(case)).hex() == SANOV_LOG2_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(DEVIATION_CASES))
def test_deviation_probability_exact(case):
    w, n, delta = DEVIATION_CASES[case]
    p = 2.0 ** deviation_exact_log2_prob(n, make_distribution(w), delta)
    assert p.hex() == DEVIATION_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(BETA_CASES))
def test_solve_beta(case):
    levels, target = BETA_CASES[case]
    assert solve_beta(levels, target).hex() == BETA_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(BETA_ERROR_CASES))
def test_solve_beta_errors(case):
    levels, target = BETA_ERROR_CASES[case]
    with pytest.raises(InfeasibleError):
        solve_beta(levels, target)


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("n", range(1, 8))
def test_enumeration_matches_product_oracle(n, k):
    oracle = sorted(c for c in itertools.product(range(n + 1), repeat=k) if sum(c) == n)
    got = _enumerate_counts(n, k, cap=10**6)
    assert got.dtype == np.int64 and got.shape == (len(oracle), k)
    assert [tuple(r) for r in got.tolist()] == oracle


def _assert_np_matches_oracle(h, n, eps):
    got = 2.0 ** stein_errors(h, n, ANY_DELTA, eps).np_log2_beta
    want = 2.0 ** np_log2_beta_types(h.p1.probs, h.p2.probs, n, eps)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_neyman_pearson_matches_sorted_loop():
    # the sorted loop is np_oracle's walk over exact likelihood-ratio classes;
    # small integer weights, some of them zero, make LLR ties common
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 40:
        k = int(rng.integers(2, 6))
        w1, w2 = rng.integers(0, 4, k), rng.integers(0, 4, k)
        if not w1.any() or np.any((w1 > 0) & (w2 == 0)):
            continue
        n = int(rng.integers(1, 40 if k <= 3 else 15))
        _assert_np_matches_oracle(_hypothesis(w1, w2), n, float(rng.uniform(0.01, 0.49)))
        checked += 1


def _np_reference(w1, w2, n):
    """Hypothesis, and the LLRs and running p1 sums of the types sorted by
    decreasing LLR (ties by count vector)."""
    h = _hypothesis(w1, w2)
    counts = _enumerate_counts(n, len(w1), cap=10**6)
    table = log_factorial_table(n)
    llr = avg_llr_rows(counts, h)
    lp1 = type_log_probs(counts, _log2q(h.p1), table)
    order = sorted(range(counts.shape[0]), key=lambda i: (-llr[i], tuple(counts[i])))
    running = list(itertools.accumulate(2.0 ** lp1[i] for i in order))
    return h, [llr[i] for i in order], running


def _exact_running_sum(llr, running):
    # a running sum s in (1/2, 1) for which 1 - (1 - s) == s in doubles
    s = next(s for s in running if 0.5 < s < 1.0 and 1.0 - (1.0 - s) == s)
    return 1.0 - s


def _last_type(llr, running):
    assert running[-2] < 0.95 <= running[-1]
    return 0.05


def _inside_tie_class(llr, running):
    # the boundary type shares its LLR with the type accepted before it
    j = next(j for j in range(1, len(llr)) if llr[j] == llr[j - 1] and running[j - 1] > 0.5)
    return 1.0 - 0.5 * (running[j - 1] + running[j])


def _beyond_the_float_sum(llr, running):
    # 1 - 1e-17 rounds to 1, which the float p1 masses fall short of by far
    # more than their rounding, so a walk up to 1 - epsilon accepts every
    # type; the optimum still rejects 1e-17 of the p1 mass
    assert running[-1] < 1.0 - 1e-15
    return 1e-17


# (p1 weights, p2 weights, n, epsilon or a rule that picks it from the
# sorted LLRs and running p1 sums)
NP_EDGE_CASES = {
    "target_is_running_sum": ([1, 2, 3], [3, 2, 1], 12, _exact_running_sum),
    "boundary_at_last_type": ([1, 1], [1, 3], 3, _last_type),
    "tie_class_across_boundary": ([5, 5, 5, 5], [5, 5, 2, 8], 8, _inside_tie_class),
    "epsilon_1e-12": ([1, 2, 3], [3, 2, 1], 20, 1e-12),
    "epsilon_0.4999": ([1, 2, 3], [3, 2, 1], 20, 0.4999),
    "all_types_tied": ([1, 2, 3], [1, 2, 3], 10, 0.05),
    "p1_zero_symbol": ([1, 2, 0], [1, 1, 1], 12, 0.1),
    "k1": ([1], [1], 5, 0.05),
    "target_beyond_the_float_sum": ([1, 1, 1], [1, 2, 3], 40, _beyond_the_float_sum),
}


@pytest.mark.parametrize("case", sorted(NP_EDGE_CASES))
def test_neyman_pearson_matches_sorted_loop_at_the_boundary(case):
    w1, w2, n, eps = NP_EDGE_CASES[case]
    h, llr, running = _np_reference(w1, w2, n)
    if callable(eps):
        eps = eps(llr, running)
    assert 0.0 < eps < 0.5
    _assert_np_matches_oracle(h, n, eps)
