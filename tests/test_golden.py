"""Bit-level pins of the exact type-class quantities.

Every expected value below is ``float.hex`` of the result the recursive
enumerator and the sorted-key Neyman-Pearson loop produced on x86-64 Linux
(glibc libm, NumPy 64-bit floats). The array enumeration and the array NP
ordering must reproduce them bit for bit. The grid spans alphabets of 1 to 5
symbols and n up to 2000, and includes zero-probability symbols (on one side
and on both), hypotheses that agree on some symbols (heavy LLR ties) and
identical hypotheses (every type tied).
"""

import itertools
import math

import numpy as np
import pytest

from errexp import (
    BinaryHypothesis,
    ConstraintSet,
    deviation_probability_exact,
    make_distribution,
    neyman_pearson_min_beta,
    sanov_exponent,
    stein_errors,
)
from errexp._kernels import type_log_probs
from errexp.dist import log_factorial_table
from errexp.testing import _avg_llr_rows
from errexp.types_method import (
    _enumerate_counts,
    _log2_sum_exp2,
    _log2q,
    sanov_exact_log2_prob,
)

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

NP_GOLDEN = {
    "k1_n5": "0x1.e666666666666p-1",
    "k2_identical": "0x1.e666666666668p-1",
    "k2_n10": "0x1.024619999995cp-1",
    "k2_n100": "0x1.adff228dd95c9p-16",
    "k2_n2000": "0x1.7db1b8890f483p-365",
    "k2_n2000_skew": "0x1.5d2b7add60f10p-506",
    "k3_n150": "0x1.5caa58e19cafdp-62",
    "k3_zero_in_both": "0x1.81f4d98addd58p-4",
    "k3_zero_in_p1": "0x1.e666666666668p-31",
    "k4_n100": "0x1.82792613e7839p-55",
    "k4_ties": "0x1.d6f20d42516a0p-6",
    "k5_n30": "0x1.05cd77906e55dp-3",
    "k5_ties_zero": "0x1.86411ba3c6ac9p-11",
}

STEIN_GOLDEN = {
    "k1_n5": ("0x0.0p+0", "0x1.0000000000000p+0", "-0x0.0p+0"),
    "k2_n100": ("0x1.efbcbcc756c5cp-2", "0x1.ab2dfa5326e59p-20", "0x1.8a78b0a89c59dp-3"),
    "k2_n2000": ("0x1.270f6d0bc8500p-8", "0x1.f2f043a5823fap-327", "0x1.4ddcb7990cbf1p-3"),
    "k3_n100": ("0x1.7f490b7b634f0p-4", "0x1.339c1850d0d5ep-39", "0x1.8ca5970e8f1bdp-2"),
    "k3_zero_in_p1": ("0x1.9000000000000p-48", "0x1.fffffffffffd4p-31", "0x1.0000000000001p+0"),
    "k4_ties": ("0x1.857efa4a52cb4p-2", "0x1.31978d42732c0p-6", "0x1.261ecbbdc8193p-3"),
    "k5_n20": ("0x1.2d711f39835f9p-1", "0x1.14303a9aa29a2p-5", "0x1.f4c94a4cf6633p-3"),
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

DEVIATION_GOLDEN = {
    "k1_none": "0x0.0p+0",
    "k2_n2000": "0x1.1f625f44c56cfp-23",
    "k2_n50": "0x1.09dda64672bbdp-4",
    "k3_n100": "0x1.f634ab0560ecep-6",
    "k3_zero": "0x1.129fadc1efffap-2",
    "k4_n50": "0x1.4948fcb1eb8edp-4",
    "k5_n25": "0x1.5ff396e73dd5ep-3",
}


def _hypothesis(w1, w2):
    return BinaryHypothesis(make_distribution(w1), make_distribution(w2))


@pytest.mark.parametrize("case", sorted(NP_CASES))
def test_neyman_pearson_min_beta(case):
    w1, w2, n, eps = NP_CASES[case]
    assert neyman_pearson_min_beta(_hypothesis(w1, w2), n, eps).hex() == NP_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(STEIN_CASES))
def test_stein_errors(case):
    w1, w2, n, delta = STEIN_CASES[case]
    r = stein_errors(_hypothesis(w1, w2), n, delta)
    assert (r.alpha_n.hex(), r.beta_n.hex(), r.exponent.hex()) == STEIN_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(SANOV_CASES))
def test_sanov_exponent(case):
    w, mode, symbol, threshold, n = SANOV_CASES[case]
    d, t = sanov_exponent(ConstraintSet(mode, symbol, threshold), make_distribution(w), n)
    assert (d.hex(), t.counts) == SANOV_EXPONENT_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(SANOV_CASES))
def test_sanov_exact_log2_prob(case):
    w, mode, symbol, threshold, n = SANOV_CASES[case]
    lp = sanov_exact_log2_prob(
        ConstraintSet(mode, symbol, threshold), make_distribution(w), n
    )
    assert lp.hex() == SANOV_LOG2_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(DEVIATION_CASES))
def test_deviation_probability_exact(case):
    w, n, delta = DEVIATION_CASES[case]
    p = deviation_probability_exact(n, make_distribution(w), delta)
    assert p.hex() == DEVIATION_GOLDEN[case]


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("n", range(1, 8))
def test_enumeration_matches_product_oracle(n, k):
    oracle = sorted(c for c in itertools.product(range(n + 1), repeat=k) if sum(c) == n)
    got = _enumerate_counts(n, k, cap=10**6)
    assert got.dtype == np.int64 and got.shape == (len(oracle), k)
    assert [tuple(r) for r in got.tolist()] == oracle


def _np_min_beta_loop(counts, llr, lp1, lp2, epsilon):
    """The per-type Neyman-Pearson loop the array ordering replaced."""
    order = sorted(range(counts.shape[0]), key=lambda i: (-llr[i], tuple(counts[i])))
    target = 1.0 - epsilon
    accepted_p1 = 0.0
    log2_beta_terms = []
    for i in order:
        mass1 = 2.0 ** lp1[i] if np.isfinite(lp1[i]) else 0.0
        if accepted_p1 + mass1 < target:
            accepted_p1 += mass1
            log2_beta_terms.append(lp2[i])
            continue
        if mass1 > 0.0:
            gamma = min(1.0, (target - accepted_p1) / mass1)
            if gamma > 0.0 and np.isfinite(lp2[i]):
                log2_beta_terms.append(math.log2(gamma) + lp2[i])
        break
    return min(1.0, 2.0 ** _log2_sum_exp2(np.asarray(log2_beta_terms)))


def test_neyman_pearson_matches_sorted_loop():
    # small integer weights, some of them zero, make LLR ties common
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 40:
        k = int(rng.integers(2, 6))
        w1, w2 = rng.integers(0, 4, k), rng.integers(0, 4, k)
        if not w1.any() or np.any((w1 > 0) & (w2 == 0)):
            continue
        h = _hypothesis(w1, w2)
        n = int(rng.integers(1, 40 if k <= 3 else 15))
        eps = float(rng.uniform(0.01, 0.49))
        counts = _enumerate_counts(n, k, cap=10**6)
        table = log_factorial_table(n)
        expected = _np_min_beta_loop(
            counts,
            _avg_llr_rows(counts, h),
            type_log_probs(counts, _log2q(h.p1), table),
            type_log_probs(counts, _log2q(h.p2), table),
            eps,
        )
        assert neyman_pearson_min_beta(h, n, eps).hex() == expected.hex()
        checked += 1
