"""The blocked type pass keeps the bits of the whole-vector pass.

``type_pass_oracle`` keeps the earlier pass: whole T-long score vectors, one
column at a time, reduced with fresh masks and compactions. The library
fills the scores block by block and reduces them in place; the type scores
and the deviation probability must agree with the oracle's ``float.hex``
for float.hex at every k. So must every field of the oracle's
``SteinReport`` (its linear fields as 2 ** log2 and its exponent as -log2
beta / n) and the Neyman-Pearson log2 beta wherever fewer than four symbols
have positive p1. From four up, ``stein_errors`` sums runs of types from
binomial tables instead (``tests/test_run_path.py``), which moves last
bits: there its errors must match the exact-fraction sums of ``np_oracle``
over the band the oracle's scores give, at 1e-12 relative.
"""

import dataclasses
import math

import numpy as np
import pytest
import type_pass_oracle as oracle
from np_oracle import np_log2_beta_types, stein_log2_errors_types

from errexp import (
    BinaryHypothesis,
    deviation_exact_log2_prob,
    kl_divergence,
    make_distribution,
    stein_errors,
)
from errexp import types_method
from errexp.testing import _type_scores
from errexp.types_method import _exp2, _walk_types, count_types

# the largest n per alphabet size that keeps each case to a few thousand types
_N_MAX = {1: 50, 2: 300, 3: 70, 4: 25, 5: 14, 6: 10, 7: 8, 8: 7, 9: 6, 10: 5, 11: 5}


def _bits(x) -> str:
    return float(x).hex()


def _assert_exact(got, want):
    if want == -math.inf:
        assert got == -math.inf
    else:
        assert abs(got - want) * math.log(2.0) <= 1e-12, (got, want)


def _assert_same_pass(h, n, delta, epsilon):
    report = stein_errors(h, n, delta, epsilon, cap=10**7)
    scores = oracle.type_scores(h, n)
    walk = _walk_types(n, h.p1.alphabet_size, cap=10**7)
    for got, want in zip(_type_scores(h, n, walk), scores):
        assert got.tobytes() == want.tobytes()
    for p in (h.p1, h.p2):
        for deviation in (0.5 * delta, 2.0 * delta):
            got = 2.0 ** deviation_exact_log2_prob(n, p, deviation)
            assert _bits(got) == _bits(oracle.deviation_probability_exact(n, p, deviation))
    if np.count_nonzero(h.p1.probs) >= 4:
        d = kl_divergence(h.p1, h.p2)
        band = (scores[0] >= d - delta) & (scores[0] <= d + delta)
        log2_alpha, log2_beta = stein_log2_errors_types(h.p1.probs, h.p2.probs, n, band)
        _assert_exact(report.log2_alpha, log2_alpha)
        _assert_exact(report.log2_beta, log2_beta)
        want = np_log2_beta_types(h.p1.probs, h.p2.probs, n, epsilon)
        _assert_exact(report.np_log2_beta, want)
        return
    want = oracle.stein_report(h, n, delta, scores)
    linear = {
        "alpha_n": 2.0**report.log2_alpha,
        "beta_n": 2.0**report.log2_beta,
        "exponent": -report.log2_beta / n,
    }
    for field in dataclasses.fields(want):
        got = linear.get(field.name, getattr(report, field.name, None))
        assert _bits(got) == _bits(getattr(want, field.name)), field.name
    assert _bits(report.np_log2_beta) == _bits(oracle.np_log2_min_beta(epsilon, scores))


def _weights(rng, k, zeros=()):
    w = rng.random(k) + 0.01
    w[list(zeros)] = 0.0
    return w


@pytest.mark.parametrize("seed", range(22))
def test_seeded_alphabets(seed):
    rng = np.random.default_rng(seed)
    k = 1 + seed % 11
    n = int(rng.integers(1, _N_MAX[k] + 1))
    h = BinaryHypothesis(make_distribution(_weights(rng, k)), make_distribution(_weights(rng, k)))
    delta = float(rng.uniform(0.01, 0.3))
    _assert_same_pass(h, n, delta, float(rng.uniform(0.001, 0.3)))


@pytest.mark.parametrize(
    "k, zeros1, zeros2",
    [
        (3, [0], []),  # p1 = 0 on a symbol p2 keeps: those types have lp1 = -inf
        (4, [1, 3], []),
        (3, [2], [2]),  # both zero on the same symbol: -inf under both
        (5, [0, 4], [4]),
        (2, [1], [1]),
    ],
)
def test_zero_probability_symbols(k, zeros1, zeros2):
    rng = np.random.default_rng(100 + k)
    h = BinaryHypothesis(
        make_distribution(_weights(rng, k, zeros1)), make_distribution(_weights(rng, k, zeros2))
    )
    _assert_same_pass(h, _N_MAX[k] // 2, 0.05, 0.07)


@pytest.mark.parametrize(
    "w1, w2, n",
    [
        ([1, 2, 3], [1, 2, 3], 40),  # identical: every type has LLR 0
        ([1, 1, 1, 1], [1, 1, 1, 1], 20),
        ([1, 1, 2, 2], [1, 1, 3, 1], 20),  # equal ratios on three symbols
        ([2, 2, 1], [1, 1, 2], 50),  # two classes of LLR per count
        ([1, 1], [1, 3], 301),
    ],
)
def test_identical_hypotheses_and_llr_ties(w1, w2, n):
    h = BinaryHypothesis(make_distribution(w1), make_distribution(w2))
    _assert_same_pass(h, n, 0.05 + kl_divergence(h.p1, h.p2) / 2, 0.1)


def _block_for(total, r):
    """A block size b with total = m * b + r for some m >= 2."""
    target = total - r
    m = next(d for d in range(2, target + 1) if target % d == 0)
    return target // m


@pytest.mark.parametrize("r", [-1, 0, 1])
@pytest.mark.parametrize("k, n", [(3, 40), (4, 12), (5, 8)])
def test_block_edges(monkeypatch, k, n, r):
    # blocks that split prefixes, and a last block one short, exact, or of
    # a single type
    block = _block_for(count_types(n, k), r)
    monkeypatch.setattr(types_method, "_BLOCK", block)
    rng = np.random.default_rng(k * 100 + n)
    h = BinaryHypothesis(make_distribution(_weights(rng, k)), make_distribution(_weights(rng, k)))
    _assert_same_pass(h, n, 0.1, 0.05)


@pytest.mark.parametrize("offset", [-1, 0, 1, 3000])
def test_binary_alphabet_across_the_block_size(offset):
    # k = 2 has one prefix, whose n + 1 types span one or more blocks
    n = types_method._BLOCK - 1 + offset
    h = BinaryHypothesis(make_distribution([2, 3]), make_distribution([3, 2]))
    _assert_same_pass(h, n, 0.05, 0.05)


def test_exp2_below_the_floor_is_positive_zero():
    # _exp2 writes +0.0 without evaluating 2**x below -1100; NumPy's exp2
    # gives the same there on this platform
    x = np.linspace(-1200.0, -1100.0, 100_001)
    got = np.exp2(x)
    assert not got.any() and not np.signbit(got).any()
    x = np.r_[np.linspace(-1200.0, 10.0, 100_001), -np.inf, -1100.0, -1075.0, -1074.0]
    assert _exp2(x, np.empty_like(x)).tobytes() == np.exp2(x).tobytes()
