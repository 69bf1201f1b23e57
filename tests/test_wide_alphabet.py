"""Exact type-class quantities at alphabets of 8 to 11 symbols.

From k = 8 on, NumPy sums a k-element row pairwise when the count matrix is
row-major and sequentially when it is column-major, so these results may
differ in their last bits between the two layouts. Either way they must
agree with exact rational sums over the n-types, taken here with integer
arithmetic on the very doubles the program was given: every double in
[0, 1] is an integer multiple of 2**-1074.
"""

import math
from fractions import Fraction

import mpmath
import np_oracle
import numpy as np
import pytest

from errexp import (
    BinaryHypothesis,
    ConstraintSet,
    deviation_exact_log2_prob,
    kl_divergence,
    make_distribution,
    sanov_exact_log2_prob,
    stein_errors,
)

# decisions (band membership, deviation) must not hinge on rounding: every
# type's statistic must clear the edge by this much in bits
MARGIN = 1e-9

# (k, n) of the seeded cases, n <= 7
SIZES = [(8, 7), (8, 5), (9, 7), (9, 4), (10, 6), (10, 7), (11, 5), (11, 7)]


def _mass(counts, units):
    """P(type) * 2**(1074 n), an exact integer."""
    n = sum(counts)
    size = math.factorial(n)
    for c in counts:
        size //= math.factorial(c)
    return size * math.prod(u**c for u, c in zip(units, counts))


def _units(p):
    return [int(Fraction(float(x)) * 2**1074) for x in p.probs]


def _log2(frac):
    with mpmath.workdps(50):
        return float(mpmath.log(mpmath.mpf(frac.numerator) / frac.denominator, 2))


def _case(seed):
    rng = np.random.default_rng(seed)
    k, n = SIZES[seed]
    w1, w2 = rng.integers(1, 10, k), rng.integers(1, 10, k)
    h = BinaryHypothesis(make_distribution(w1), make_distribution(w2))
    return h, n, float(rng.uniform(0.3, 0.8)), float(rng.uniform(0.02, 0.3))


def _clear_of(value, edges):
    assert all(abs(value - e) > MARGIN for e in edges), "decision within rounding"


@pytest.mark.parametrize("seed", range(len(SIZES)))
def test_stein_and_neyman_pearson(seed):
    h, n, delta, eps = _case(seed)
    k = h.p1.alphabet_size
    u1, u2 = _units(h.p1), _units(h.p2)
    step = [math.log2(a) - math.log2(b) for a, b in zip(h.p1.probs, h.p2.probs)]
    d = kl_divergence(h.p1, h.p2)
    scale = 2 ** (1074 * n)

    alpha = beta = 0
    by_ratio = {}
    for counts in np_oracle.types(n, k):
        m1, m2 = _mass(counts, u1), _mass(counts, u2)
        llr = math.fsum(c * s for c, s in zip(counts, step)) / n
        _clear_of(llr, (d - delta, d + delta))
        if abs(llr - d) <= delta:
            beta += m2
        else:
            alpha += m1
        # equal likelihood ratios form one class of the optimal test
        key = Fraction(m1, m2)
        g1, g2 = by_ratio.get(key, (0, 0))
        by_ratio[key] = (g1 + m1, g2 + m2)

    report = stein_errors(h, n, delta, eps)
    assert 2.0**report.log2_alpha == pytest.approx(float(Fraction(alpha, scale)), rel=1e-12)
    assert report.log2_beta == pytest.approx(_log2(Fraction(beta, scale)), rel=1e-12)

    target = (1 - Fraction(eps)) * scale
    accepted, np_beta = 0, Fraction(0)
    for key in sorted(by_ratio, reverse=True):
        g1, g2 = by_ratio[key]
        if accepted + g1 >= target:
            np_beta += Fraction(target - accepted, g1) * g2
            break
        accepted += g1
        np_beta += g2
    got = 2.0**report.np_log2_beta
    assert got == pytest.approx(float(np_beta / scale), rel=1e-12)


@pytest.mark.parametrize("seed", range(len(SIZES)))
def test_sanov_and_deviation(seed):
    h, n, _, _ = _case(seed)
    p, k = h.p1, h.p1.alphabet_size
    units = _units(p)
    log2p = [math.log2(x) for x in p.probs]
    scale = 2 ** (1074 * n)
    symbol, cut = seed % k, 1 + seed % n
    # thresholds halfway between attainable fractions c/n
    lower = ConstraintSet("lower", symbol, (cut - 0.5) / n)
    upper = ConstraintSet("upper", symbol, (cut - 0.5) / n)

    types = list(np_oracle.types(n, k))
    masses = [_mass(counts, units) for counts in types]
    kls = [
        math.fsum(c / n * (math.log2(c / n) - lp) for c, lp in zip(counts, log2p) if c)
        for counts in types
    ]
    # a deviation threshold in the widest gap between the middle KL values
    distinct = sorted(set(kls))
    mid = distinct[len(distinct) // 4 : 3 * len(distinct) // 4 + 2]
    gap = max(range(len(mid) - 1), key=lambda i: mid[i + 1] - mid[i])
    delta = 0.5 * (mid[gap] + mid[gap + 1])
    for kl in kls:
        _clear_of(kl, (delta,))

    at_least = sum(m for c, m in zip(types, masses) if c[symbol] >= cut)
    deviating = sum(m for kl, m in zip(kls, masses) if kl >= delta)
    got = sanov_exact_log2_prob(lower, p, n)
    assert got == pytest.approx(_log2(Fraction(at_least, scale)), rel=1e-12)
    got = sanov_exact_log2_prob(upper, p, n)
    assert got == pytest.approx(_log2(Fraction(sum(masses) - at_least, scale)), rel=1e-12)
    got = 2.0 ** deviation_exact_log2_prob(n, p, delta)
    assert 0.0 < got < 1.0
    assert got == pytest.approx(float(Fraction(deviating, scale)), rel=1e-12)
