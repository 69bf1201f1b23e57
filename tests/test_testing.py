import itertools
import math

import mpmath
import numpy as np
import pytest

from errexp import (
    BinaryHypothesis,
    DegenerateHypothesisError,
    EmpiricalType,
    ValidationError,
    chernoff_lambda_star,
    kl_divergence,
    make_distribution,
    stein_errors,
    stein_region_membership,
)
from np_oracle import np_log2_beta_binomial, stein_moments, strassen_gap

D_HALF_QUARTER = 0.2075187496394219

# stein_errors computes the Stein band and the NP optimum together; a test of
# one passes an arbitrary parameter of the other
ANY_DELTA, ANY_EPSILON = 0.1, 0.05


def _tilt_mp(h, lam):
    """(P_lam, [(p1, p2)]) at 50 digits on the doubles of h, over supp p2."""
    pairs = [
        (mpmath.mpf(float(a)), mpmath.mpf(float(b)))
        for a, b in zip(h.p1.probs, h.p2.probs)
        if b > 0
    ]
    w = [a**lam * b ** (1 - lam) for a, b in pairs]
    z = mpmath.fsum(w)
    return [x / z for x in w], pairs


def divergences_mp(h, lam):
    """(D(P_lam||p1), D(P_lam||p2)) in bits at 50 digits, at the double lam."""
    with mpmath.workdps(50):
        tilt, pairs = _tilt_mp(h, mpmath.mpf(lam))
        return tuple(
            float(mpmath.fsum(q * mpmath.log(q / pair[i], 2) for q, pair in zip(tilt, pairs)))
            for i in (0, 1)
        )


def chernoff_oracle(h):
    """lambda* and C(p1, p2) in bits at 50 digits, on the same doubles.

    Bisects g(lam) = E_{P_lam}[ln(p2/p1)], P_lam = p1^lam p2^(1-lam) / Z, to a
    bracket of 2^-200, far below the double resolution of lambda*.
    """
    with mpmath.workdps(50):

        def g(lam):
            tilt, pairs = _tilt_mp(h, lam)
            return mpmath.fsum(q * mpmath.log(b / a) for q, (a, b) in zip(tilt, pairs))

        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(200):
            mid = (lo + hi) / 2
            if g(mid) > 0:
                lo = mid
            else:
                hi = mid
        lam = (lo + hi) / 2
        tilt, pairs = _tilt_mp(h, lam)
        c_info = mpmath.fsum(q * mpmath.log(q / a, 2) for q, (a, _) in zip(tilt, pairs))
        return float(lam), float(c_info)


def check_near_identical(eps):
    """p1 = (1/2 + eps, 1/2 - eps), p2 = (1/2, 1/2): lambda* within rounding
    over the variance, ~1e-16 / eps, of the root, and d1, d2 within 1e-12 of
    their 50-digit values at the returned lambda*; the p log2(p/q) terms
    lost all but 2-3 digits of them at eps = 1e-7."""
    h = BinaryHypothesis(make_distribution([0.5 + eps, 0.5 - eps]), make_distribution([0.5, 0.5]))
    lam, _ = chernoff_oracle(h)
    report = chernoff_lambda_star(h)
    assert 0.0 < report.lambda_star < 1.0
    assert abs(report.lambda_star - lam) <= 1e-9 * (1e-6 / eps)
    d1, d2 = divergences_mp(h, report.lambda_star)
    # abs=0: approx's default absolute 1e-12 exceeds these divergences
    assert report.d1 == pytest.approx(d1, rel=1e-12, abs=0.0)
    assert report.d2 == pytest.approx(d2, rel=1e-12, abs=0.0)
    assert report.c_info == pytest.approx(max(d1, d2), rel=1e-12, abs=0.0)


@pytest.fixture
def bernoulli_pair():
    return BinaryHypothesis(
        make_distribution([0.5, 0.5]), make_distribution([0.25, 0.75])
    )


class TestBinaryHypothesis:
    def test_infinite_kl_rejected(self):
        with pytest.raises(ValidationError):
            BinaryHypothesis(make_distribution([1, 1]), make_distribution([1, 0]))


class TestSteinRegion:
    def test_type_at_p1_is_member(self, bernoulli_pair):
        t = EmpiricalType((1, 1), 2)
        assert stein_region_membership(t, bernoulli_pair, 1e-6)

    def test_far_type_outside(self, bernoulli_pair):
        t = EmpiricalType((0, 2), 2)
        assert not stein_region_membership(t, bernoulli_pair, 0.1)

    def test_unbounded_region(self, bernoulli_pair):
        for counts in ((0, 2), (1, 1), (2, 0)):
            assert stein_region_membership(
                EmpiricalType(counts, 2), bernoulli_pair, 1e6
            )

    def test_nan_delta_is_refused(self, bernoulli_pair):
        # nan <= 0 is False: a nan band held no type, and beta came out 0
        with pytest.raises(ValidationError):
            stein_region_membership(EmpiricalType((1, 1), 2), bernoulli_pair, math.nan)
        with pytest.raises(ValidationError):
            stein_errors(bernoulli_pair, 20, math.nan, ANY_EPSILON)


class TestSteinErrors:
    def test_identical_hypotheses_keep_beta_high(self):
        h = BinaryHypothesis(make_distribution([1, 1]), make_distribution([1, 1]))
        report = stein_errors(h, 50, 0.1, ANY_EPSILON)
        assert 2.0**report.log2_beta > 0.9
        assert -report.log2_beta / 50 < 0.01

    def test_exponent_within_widened_band(self, bernoulli_pair):
        report = stein_errors(bernoulli_pair, 500, 0.05, ANY_EPSILON)
        alpha, exponent = 2.0**report.log2_alpha, -report.log2_beta / 500
        assert alpha < 0.5
        slack = abs(math.log2(1.0 - alpha)) / 500
        assert D_HALF_QUARTER - 0.05 - slack <= exponent
        assert exponent <= D_HALF_QUARTER + 0.05 + slack

    def test_alpha_decreases_with_n(self, bernoulli_pair):
        alphas = [
            2.0 ** stein_errors(bernoulli_pair, n, 0.02, ANY_EPSILON).log2_alpha
            for n in (100, 500, 2000)
        ]
        assert alphas[0] > alphas[1] > alphas[2]

    @pytest.mark.parametrize("n, delta", [(200, 0.9), (300, 1.2)])
    def test_alpha_far_below_the_rounding_of_one(self, n, delta):
        # 1 - (accepted p1 mass) gave 2.46e-14 and 0.0 here
        h = BinaryHypothesis(make_distribution([1, 2, 3, 4]), make_distribution([4, 3, 2, 1]))
        alpha = 2.0 ** stein_errors(h, n, delta, ANY_EPSILON).log2_alpha
        exact = stein_alpha_k4_mp(h, n, delta)
        assert exact < 1e-16
        assert alpha == pytest.approx(exact, rel=1e-12, abs=0.0)


def _binomial_row(r, t):
    """Binomial(r, t) probabilities of 0..r by the ratio recurrence."""
    row = [(1 - t) ** r]
    for c in range(r):
        row.append(row[-1] * (r - c) / (c + 1) * t / (1 - t))
    return row


def stein_alpha_k4_mp(h, n, delta, margin=1e-9):
    """Rejected p1 mass of the Stein band at k = 4, summed at 30 digits.

    The p1 mass of type (c0, c1, c2, c3) factors into Binomial(n, p0 + p3)
    at m = c0 + c3, Binomial(m, p3 / (p0 + p3)) at c3 and
    Binomial(n - m, p2 / (p1 + p2)) at c2. For fixed (m, c3) the LLR is
    increasing in c2 (log2(p1/p2) must be larger at symbol 2 than at 1), so
    the accepted c2 form one interval, and the rejected mass is a lower
    plus an upper tail: a sum of positive terms, with no 1 - x. Types
    within ``margin`` bits of a band edge are decided by
    ``stein_region_membership``, the library's own float test.
    """
    step = [math.log2(a) - math.log2(b) for a, b in zip(h.p1.probs, h.p2.probs)]
    slope = step[2] - step[1]
    assert slope > 0
    d = kl_divergence(h.p1, h.p2)
    lo, hi = (d - delta) * n, (d + delta) * n

    def member(m, c3, c2):
        counts = (m - c3, n - m - c2, c2, c3)
        x = math.fsum(c * s for c, s in zip(counts, step))
        if min(abs(x - lo), abs(x - hi)) > margin * n:
            return lo <= x <= hi
        return stein_region_membership(EmpiricalType(counts, n), h, delta)

    with mpmath.workdps(30):
        p = [mpmath.mpf(float(x)) for x in h.p1.probs]
        outer = _binomial_row(n, p[0] + p[3])
        total = mpmath.mpf(0)
        for m in range(n + 1):
            r = n - m
            inner = _binomial_row(r, p[2] / (p[1] + p[2]))
            below = list(itertools.accumulate(inner, initial=mpmath.mpf(0)))
            above = list(itertools.accumulate(reversed(inner), initial=mpmath.mpf(0)))[::-1]
            rejected = mpmath.mpf(0)
            for c3, w in enumerate(_binomial_row(m, p[3] / (p[0] + p[3]))):
                base = (m - c3) * step[0] + c3 * step[3] + r * step[1]
                # accepted c2 in [a, b]: start one step outside each edge
                a = min(r + 1, max(0, math.floor((lo - base) / slope) - 1))
                b = max(a - 1, min(r, math.ceil((hi - base) / slope) + 1))
                while a <= b and not member(m, c3, a):
                    a += 1
                while b >= a and not member(m, c3, b):
                    b -= 1
                rejected += w * (below[a] + above[b + 1])
            total += outer[m] * rejected
        return float(total)


def brute_force_np_beta(p1, p2, n, eps):
    """Optimal randomized LR test over all 2**n sequences."""
    items = []
    for seq in itertools.product((0, 1), repeat=n):
        m1 = float(np.prod([p1[s] for s in seq]))
        m2 = float(np.prod([p2[s] for s in seq]))
        ratio = m1 / m2 if m2 > 0 else math.inf
        items.append((ratio, m1, m2))
    items.sort(key=lambda x: -x[0])
    target = 1.0 - eps
    acc = 0.0
    beta = 0.0
    for _, m1, m2 in items:
        if acc + m1 < target:
            acc += m1
            beta += m2
        else:
            beta += (target - acc) / m1 * m2
            break
    return beta


class TestNeymanPearson:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p1 = make_distribution(rng.uniform(0.1, 1, 2))
            p2 = make_distribution(rng.uniform(0.1, 1, 2))
            h = BinaryHypothesis(p1, p2)
            n = int(rng.integers(2, 9))
            eps = float(rng.uniform(0.02, 0.45))
            mine = 2.0 ** stein_errors(h, n, ANY_DELTA, eps).np_log2_beta
            oracle = brute_force_np_beta(p1.probs, p2.probs, n, eps)
            assert mine == pytest.approx(oracle, abs=1e-10)

    def test_matches_binomial_oracle_at_large_n(self, bernoulli_pair):
        rng = np.random.default_rng(13)
        cases = [(bernoulli_pair, 0.05)]
        for _ in range(2):
            # symbol-0 probabilities in [0.3, 0.7] keep D(p1||p2) under 0.49
            # bits, so beta at n = 2000 stays above the double range's 2^-1074
            a, b = rng.uniform(0.3, 0.7, 2)
            h = BinaryHypothesis(
                make_distribution([a, 1 - a]), make_distribution([b, 1 - b])
            )
            cases.append((h, float(rng.uniform(0.02, 0.45))))
        for h, eps in cases:
            for n in (100, 500, 2000):
                mine = stein_errors(h, n, ANY_DELTA, eps).np_log2_beta
                oracle = np_log2_beta_binomial(h.p1.probs[0], h.p2.probs[0], n, eps)
                assert mine == pytest.approx(oracle, rel=1e-9, abs=0.0)

    def test_monotone_in_epsilon(self, bernoulli_pair):
        betas = [
            2.0 ** stein_errors(bernoulli_pair, 40, ANY_DELTA, eps).np_log2_beta
            for eps in (0.05, 0.1, 0.2, 0.4)
        ]
        assert all(b1 >= b2 for b1, b2 in zip(betas, betas[1:]))

    def test_exponent_approaches_kl(self, bernoulli_pair):
        gaps = []
        for n in (100, 500, 2000):
            beta = 2.0 ** stein_errors(bernoulli_pair, n, ANY_DELTA, 0.05).np_log2_beta
            gaps.append(abs(-math.log2(beta) / n - D_HALF_QUARTER))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_second_order_term_matches_strassen(self, bernoulli_pair):
        # Strassen: log2 beta = -nD + sqrt(nV) Q^-1(eps) - (1/2) log2 n + O(1),
        # so c(n) = sqrt(n) (gap + (1/2) log2(n) / n) -> sqrt(V) Q^-1(eps)
        # with an O(1/sqrt(n)) error sqrt(n) (gap - strassen_gap) of fixed sign
        eps = 0.05
        d, v, _ = stein_moments(bernoulli_pair.p1.probs, bernoulli_pair.p2.probs)
        errors = []
        for n in (100, 500, 2000):
            beta = 2.0 ** stein_errors(bernoulli_pair, n, ANY_DELTA, eps).np_log2_beta
            gap = d + math.log2(beta) / n
            errors.append(math.sqrt(n) * (gap - strassen_gap(v, n, eps)))
        assert abs(errors[0]) > abs(errors[1]) > abs(errors[2])
        assert len({math.copysign(1.0, e) for e in errors}) == 1

    def test_epsilon_range(self, bernoulli_pair):
        with pytest.raises(ValidationError):
            stein_errors(bernoulli_pair, 10, ANY_DELTA, 0.5)

    @pytest.mark.parametrize("epsilon", [0.0, math.nan])
    def test_epsilon_is_refused_before_enumeration(self, bernoulli_pair, epsilon):
        # a cap of 1 type would refuse the walk; the bad epsilon comes first
        with pytest.raises(ValidationError):
            stein_errors(bernoulli_pair, 10, ANY_DELTA, epsilon, cap=1)


class TestChernoff:
    def test_symmetric_pair_midpoint(self):
        h = BinaryHypothesis(make_distribution([1, 3]), make_distribution([3, 1]))
        report = chernoff_lambda_star(h)
        assert report.lambda_star == pytest.approx(0.5, abs=1e-9)
        assert report.c_info == pytest.approx(D_HALF_QUARTER, abs=1e-9)

    def test_symmetric_value_is_kl_at_uniform_tilt(self):
        p1 = make_distribution([1, 3])
        p2 = make_distribution([3, 1])
        # P_1/2 is the normalized geometric mean sqrt(p1 p2)
        expected = kl_divergence(make_distribution(np.sqrt(p1.probs * p2.probs)), p1)
        report = chernoff_lambda_star(BinaryHypothesis(p1, p2))
        assert report.c_info == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("w1, w2", [([1, 3], [3, 1]), ([2, 5, 1], [1, 1, 6])])
    def test_symbols_outside_the_support_change_nothing(self, w1, w2):
        # P_lam* is formed on the shared support and padded with zeros
        full = chernoff_lambda_star(
            BinaryHypothesis(make_distribution(w1 + [0]), make_distribution(w2 + [0]))
        )
        padded = chernoff_lambda_star(
            BinaryHypothesis(make_distribution([0] + w1), make_distribution([0] + w2))
        )
        assert full == padded == chernoff_lambda_star(
            BinaryHypothesis(make_distribution(w1), make_distribution(w2))
        )

    def test_equalization_random_pairs(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            k = int(rng.integers(2, 4))
            p1 = make_distribution(rng.uniform(0.05, 1, k))
            p2 = make_distribution(rng.uniform(0.05, 1, k))
            if np.allclose(p1.probs, p2.probs):
                continue
            report = chernoff_lambda_star(BinaryHypothesis(p1, p2))
            assert abs(report.d1 - report.d2) <= 1e-9
            assert 0.0 < report.lambda_star < 1.0
            # interior optimum beats both one-sided exponents
            assert report.c_info < min(
                kl_divergence(p1, p2), kl_divergence(p2, p1)
            )

    def test_lambda_star_matches_mpmath_root(self):
        rng = np.random.default_rng(2016)
        checked = 0
        while checked < 40:
            k = int(rng.integers(2, 7))
            w1, w2 = rng.integers(1, 21, k), rng.integers(1, 21, k)
            if np.array_equal(w1 * w2.sum(), w2 * w1.sum()):
                continue
            h = BinaryHypothesis(make_distribution(w1), make_distribution(w2))
            lam, c_info = chernoff_oracle(h)
            report = chernoff_lambda_star(h)
            assert abs(report.lambda_star - lam) <= 1e-10, (w1, w2)
            assert report.c_info == pytest.approx(c_info, rel=1e-12, abs=1e-15)
            checked += 1

    def test_near_identical_pair_keeps_interior_tilt(self):
        # D(p2||p1) is ~3e-12 bits, inside a tolerance of 1e-10 already at
        # lam = 0; the solve must still find the interior root. The energy
        # log2(p2/p1) is ~3e-6 here, so a difference of two rounded logs
        # would move lambda* by ~1e-5
        check_near_identical(1e-6)

    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7])
    def test_near_identical_pairs_at_other_distances(self, eps):
        check_near_identical(eps)

    @pytest.mark.parametrize(
        "w1, w2",
        [
            ((1, 1), (1e-17, 1)),
            ((1, 1), (1e-12, 1)),
            ((1e-17, 1), (1, 1)),
            ((0.3, 0.7), (1e-300, 1)),
            ((1, 1, 1), (1e-17, 1, 1e-9)),
        ],
    )
    def test_extreme_ratio_matches_mpmath_root(self, w1, w2):
        # (p2 - p1)/p1 rounds to -1 once p2/p1 < 2^-54; the energy must stay
        # finite and accurate there
        h = BinaryHypothesis(make_distribution(w1), make_distribution(w2))
        lam, c_info = chernoff_oracle(h)
        report = chernoff_lambda_star(h)
        assert abs(report.lambda_star - lam) <= 1e-10
        assert report.c_info == pytest.approx(c_info, rel=1e-12)

    def test_identical_pair_degenerate(self):
        d = make_distribution([1, 1])
        with pytest.raises(DegenerateHypothesisError):
            chernoff_lambda_star(BinaryHypothesis(d, d))


class TestBayesianExponent:
    # the best Bayesian error exponent is the Chernoff information
    def test_symmetric_value(self):
        h = BinaryHypothesis(make_distribution([1, 3]), make_distribution([3, 1]))
        assert chernoff_lambda_star(h).c_info == pytest.approx(D_HALF_QUARTER, abs=1e-9)
