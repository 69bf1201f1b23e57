import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from errexp import (
    DiscreteDistribution,
    ValidationError,
    entropy,
    kl_divergence,
    log_factorial,
    make_distribution,
)
from errexp.dist import (
    _SHORT_SUM,
    _divergence_terms,
    _psi_series,
    _sum_floats,
    log_factorial_residual,
)


def kl_bits_mp(p, q) -> float:
    """D(p||q) in bits at 60 digits on the doubles of p and q."""
    with mpmath.workdps(60):
        return float(
            mpmath.fsum(
                mpmath.mpf(a) * mpmath.log(mpmath.mpf(a) / mpmath.mpf(b), 2)
                for a, b in zip(p.probs.tolist(), q.probs.tolist())
                if a > 0
            )
        )


def weights(min_size=2, max_size=5):
    return st.lists(
        st.floats(min_value=1e-6, max_value=1e3, allow_nan=False),
        min_size=min_size,
        max_size=max_size,
    )


class TestMakeDistribution:
    def test_uniform_normalization(self):
        d = make_distribution([1, 1, 1, 1])
        assert np.allclose(d.probs, 0.25)

    def test_already_normalized(self):
        d = make_distribution([0.5, 0.5])
        assert np.allclose(d.probs, [0.5, 0.5])

    def test_divide_by_sum(self):
        d = make_distribution([2, 6])
        assert np.allclose(d.probs, [0.25, 0.75])

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError):
            make_distribution([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            make_distribution([1.0, -0.5])

    def test_unnormalized_direct_construction_rejected(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution(np.array([0.5, 0.6]))


NAN, INF = math.nan, math.inf

# (vector, make_distribution's error, DiscreteDistribution's error), each
# recorded on the element-wise checks that validation ran before it was
# cut to two reductions
REFUSED = [
    ([NAN, 1.0], "weights must be finite", "probability vector must be finite"),
    ([1.0, NAN], "weights must be finite", "probability vector must be finite"),
    ([INF, 1.0], "weights must be finite", "probability vector must be finite"),
    ([-INF, 1.0], "weights must be finite", "probability vector must be finite"),
    ([INF, -INF], "weights must be finite", "probability vector must be finite"),
    ([1.0, -0.5], "weights must be nonnegative", "probability vector must be nonnegative"),
    # sums to 1, so only the least entry refuses it
    ([1.5, -0.5], "weights must be nonnegative", "probability vector must be nonnegative"),
    ([0.0, 0.0], "weights must contain a strictly positive entry",
     "probabilities must sum to 1 within 1e-12; got np.float64(0.0)"),
    ([-0.0], "weights must contain a strictly positive entry",
     "probabilities must sum to 1 within 1e-12; got np.float64(0.0)"),
    ([], "weights must be a nonempty 1-D vector", "probability vector must be 1-D and nonempty"),
    ([[0.5, 0.5]], "weights must be a nonempty 1-D vector",
     "probability vector must be 1-D and nonempty"),
]

# (vector, make_distribution's probs, DiscreteDistribution's probs) as
# float.hex, recorded on the element-wise checks
ACCEPTED = [
    ([-0.0, 1.0], ["-0x0.0p+0", "0x1.0000000000000p+0"], ["-0x0.0p+0", "0x1.0000000000000p+0"]),
    ([0.5, -0.0, 0.5], ["0x1.0000000000000p-1", "-0x0.0p+0", "0x1.0000000000000p-1"],
     ["0x1.0000000000000p-1", "-0x0.0p+0", "0x1.0000000000000p-1"]),
    ([0.5, 0.5 + 5e-13], ["0x1.fffffffffee68p-2", "0x1.00000000008ccp-1"],
     ["0x1.0000000000000p-1", "0x1.0000000001198p-1"]),
    ([0.5 - 5e-13, 0.5], ["0x1.fffffffffee69p-2", "0x1.00000000008ccp-1"],
     ["0x1.fffffffffdcd1p-2", "0x1.0000000000000p-1"]),
]


class TestValidation:
    """Two reductions (a finite sum, a least entry >= 0) accept a vector;
    every other vector meets the element-wise checks and their messages."""

    @pytest.mark.parametrize("vec, weights_msg, probs_msg", REFUSED)
    def test_refusals_unchanged(self, vec, weights_msg, probs_msg):
        # RuntimeWarnings are errors in this suite, so these also check
        # that no refusal warns
        with pytest.raises(ValidationError) as exc:
            make_distribution(np.array(vec))
        assert str(exc.value) == weights_msg
        with pytest.raises(ValidationError) as exc:
            DiscreteDistribution(np.array(vec))
        assert str(exc.value) == probs_msg

    @pytest.mark.parametrize("off", [2e-12, -2e-12])
    def test_sum_off_by_more_than_the_tolerance(self, off):
        with pytest.raises(ValidationError) as exc:
            DiscreteDistribution(np.array([0.5, 0.5 + off]))
        assert str(exc.value) == (
            f"probabilities must sum to 1 within 1e-12; got {np.float64(1.0 + off)!r}"
        )

    def test_overflowing_sum_warns_and_is_refused(self):
        # weights whose sum overflows are scaled by the largest before they
        # are summed, without a warning; probabilities that overflow are
        # refused, with NumPy's warning
        assert make_distribution([1e308, 1e308]).probs.tolist() == [0.5, 0.5]
        assert make_distribution([1.5e308, 0.0, 1.5e308]).probs.tolist() == [0.5, 0.0, 0.5]
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValidationError) as exc:
                DiscreteDistribution(np.array([1e308, 1e308]))
        assert str(exc.value) == "probabilities must sum to 1 within 1e-12; got np.float64(inf)"

    @pytest.mark.parametrize("vec, weights_hex, probs_hex", ACCEPTED)
    def test_acceptances_unchanged(self, vec, weights_hex, probs_hex):
        assert [x.hex() for x in make_distribution(vec).probs.tolist()] == weights_hex
        assert [x.hex() for x in DiscreteDistribution(vec).probs.tolist()] == probs_hex

    def test_normalizer_is_the_numpy_sum(self):
        # sizes on both sides of NumPy's pairwise-summation blocks
        rng = np.random.default_rng(20)
        for size in (1, 2, 7, 8, 9, 127, 128, 129, 1000, 4099):
            w = rng.uniform(0.0, 1e3, size)
            assert np.array_equal(make_distribution(w).probs, w / w.sum())


class TestEqualityAndHash:
    def test_a_non_distribution_is_not_equal(self):
        # __eq__ defers to the other operand, and Python then compares
        # identities
        d = make_distribution([1, 3])
        assert d.__eq__("x") is NotImplemented
        assert (d == "x") is False and d != "x"

    def test_equal_distributions_hash_alike_and_deduplicate(self):
        a, b = make_distribution([1, 3]), DiscreteDistribution([0.25, 0.75])
        assert a == b and a is not b and hash(a) == hash(b)
        assert {a, b, make_distribution([3, 1])} == {a, DiscreteDistribution([0.75, 0.25])}
        assert len({a, b, make_distribution([3, 1])}) == 2


class TestEntropy:
    def test_uniform_four_symbols(self):
        assert entropy(make_distribution([1, 1, 1, 1])) == pytest.approx(2.0)

    def test_point_mass(self):
        # +0.0: -(1 * log2 1) is -0.0, which the CSV would print as -0
        for probs in ([1, 0], [0, 1]):
            h = entropy(make_distribution(probs))
            assert h == 0.0 and math.copysign(1.0, h) == 1.0

    def test_quarter_three_quarters(self):
        assert entropy(make_distribution([0.25, 0.75])) == pytest.approx(
            0.8112781244591328, abs=1e-12
        )

    @given(weights())
    def test_bounds(self, w):
        d = make_distribution(np.asarray(w))
        h = entropy(d)
        assert 0.0 <= h <= math.log2(d.alphabet_size) + 1e-12


class TestKLDivergence:
    def test_identical_is_zero(self):
        d = make_distribution([0.3, 0.7])
        assert kl_divergence(d, d) == 0.0

    def test_half_vs_quarter(self):
        p = make_distribution([0.5, 0.5])
        q = make_distribution([0.25, 0.75])
        assert kl_divergence(p, q) == pytest.approx(0.2075187496394219, abs=1e-12)

    def test_support_violation_is_inf(self):
        p = make_distribution([0.5, 0.5])
        q = make_distribution([1.0, 0.0])
        assert kl_divergence(p, q) == math.inf

    def test_alphabet_mismatch(self):
        with pytest.raises(ValidationError):
            kl_divergence(make_distribution([1, 1]), make_distribution([1, 1, 1]))

    def test_subnormal_q_stays_finite(self):
        # p/q overflows a double at q = 1e-320, and (1 + x) ln(1 + x) at
        # 1e-306; the divergence is ~530.5 and ~507.3 bits
        p = make_distribution([1, 1])
        for tiny in (1e-320, 1e-306):
            q = make_distribution([tiny, 1])
            assert kl_divergence(p, q) == pytest.approx(kl_bits_mp(p, q), rel=1e-12), tiny

    @pytest.mark.parametrize("scale", [1e-1, 1e-3, 1e-5, 1e-7, 1e-9])
    def test_matches_mpmath_as_p_nears_q(self, scale):
        # p = q (1 + scale z), k = 2..8, normalized; every fourth pair has a
        # symbol of zero mass in both laws, in p only, or of subnormal mass
        # in q only. The p log2(p/q) terms were off by up to 3.8e-6 at 1e-3
        # and lost every digit from 1e-5
        rng = np.random.default_rng(round(-math.log10(scale)))
        for i in range(60):
            k = int(rng.integers(2, 9))
            q = rng.uniform(0.05, 1.0, k)
            p = q * (1.0 + scale * rng.standard_normal(k))
            if i % 4 == 1:
                p[0] = q[0] = 0.0
            elif i % 4 == 2:
                p[0] = 0.0
            elif i % 4 == 3:
                q[0] = 1e-310
            p, q = make_distribution(p), make_distribution(q)
            want = kl_bits_mp(p, q)
            assert kl_divergence(p, q) == pytest.approx(want, rel=1e-14, abs=0.0), (p, q)

    def test_terms_have_the_same_bits_in_any_array(self):
        # the series runs on floats for a few arguments and on arrays for
        # more; either way each element takes the same IEEE operations
        rng = np.random.default_rng(7)
        x = rng.uniform(-0.4, 0.4, 200)
        assert np.array_equal(_psi_series(x), [_psi_series(v) for v in x.tolist()])
        q = rng.uniform(1e-3, 1.0, 200)
        diff = q * np.r_[x[:150], rng.uniform(-1.0, 5.0, 50)]
        whole = _divergence_terms(diff, q)
        single = [_divergence_terms(diff[i : i + 1], q[i : i + 1])[0] for i in range(200)]
        assert whole.tobytes() == np.array(single).tobytes()

    @given(weights(), weights())
    @settings(max_examples=200)
    def test_gibbs_inequality(self, w1, w2):
        size = min(len(w1), len(w2))
        p = make_distribution(np.asarray(w1[:size]))
        q = make_distribution(np.asarray(w2[:size]))
        d = kl_divergence(p, q)
        # nonnegative up to division-rounding noise: when p and q agree to
        # the last bit the per-symbol ratios round across 1.0
        assert d >= -1e-15 * p.alphabet_size
        if np.max(np.abs(p.probs - q.probs)) < 1e-12:
            assert abs(d) < 1e-12


class TestLogFactorial:
    def test_zero(self):
        assert log_factorial(0) == 0.0

    def test_five(self):
        assert log_factorial(5) == pytest.approx(math.log(120), rel=1e-12)

    def test_hundred(self):
        assert log_factorial(100) == pytest.approx(363.73937555556347, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            log_factorial(-1)

    @pytest.mark.parametrize("k", [math.inf, math.nan])
    def test_non_finite_rejected(self, k):
        # int() of these raised OverflowError and ValueError
        with pytest.raises(ValidationError):
            log_factorial(k)

    @pytest.mark.parametrize("k", [10**306, 10**400])
    def test_beyond_the_double_range_rejected(self, k):
        # ln k! overflows a double at 10**306; 10**400 is no double at all,
        # and both raised a bare OverflowError
        with pytest.raises(ValidationError):
            log_factorial(k)

    @pytest.mark.parametrize("k", [0, 1, 60, 100, 256, 257, 400, 3000])
    def test_residual_is_the_rounding_of_the_double(self, k):
        # both sides of the compensated-sum / lgamma cutoff
        with mpmath.workdps(50):
            want = mpmath.log(mpmath.factorial(k)) - mpmath.mpf(log_factorial(k))
        got = log_factorial_residual(k)
        assert abs(got) <= 4 * math.ulp(log_factorial(k))
        assert got == pytest.approx(float(want), rel=1e-12, abs=1e-300)

    def test_increments_match_log(self):
        # tolerance is relative to ln k!: the increment of two ~1e7 doubles
        # cannot be tighter than their ulp
        rng = np.random.default_rng(1)
        for k in rng.integers(1, 10**6, size=200):
            k = int(k)
            diff = log_factorial(k) - log_factorial(k - 1)
            assert abs(diff - math.log(k)) <= 1e-10 * max(1.0, log_factorial(k))


def test_numpy_short_sums_and_exp_are_the_float_branch():
    # the float branches of validation, the Chernoff set-up, the tilt solver,
    # d1/d2, the Boltzmann law and Sanov's d* keep the bits of the array code
    # because of facts about NumPy: add.reduce sums fewer than _SHORT_SUM
    # terms left to right from 0.0, as _sum_floats does, also along the rows
    # of a 2-D array; minimum.reduce keeps the last of equal entries, as min
    # of the reversed list does; and np.exp, np.log, np.log1p and np.expm1 of a list
    # are the same call on the array. A NumPy or Python that breaks one
    # fails here, by name
    rng = np.random.default_rng(33)
    for k in range(1, _SHORT_SUM):
        assert _sum_floats([-0.0] * k).hex() == float(np.add.reduce(np.full(k, -0.0))).hex()
        for _ in range(3000):
            v = rng.standard_normal(k) * 10.0 ** rng.uniform(-8.0, 8.0, k)
            assert _sum_floats(v.tolist()).hex() == float(np.add.reduce(v)).hex(), v
            rows = rng.standard_normal((2, k)) * 10.0 ** rng.uniform(-8.0, 8.0, (2, k))
            want = [x.hex() for x in rows.sum(axis=1).tolist()]
            assert [_sum_floats(row).hex() for row in rows.tolist()] == want, rows
            zeros = rng.choice([-0.0, 0.0, 1.0], k)
            assert min(reversed(zeros.tolist())).hex() == float(np.minimum.reduce(zeros)).hex()
            y = rng.uniform(-750.0, 0.0, k)
            assert np.exp(y.tolist()).tobytes() == np.exp(y).tobytes(), y
            x = 10.0 ** rng.uniform(-320.0, 300.0, k)
            assert np.log(x.tolist()).tobytes() == np.log(x).tobytes(), x
            t = rng.uniform(-1.0, 3.0, k) * 10.0 ** rng.uniform(-12.0, 0.0, k)
            assert np.log1p(t.tolist()).tobytes() == np.log1p(t).tobytes(), t
            z = rng.uniform(-40.0, 700.0, k) * 10.0 ** rng.uniform(-12.0, 0.0, k)
            assert np.expm1(z.tolist()).tobytes() == np.expm1(z).tobytes(), z
