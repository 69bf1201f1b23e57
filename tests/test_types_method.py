import gc
import itertools
import math
import weakref

import mpmath
import numpy as np
import pytest

from errexp import (
    ConstraintSet,
    EmpiricalType,
    InfeasibleError,
    ResourceCapError,
    ValidationError,
    count_types,
    deviation_probability_exact,
    empirical_type,
    enumerate_types,
    kl_divergence,
    make_distribution,
    sanov_exact_prob,
    sanov_exponent,
    type_class_log_prob,
    type_class_size,
    type_class_size_bounds,
)
from errexp.types_method import _enumerate_counts, sanov_exact_log2_prob


class TestEmpiricalType:
    def test_direct_count(self):
        t = empirical_type([0, 1, 0], 2)
        assert t.counts == (2, 1) and t.n == 3

    def test_constant_sequence(self):
        assert empirical_type([1, 1, 1, 1], 2).counts == (0, 4)

    def test_ternary_tally(self):
        assert empirical_type([0, 1, 2, 1, 2, 2], 3).counts == (1, 2, 3)

    def test_out_of_range_symbol(self):
        with pytest.raises(ValidationError):
            empirical_type([0, 2], 2)

    def test_counts_must_sum_to_n(self):
        with pytest.raises(ValidationError):
            EmpiricalType((1, 1), 3)


class TestCountAndEnumerate:
    def test_binary_n3(self):
        assert count_types(3, 2) == 4

    def test_ternary_n2(self):
        assert count_types(2, 3) == 6

    def test_single(self):
        assert count_types(1, 1) == 1

    def test_enumeration_small(self):
        types = enumerate_types(2, 2)
        assert [t.counts for t in types] == [(0, 2), (1, 1), (2, 0)]

    def test_enumeration_matches_count(self):
        for n in range(1, 51):
            for k in range(1, 5):
                assert len(enumerate_types(n, k)) == count_types(n, k)

    def test_no_duplicates_and_sums(self):
        types = enumerate_types(2, 3)
        assert len(set(t.counts for t in types)) == 6
        assert all(sum(t.counts) == 2 for t in types)

    def test_cap_exceeded(self):
        with pytest.raises(ResourceCapError):
            enumerate_types(100, 6, cap=1000)

    def test_matrix_freed_without_gc(self):
        # the counts matrix must not sit in a reference cycle: with the
        # cycle collector off, dropping the last reference frees it
        gc.disable()
        try:
            counts = _enumerate_counts(20, 4, cap=10**6)
            ref = weakref.ref(counts)
            del counts
            assert ref() is None
        finally:
            gc.enable()


class TestTypeClassSize:
    def test_choose_4_2(self):
        log2_size, exact = type_class_size(EmpiricalType((2, 2), 4))
        assert exact == 6
        assert log2_size == pytest.approx(math.log2(6), rel=1e-12)

    def test_single_arrangement(self):
        assert type_class_size(EmpiricalType((0, 3), 3))[1] == 1

    def test_multinomial_60(self):
        assert type_class_size(EmpiricalType((1, 2, 3), 6))[1] == 60

    def test_huge_size_reported_in_log_only(self):
        log2_size, exact = type_class_size(EmpiricalType((300, 300), 600))
        assert exact is None
        assert log2_size > 63

    def test_bounds_contain_log_size(self):
        lower, upper = type_class_size_bounds(EmpiricalType((2, 2), 4))
        assert lower == pytest.approx(4 - math.log2(5), abs=1e-12)
        assert upper == pytest.approx(4.0, abs=1e-12)
        assert lower <= math.log2(6) <= upper

    def test_bounds_degenerate_type(self):
        lower, upper = type_class_size_bounds(EmpiricalType((4, 0), 4))
        assert lower == pytest.approx(-math.log2(5), abs=1e-12)
        assert upper == 0.0

    def test_bounds_2_1(self):
        lower, upper = type_class_size_bounds(EmpiricalType((2, 1), 3))
        assert upper == pytest.approx(3 * 0.9182958340544896, abs=1e-12)
        assert lower <= math.log2(3) <= upper


class TestTypeClassLogProb:
    def test_fair_coin_balanced(self):
        q = make_distribution([1, 1])
        assert type_class_log_prob(EmpiricalType((1, 1), 2), q) == pytest.approx(-1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_deterministic_source(self):
        q = make_distribution([1, 0])
        assert type_class_log_prob(EmpiricalType((2, 0), 2), q) == pytest.approx(0.0)

    def test_three_sequences(self):
        q = make_distribution([1, 1])
        assert type_class_log_prob(EmpiricalType((2, 1), 3), q) == pytest.approx(
            math.log2(3 / 8)
        )

    def test_zero_prob_symbol(self):
        q = make_distribution([1, 0])
        assert type_class_log_prob(EmpiricalType((1, 1), 2), q) == -math.inf

    def test_alphabet_mismatch(self):
        with pytest.raises(ValidationError):
            type_class_log_prob(EmpiricalType((1, 1), 2), make_distribution([1, 1, 1]))


def brute_force_type_probs(n, k, q):
    """Group all k**n sequences by type; exact probability per type."""
    probs = {}
    for seq in itertools.product(range(k), repeat=n):
        counts = tuple(seq.count(a) for a in range(k))
        p = float(np.prod([q[s] for s in seq]))
        probs[counts] = probs.get(counts, 0.0) + p
    return probs


class TestExactnessInvariants:
    def test_partition_of_sequence_space(self):
        for k in (2, 3):
            for n in range(1, 13):
                total = sum(type_class_size(t)[1] for t in enumerate_types(n, k))
                assert total == k**n

    def test_total_probability_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.integers(2, 4))
            n = int(rng.integers(2, 13))
            q = make_distribution(rng.uniform(0.05, 1, k))
            total = sum(
                2.0 ** type_class_log_prob(t, q) for t in enumerate_types(n, k)
            )
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_brute_force_probabilities(self):
        rng = np.random.default_rng(4)
        for k in (2, 3):
            for n in (2, 4, 6, 8):
                q = make_distribution(rng.uniform(0.05, 1, k))
                expected = brute_force_type_probs(n, k, q.probs)
                for t in enumerate_types(n, k):
                    got = 2.0 ** type_class_log_prob(t, q)
                    assert got == pytest.approx(expected[t.counts], abs=1e-10)

    def test_size_sandwich(self):
        for k in (2, 3):
            for n in (1, 3, 7, 10):
                for t in enumerate_types(n, k):
                    lower, upper = type_class_size_bounds(t)
                    log2_size = type_class_size(t)[0]
                    assert lower - 1e-9 <= log2_size <= upper + 1e-9


class TestDeviationProbability:
    def test_empty_event(self):
        p = make_distribution([1, 1])
        types = enumerate_types(6, 2)
        worst = max(kl_divergence(t.distribution(), p) for t in types)
        assert deviation_probability_exact(6, p, worst + 0.1) == 0.0

    def test_all_types_qualify(self):
        # p is not a 7-type, so every empirical type deviates
        p = make_distribution([1, 2])
        assert deviation_probability_exact(7, p, 1e-12) == pytest.approx(1.0)

    def test_corollary_bound(self):
        p = make_distribution([1, 1])
        exact = deviation_probability_exact(10, p, 0.3)
        assert exact <= count_types(10, 2) * 2.0 ** (-10 * 0.3)

    def test_delta_must_be_positive(self):
        with pytest.raises(ValidationError):
            deviation_probability_exact(5, make_distribution([1, 1]), 0.0)


class TestSanov:
    def test_source_in_constraint(self):
        p = make_distribution([1, 1])
        d, minimizer = sanov_exponent(ConstraintSet("lower", 1, 0.5), p, 10)
        assert d == 0.0 and minimizer.counts == (5, 5)

    def test_bernoulli_threshold(self):
        p = make_distribution([1, 1])
        d, minimizer = sanov_exponent(ConstraintSet("lower", 1, 0.75), p, 20)
        assert minimizer.counts == (5, 15)
        assert d == pytest.approx(0.18872187554086717, abs=1e-9)

    def test_point_mass_constraint(self):
        p = make_distribution([1, 1])
        d, minimizer = sanov_exponent(ConstraintSet("lower", 0, 1.0), p, 4)
        assert minimizer.counts == (4, 0) and d == pytest.approx(1.0)

    def test_full_space_probability(self):
        p = make_distribution([2, 1])
        assert sanov_exact_prob(ConstraintSet("lower", 0, 0.0), p, 12) == pytest.approx(
            1.0
        )

    def test_binomial_tail_n10(self):
        p = make_distribution([1, 1])
        prob = sanov_exact_prob(ConstraintSet("lower", 1, 0.75), p, 10)
        assert prob == pytest.approx(56 / 1024, abs=1e-12)

    def test_rate_converges(self):
        p = make_distribution([1, 1])
        pi = ConstraintSet("lower", 1, 0.75)
        rate10 = -math.log2(sanov_exact_prob(pi, p, 10)) / 10
        rate40 = -math.log2(sanov_exact_prob(pi, p, 40)) / 40
        d_star = 0.18872187554086717
        assert abs(rate40 - d_star) < abs(rate10 - d_star)

    def test_sandwich(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(2, 4))
            n = int(rng.integers(2, 25))
            p = make_distribution(rng.uniform(0.05, 1, k))
            pi = ConstraintSet(
                "lower" if rng.random() < 0.5 else "upper",
                int(rng.integers(0, k)),
                float(rng.uniform(0, 1)),
            )
            try:
                d_star, _ = sanov_exponent(pi, p, n)
            except InfeasibleError:
                continue
            prob = sanov_exact_prob(pi, p, n)
            c = count_types(n, k)
            assert prob <= c * 2.0 ** (-n * d_star) * (1 + 1e-9)
            assert prob >= 2.0 ** (-n * d_star) / c * (1 - 1e-9)


class TestSubnormalSource:
    def test_sanov_log2_prob_matches_mpmath(self):
        # q = (1e-320, 1): P(Q(0) >= 1/2) at n = 2 is 2 q0 q1 + q0^2, near
        # 2^-1062; a probability clamped to 1e-300 would read ~2^-996
        q = make_distribution([1e-320, 1])
        got = sanov_exact_log2_prob(ConstraintSet("lower", 0, 0.5), q, 2)
        q0, q1 = (mpmath.mpf(float(x)) for x in q.probs)
        with mpmath.workdps(50):
            exact = mpmath.log(2 * q0 * q1 + q0**2, 2)
        assert got == pytest.approx(float(exact), rel=1e-12)
