import gc
import itertools
import math
import time
import weakref

import mpmath
import numpy as np
import pytest
import sanov_oracle
from row_oracle import _enumerate_counts, _kl_rows

from errexp import (
    ConstraintSet,
    DiscreteDistribution,
    EmpiricalType,
    InfeasibleError,
    ResourceCapError,
    ValidationError,
    count_types,
    deviation_exact_log2_prob,
    empirical_type,
    enumerate_types,
    kl_divergence,
    make_distribution,
    sanov_exact_log2_prob,
    sanov_exponent,
    type_class_log_prob,
    type_class_size,
    type_classes,
)
from errexp.types_method import _kl_table, _log2q


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

    @pytest.mark.parametrize(
        "counts, n",
        [((1.5, 1.5, 1), 4), ((1.5, 1.5, 1), 3), ((2.7, 1), 3), ((1, 1), 2.5), ((1, math.nan), 1)],
    )
    def test_non_integral_counts_and_n_are_refused(self, counts, n):
        # int() truncated them: (1.5, 1.5, 1) was read as (1, 1, 1)
        with pytest.raises(ValidationError, match="must be an integer"):
            EmpiricalType(counts, n)

    def test_integral_floats_are_read_as_ints(self):
        t = EmpiricalType((2.0, np.int64(1)), 3.0)
        assert t.counts == (2, 1) and t.n == 3
        assert all(type(x) is int for x in (*t.counts, t.n))

    @pytest.mark.parametrize(
        "sequence, alphabet_size", [([0, 1.7, 1], 2), ([0, 1, 1], 2.5), (["0", "1"], 2)]
    )
    def test_non_integral_symbols_and_alphabet_are_refused(self, sequence, alphabet_size):
        # the int64 cast read symbol 1.7 as 1 and the string "1" as 1
        with pytest.raises(ValidationError, match="must be an integer"):
            empirical_type(sequence, alphabet_size)

    def test_integral_float_symbols_are_read_as_ints(self):
        t = empirical_type([0, 1.0, 1], 2.0)
        assert t.counts == (1, 2) and t.n == 3


class TestCountAndEnumerate:
    def test_integral_floats_are_read_as_ints(self):
        # math.comb raised a bare TypeError for float arguments
        assert count_types(3, 2.0) == 4
        assert [row[0] for row in type_classes(3.0, 2.0)] == [(0, 3), (1, 2), (2, 1), (3, 0)]

    @pytest.mark.parametrize("count", [count_types, type_classes])
    @pytest.mark.parametrize("n, alphabet_size", [(2.5, 2), (3, 1.7)])
    def test_non_integral_n_and_alphabet_are_refused(self, count, n, alphabet_size):
        with pytest.raises(ValidationError, match="must be an integer"):
            count(n, alphabet_size)

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
        log2_size, exact, _, _ = type_class_size(EmpiricalType((2, 2), 4))
        assert exact == 6
        assert log2_size == pytest.approx(math.log2(6), rel=1e-12)

    def test_single_arrangement(self):
        assert type_class_size(EmpiricalType((0, 3), 3))[1] == 1

    def test_multinomial_60(self):
        assert type_class_size(EmpiricalType((1, 2, 3), 6))[1] == 60

    def test_huge_size_reported_in_log_only(self):
        log2_size, exact, _, _ = type_class_size(EmpiricalType((300, 300), 600))
        assert exact is None
        assert log2_size > 63

    def test_exact_sizes_up_to_the_64_bit_edge(self):
        # C(67, c) lies between 2^60 and 2^64 for c = 25..42 and crosses 2^63
        # between c = 29 and 30: below it every size is exact, above it None,
        # streamed and one type at a time alike
        n = 67
        for counts, _, exact, _, _ in type_classes(n, 2):
            size = math.comb(n, counts[0])
            want = size if size < 2**63 else None
            assert exact == want, counts
            assert type_class_size(EmpiricalType(counts, n))[1] == want, counts

    def test_bounds_contain_log_size(self):
        lower, upper = type_class_size(EmpiricalType((2, 2), 4))[2:]
        assert lower == pytest.approx(4 - math.log2(5), abs=1e-12)
        assert upper == pytest.approx(4.0, abs=1e-12)
        assert lower <= math.log2(6) <= upper

    def test_bounds_degenerate_type(self):
        lower, upper = type_class_size(EmpiricalType((4, 0), 4))[2:]
        assert lower == pytest.approx(-math.log2(5), abs=1e-12)
        assert upper == 0.0

    def test_bounds_2_1(self):
        lower, upper = type_class_size(EmpiricalType((2, 1), 3))[2:]
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
                    log2_size, _, lower, upper = type_class_size(t)
                    assert lower - 1e-9 <= log2_size <= upper + 1e-9


class TestDeviationProbability:
    def test_empty_event(self):
        p = make_distribution([1, 1])
        types = enumerate_types(6, 2)
        worst = max(kl_divergence(t.distribution(), p) for t in types)
        assert deviation_exact_log2_prob(6, p, worst + 0.1) == -math.inf

    def test_all_types_qualify(self):
        # p is not a 7-type, so every empirical type deviates
        p = make_distribution([1, 2])
        assert 2.0 ** deviation_exact_log2_prob(7, p, 1e-12) == pytest.approx(1.0)

    def test_corollary_bound(self):
        p = make_distribution([1, 1])
        exact = 2.0 ** deviation_exact_log2_prob(10, p, 0.3)
        assert exact <= count_types(10, 2) * 2.0 ** (-10 * 0.3)

    def test_delta_must_be_positive(self):
        with pytest.raises(ValidationError):
            deviation_exact_log2_prob(5, make_distribution([1, 1]), 0.0)

    def test_nan_delta_is_refused(self):
        # nan <= 0 is False: a nan delta summed nothing and returned 0.0
        with pytest.raises(ValidationError):
            deviation_exact_log2_prob(10, make_distribution([1, 2]), math.nan)


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
        log2_prob = sanov_exact_log2_prob(ConstraintSet("lower", 0, 0.0), p, 12)
        assert 2.0**log2_prob == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "pi", [ConstraintSet("lower", 0, 0.0), ConstraintSet("upper", 0, 1.0)]
    )
    def test_certain_event_log2_prob_is_zero(self, pi):
        # the float sum of the event's terms rounds above 1 (log2 P was
        # 1.04e-14); a log2 probability is clamped at 0
        assert sanov_exact_log2_prob(pi, make_distribution([2, 8]), 130) == 0.0

    def test_binomial_tail_n10(self):
        p = make_distribution([1, 1])
        prob = 2.0 ** sanov_exact_log2_prob(ConstraintSet("lower", 1, 0.75), p, 10)
        assert prob == pytest.approx(56 / 1024, abs=1e-12)

    def test_rate_converges(self):
        p = make_distribution([1, 1])
        pi = ConstraintSet("lower", 1, 0.75)
        rate10 = -sanov_exact_log2_prob(pi, p, 10) / 10
        rate40 = -sanov_exact_log2_prob(pi, p, 40) / 40
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
            prob = 2.0 ** sanov_exact_log2_prob(pi, p, n)
            c = count_types(n, k)
            assert prob <= c * 2.0 ** (-n * d_star) * (1 + 1e-9)
            assert prob >= 2.0 ** (-n * d_star) / c * (1 - 1e-9)


# largest n per alphabet size in the oracle comparison, so that no case
# enumerates more than ~10^4 types
_ORACLE_MAX_N = {1: 200, 2: 200, 3: 60, 4: 30, 5: 18, 6: 12, 7: 10, 8: 8}


def _sanov_cases(seed, count):
    """Random events (:func:`_event`) over uniform, power-of-two and real
    weights, zeros included."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(1, _ORACLE_MAX_N[k] + 1))
        kind = rng.random()
        if kind < 0.25:
            w = np.ones(k)
        elif kind < 0.6:
            w = rng.choice([0.0, 1.0, 2.0, 4.0, 8.0], k)
        else:
            w = np.where(rng.random(k) < 0.15, 0.0, rng.uniform(0, 1, k))
        if not w.any():
            w[rng.integers(k)] = 1.0
        yield w.tolist(), *_event(rng, k, n)


def _event(rng, k, n):
    """(mode, symbol, threshold, n) with the threshold at 0, at 1, at a count
    fraction m/n, where members tie with the boundary, or anywhere in [0, 1]."""
    r = rng.random()
    if r < 0.1:
        t = 0.0
    elif r < 0.2:
        t = 1.0
    elif r < 0.7:
        t = int(rng.integers(0, n + 1)) / n
    else:
        t = float(rng.random())
    mode = "lower" if rng.random() < 0.5 else "upper"
    return mode, int(rng.integers(k)), t, n


# largest n per alphabet size in the exact brute force: at most about 2,000 types
_EXACT_MAX_N = {2: 500, 3: 61, 4: 20, 5: 12, 6: 8, 7: 7, 8: 6}


def _exact_cases(seed, count):
    """Random events (:func:`_event`) over uniform, integer and real weights,
    a fifth of them with a zero weight."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(2, 9))
        n = int(rng.integers(1, _EXACT_MAX_N[k] + 1))
        kind = rng.random()
        if kind < 0.3:
            w = np.ones(k)
        elif kind < 0.65:
            w = rng.integers(1, 9, k).astype(np.float64)
        else:
            w = rng.uniform(0, 1, k)
        if rng.random() < 0.2:
            w[rng.integers(k)] = 0.0
        yield w.tolist(), *_event(rng, k, n)


class TestSanovClosedForm:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_enumeration(self, seed):
        # d* and the minimizer bit for bit; log2 P to 1e-13 relative. Each
        # term's log2 multinomial coefficient also carries an absolute
        # rounding of a few ulps of log2 n!, which is the whole error when
        # P is near 1 and log2 P near 0: 16 ulps of it are allowed.
        for case in _sanov_cases(seed, 600):
            w, mode, symbol, t, n = case
            pi, p = ConstraintSet(mode, symbol, t), make_distribution(w)
            try:
                d_want, t_want = sanov_oracle.sanov_exponent(pi, p, n)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    sanov_exponent(pi, p, n)
            else:
                d, t_got = sanov_exponent(pi, p, n)
                assert (d.hex(), t_got.counts) == (d_want.hex(), t_want.counts), case
            got = sanov_exact_log2_prob(pi, p, n)
            floor = 2.0**-49 * max(1.0, math.lgamma(n + 1) / math.log(2))
            for want in (
                sanov_oracle.sanov_exact_log2_prob(pi, p, n),
                sanov_oracle.log2_prob_mp(pi, p, n),
            ):
                assert got == want or abs(got - want) <= max(1e-13 * abs(want), floor), case

    @pytest.mark.parametrize(
        "w, mode, symbol, t, n",
        [
            ([1, 1], "lower", 0, 0.3017, 179),  # 1 - P = 5.8e-8
            ([1, 2], "upper", 0, 0.505, 200),  # 2.0e-7
            ([1, 2, 4], "lower", 2, 0.42, 300),  # 5.1e-8
            ([1, 2, 4], "lower", 2, 0.4, 300),  # 8.7e-10
            ([2, 3, 5, 7], "upper", 1, 0.36, 400),  # 7.0e-19
        ],
    )
    def test_log2_prob_near_one_matches_mpmath(self, w, mode, symbol, t, n):
        # log2 P is about -(1 - P) / ln 2, so it keeps only the digits that
        # 1 - P keeps: the kept-range sum has none left at 1e-7
        pi, p = ConstraintSet(mode, symbol, t), make_distribution(w)
        want = sanov_oracle.log2_prob_mp(pi, p, n)
        assert -1e-6 < want < 0.0
        assert sanov_exact_log2_prob(pi, p, n) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "w, mode, symbol, t, n",
        [
            # types tied in exact arithmetic whose D values round apart: the
            # lexicographically smallest of them is returned, whatever its
            # float D, with d* its _kl_rows value
            ([1] * 6, "upper", 5, 0.0, 7),
            ([2, 4, 1, 1, 2, 1], "upper", 4, 1.0, 5),
            ([1] * 8, "lower", 7, 0.6, 5),
            ([1] * 8, "lower", 4, 4 / 6, 6),
        ],
    )
    def test_rounding_split_ties(self, w, mode, symbol, t, n):
        pi, p = ConstraintSet(mode, symbol, t), make_distribution(w)
        d, t_got = sanov_exponent(pi, p, n)
        d_want, t_want = sanov_oracle.sanov_exponent(pi, p, n)
        assert (d.hex(), t_got.counts) == (d_want.hex(), t_want.counts)

    @pytest.mark.parametrize("k", range(3, 7))
    def test_exponent_is_bounded_by_the_i_projection(self, k):
        # the other symbols weigh 1..k-1 (total s); the I-projection onto
        # {Q(0) >= 1/2} (p_0 below 1/2) or {Q(0) <= 1/2} (p_0 above) puts 1/2
        # on symbol 0 and the rest in proportion to p, and its D is the binary
        # divergence d(1/2 || p_0). It is an n-type when 2s divides n.
        s = k * (k - 1) // 2
        for w0, mode in ((1, "lower"), (3 * s, "upper")):
            p = make_distribution([w0, *range(1, k)])
            pi = ConstraintSet(mode, 0, 0.5)
            with mpmath.workdps(50):
                p0 = mpmath.mpf(float(p.probs[0]))
                rest = mpmath.fsum(mpmath.mpf(float(x)) for x in p.probs[1:])
                half = mpmath.mpf(1) / 2
                bound = float(half * mpmath.log(half / p0, 2) + half * mpmath.log(half / rest, 2))
            for n in range(1, 8 * s + 1):
                d, t = sanov_exponent(pi, p, n)
                if n % (2 * s):
                    assert d >= bound - 1e-13, (mode, n)
                else:
                    m = n // (2 * s)
                    assert t.counts == (n // 2, *(m * j for j in range(1, k)))
                    assert d == pytest.approx(bound, rel=1e-12), (mode, n)

    def test_minimizer_has_no_improving_unit_move(self):
        # D is separable and convex in the counts, so a member that no unit
        # move improves in 50-digit arithmetic is a global minimizer; here the
        # enumeration would need 2.6e19 types
        p = make_distribution(range(1, 9))
        pi = ConstraintSet("lower", 0, 0.2)
        d, t = sanov_exponent(pi, p, 2000)
        c = list(t.counts)
        assert c[0] >= 400
        best = sanov_oracle.kl_bits_mp(c, p)
        assert d == pytest.approx(float(best), rel=1e-14)
        for i, j in itertools.permutations(range(8), 2):
            moved = list(c)
            moved[i] -= 1
            moved[j] += 1
            if moved[i] >= 0 and moved[0] >= 400:
                assert sanov_oracle.kl_bits_mp(moved, p) > best, (i, j)

    def test_one_symbol(self):
        p = make_distribution([1])
        assert sanov_exponent(ConstraintSet("upper", 0, 1.0), p, 5) == (0.0, EmpiricalType((5,), 5))
        assert sanov_exact_log2_prob(ConstraintSet("upper", 0, 1.0), p, 5) == 0.0
        # the single type (5,) has Q(0) = 1, outside Q(0) <= 1/2
        with pytest.raises(InfeasibleError):
            sanov_exponent(ConstraintSet("upper", 0, 0.5), p, 5)
        assert sanov_exact_log2_prob(ConstraintSet("upper", 0, 0.5), p, 5) == -math.inf

    def test_every_member_off_the_support(self):
        # D = inf for every member: the first member in count order is returned
        p = make_distribution([0, 1, 1])
        d, t = sanov_exponent(ConstraintSet("lower", 0, 0.5), p, 6)
        assert d == math.inf and t.counts == (3, 0, 3)
        p = make_distribution([1, 1, 0])
        d, t = sanov_exponent(ConstraintSet("lower", 2, 0.4), p, 5)
        assert d == math.inf and t.counts == (0, 0, 5)
        p = make_distribution([0, 0, 1])
        d, t = sanov_exponent(ConstraintSet("upper", 2, 0.5), p, 5)
        assert d == math.inf and t.counts == (0, 3, 2)

    def test_cap_counts_binomial_terms(self):
        p = make_distribution([1, 2, 3])
        pi = ConstraintSet("lower", 0, 0.5)
        sanov_exponent(pi, p, 99, cap=100)
        sanov_exact_log2_prob(pi, p, 99, cap=100)
        with pytest.raises(ResourceCapError):
            sanov_exponent(pi, p, 100, cap=100)
        with pytest.raises(ResourceCapError):
            sanov_exact_log2_prob(pi, p, 100, cap=100)

    def test_uniform_ties_go_to_the_last_symbols(self):
        # six counts over eleven equally likely symbols: C(11, 6) = 462 types
        # tie in exact arithmetic (the enumeration takes 1.35 million)
        p = make_distribution([1] * 12)
        pi = ConstraintSet("lower", 0, 0.5)
        d, t = sanov_exponent(pi, p, 12, cap=10_000)
        assert (d, t) == sanov_oracle.sanov_exponent(pi, p, 12)

    def test_tie_heavy_search_stays_within_a_small_cap(self):
        # the other 12 counts over 15 equally likely symbols: C(15, 3) = 455
        # types tie in exact arithmetic. The cap bounds only the 25 binomial
        # terms; a search over the tied types once needed 16,835 of it
        p = make_distribution([1] * 16)
        d, t = sanov_exponent(ConstraintSet("lower", 0, 0.5), p, 24, cap=20_000)
        assert (d.hex(), t.counts) == ("0x1.351ff2e30214cp+0", (12, 0, 0, 0, *[1] * 12))

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_exact_brute_force(self, seed):
        # the lexicographically smallest exact minimizer of the enumeration
        # and its _kl_rows value, 1,000 events of at most about 2,000 types
        for case in _exact_cases(100 + seed, 1000):
            w, mode, symbol, t, n = case
            pi, p = ConstraintSet(mode, symbol, t), make_distribution(w)
            try:
                d_want, t_want = sanov_oracle.sanov_exponent(pi, p, n)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    sanov_exponent(pi, p, n)
                continue
            d, t_got = sanov_exponent(pi, p, n)
            assert (d.hex(), t_got.counts) == (d_want.hex(), t_want.counts), case

    @pytest.mark.parametrize(
        "w, mode, symbol, t, n, want",
        [
            # the float search once returned (4, 5, 5, 4, 4, 4)
            ([1] * 6, "upper", 4, 0.7, 26, (4, 4, 4, 4, 5, 5)),
            # the increments of symbol 1 from 1 to 2 and of symbol 7 from 0
            # to 1 are both ln(35/33) exactly, across unequal p
            ([4, 4, 6, 4, 3, 7, 6, 1], "lower", 0, 0.625, 33, (21, 1, 2, 2, 1, 3, 2, 1)),
        ],
    )
    def test_exact_ties_go_to_the_lexicographically_smallest(self, w, mode, symbol, t, n, want):
        pi, p = ConstraintSet(mode, symbol, t), make_distribution(w)
        d, t_got = sanov_exponent(pi, p, n)
        assert t_got.counts == want
        assert d.hex() == _kl_rows(np.array([want]), n, p)[0].hex()
        assert sanov_oracle.moves_against_the_minimizer(pi, p, want) == []
        tied = [
            (i, j)
            for i, j in itertools.permutations(range(len(w)), 2)
            if want[i] and sanov_oracle.unit_move_sign(want, p, i, j) == 0
        ]
        assert tied and all(j < i for i, j in tied)

    @pytest.mark.parametrize(
        "w7, want",
        [(1 - 2**-50, (21, 2, 2, 2, 1, 3, 2, 0)), (1 + 2**-50, (21, 1, 2, 2, 1, 3, 2, 1))],
    )
    def test_near_ties_are_decided_exactly(self, w7, want):
        # the exact tie above with p_7 moved by a few ulps: the two increments
        # differ by about 1e-16 of their size, which only exact arithmetic sees
        pi, p = ConstraintSet("lower", 0, 0.625), make_distribution([4, 4, 6, 4, 3, 7, 6, w7])
        d, t_got = sanov_exponent(pi, p, 33)
        assert t_got.counts == want
        assert sanov_oracle.moves_against_the_minimizer(pi, p, want) == []
        assert all(sanov_oracle.unit_move_sign(want, p, i, j) for i, j in ((1, 7), (7, 1)) if want[i])

    @pytest.mark.parametrize(
        "k, n, t, want",
        [
            (20, 30, 0.5, (15, 0, 0, 0, 0, *[1] * 15)),
            (30, 60, 0.5, (30, *[1] * 28, 2)),
            (3, 300_000, 150_001 / 300_000, (150_001, 74_999, 75_000)),
        ],
    )
    def test_wide_uniform_alphabets(self, k, n, t, want):
        # every permutation of the minimizer's counts off symbol 0 ties: a
        # search over the tied types took 1.1 s at k = 20
        pi, p = ConstraintSet("lower", 0, t), make_distribution([1] * k)
        start = time.perf_counter()
        d, t_got = sanov_exponent(pi, p, n)
        assert time.perf_counter() - start < 1.0
        assert t_got.counts == want
        assert d.hex() == _kl_rows(np.array([want]), n, p)[0].hex()
        assert sanov_oracle.moves_against_the_minimizer(pi, p, want) == []

    @pytest.mark.parametrize("k", range(2, 13))
    def test_table_rows_are_the_kl_rows(self, k):
        # a C-order table row, the minimizer's terms and _kl_rows are all
        # summed pairwise from k = 8, so the bits match at every k
        rng = np.random.default_rng(k)
        for _ in range(20):
            n = int(rng.integers(1, 60))
            w = rng.uniform(0, 1, k) if rng.random() < 0.5 else rng.integers(1, 6, k) * 1.0
            w[rng.random(k) < 0.2] = 0.0
            if not w.any():
                w[0] = 1.0
            p = make_distribution(w)
            rows = rng.multinomial(n, rng.dirichlet(np.ones(k)), size=50)
            got = _kl_table(_log2q(p), n)[np.arange(k), rows].sum(axis=1)
            assert got.tobytes() == _kl_rows(rows, n, p).tobytes()
            pi = ConstraintSet("lower" if rng.random() < 0.5 else "upper", 0, rng.random())
            d, t = sanov_exponent(pi, p, n)
            assert d.hex() == _kl_rows(np.array([t.counts]), n, p)[0].hex()

    @pytest.mark.parametrize("symbol", [0, 1])
    @pytest.mark.parametrize("mode, threshold", [("upper", 1.0), ("lower", 0.0), ("lower", 0.5)])
    def test_no_mass_off_the_symbol(self, symbol, mode, threshold):
        # p_a rounds below 1 with no mass elsewhere, so only c_a = n has a
        # finite D; the start split the rest by its zero sum (a ValueError)
        w = [0.0, 0.0, 0.0]
        w[symbol] = 1.0 - 1e-13
        pi, p = ConstraintSet(mode, symbol, threshold), DiscreteDistribution(w)
        d, t = sanov_exponent(pi, p, 5)
        assert t.counts == tuple(5 if j == symbol else 0 for j in range(3))
        assert d.hex() == _kl_rows(np.array([t.counts]), 5, p)[0].hex()
        assert d == pytest.approx(-math.log2(1.0 - 1e-13), rel=1e-12)

    @pytest.mark.parametrize("n", [0, -3])
    def test_n_must_be_positive(self, n):
        # n = 0 divided by zero in count_range, and n = -3 read as an empty event
        pi, p = ConstraintSet("lower", 0, 0.5), make_distribution([1, 2])
        with pytest.raises(ValidationError):
            pi.count_range(n, 2)
        with pytest.raises(ValidationError):
            sanov_exponent(pi, p, n)
        with pytest.raises(ValidationError):
            sanov_exact_log2_prob(pi, p, n)

    @pytest.mark.parametrize("symbol", [1.5, math.nan, "0"])
    def test_non_integer_symbol_is_refused(self, symbol):
        # 1.5 passed, and sanov_exponent then raised a bare TypeError
        with pytest.raises(ValidationError, match="symbol index must be an integer"):
            ConstraintSet("lower", symbol, 0.3)

    def test_symbol_outside_the_alphabet(self):
        with pytest.raises(ValidationError):
            sanov_exponent(ConstraintSet("lower", 3, 0.5), make_distribution([1, 2, 3]), 10)
        with pytest.raises(ValidationError):
            sanov_exact_log2_prob(ConstraintSet("lower", 3, 0.5), make_distribution([1, 2, 3]), 10)


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
