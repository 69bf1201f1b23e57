"""Each oracle against brute-force sequence enumeration on tiny instances."""

import itertools
import math
from fractions import Fraction

import mpmath
import pytest

import oracles


def _seq_prob(seq, weights):
    total = sum(weights)
    p = Fraction(1)
    for x in seq:
        p *= Fraction(weights[x], total)
    return p


def _sequences(k, n):
    return list(itertools.product(range(k), repeat=n))


def _llr(seq, w1, w2):
    """Average log2 likelihood ratio of a sequence (float, as a type statistic)."""
    s1, s2 = sum(w1), sum(w2)
    return sum(math.log2(w1[x] / s1) - math.log2(w2[x] / s2) for x in seq) / len(seq)


def _brute_stein(w1, w2, n, delta, epsilon):
    """alpha, beta of the Stein band and the randomized NP beta, over sequences."""
    k = len(w1)
    s1, s2 = sum(w1), sum(w2)
    kl = sum(a / s1 * math.log2((a / s1) / (b / s2)) for a, b in zip(w1, w2))
    seqs = _sequences(k, n)
    alpha, beta = Fraction(0), Fraction(0)
    classes = {}
    for seq in seqs:
        llr = _llr(sorted(seq), w1, w2)
        p1, p2 = _seq_prob(seq, w1), _seq_prob(seq, w2)
        if kl - delta <= llr <= kl + delta:
            beta += p2
        else:
            alpha += p1
        counts = tuple(seq.count(a) for a in range(k))
        c = classes.setdefault(counts, [llr, Fraction(0), Fraction(0)])
        c[1] += p1
        c[2] += p2
    # sequences of one type share their LLR, so NP randomizes over classes
    order = sorted(classes.items(), key=lambda kv: (-kv[1][0], kv[0]))
    target = 1 - Fraction(epsilon)
    acc, np_beta = Fraction(0), Fraction(0)
    for _, (_, m1, m2) in order:
        if acc + m1 < target:
            acc += m1
            np_beta += m2
            continue
        np_beta += min(Fraction(1), (target - acc) / m1) * m2
        break
    return alpha, beta, np_beta


@pytest.mark.parametrize(
    "w1, w2, n",
    [([1, 3], [2, 1], 9), ([5, 1], [1, 1], 7), ([1, 2, 3], [3, 2, 2], 6), ([2, 1, 1, 3], [1, 2, 2, 1], 5)],
)
def test_stein_oracle_matches_sequence_enumeration(w1, w2, n):
    delta, epsilon = 0.07, 0.1
    alpha, beta, np_beta = _brute_stein(w1, w2, n, delta, epsilon)
    ex = oracles.stein_exact(w1, w2, n, delta, epsilon)
    assert ex.alpha == pytest.approx(float(alpha), abs=1e-15)
    with mpmath.workdps(40):
        assert float(mpmath.mpf(2) ** ex.log2_beta) == pytest.approx(float(beta), rel=1e-12)
        assert float(mpmath.mpf(2) ** ex.log2_np_beta) == pytest.approx(float(np_beta), rel=1e-12)


def test_type_numerators_are_lexicographic_multinomials():
    w, n = [2, 3, 5, 7], 6
    counts = oracles.brute_force_types(n, len(w))
    nums = oracles.type_numerators(w, n)
    assert [tuple(c) for c in counts] == sorted(tuple(c) for c in counts)
    for c, num in zip(counts, nums):
        multinom = math.factorial(n)
        for x in c:
            multinom //= math.factorial(int(x))
        assert num == multinom * math.prod(wa**int(x) for wa, x in zip(w, c))


@pytest.mark.parametrize("mode, threshold", [("lower", 0.5), ("upper", 0.25), ("lower", 0.0)])
def test_sanov_binomial_tail_matches_sequence_enumeration(mode, threshold):
    w, n, a = [1, 2, 4], 7, 1
    lo, hi = oracles._sanov_range(n, mode, threshold)
    exact = sum(
        (_seq_prob(seq, w) for seq in _sequences(3, n)
         if (seq.count(a) / n >= threshold if mode == "lower" else seq.count(a) / n <= threshold)),
        Fraction(0),
    )
    with mpmath.workdps(40):
        got = mpmath.mpf(2) ** oracles.log2_binom_range(n, mpmath.mpf(w[a]) / sum(w), lo, hi)
    assert float(got) == pytest.approx(float(exact), rel=1e-14)


def test_kl_oracle_matches_sequence_divergence():
    # D(P^n || Q^n) = n D(P || Q), summed over every sequence
    p, q, n = [1, 2, 5], [3, 3, 2], 3
    total = sum(
        float(_seq_prob(s, p)) * math.log2(_seq_prob(s, p) / _seq_prob(s, q))
        for s in _sequences(3, n)
    )
    with mpmath.workdps(40):
        assert float(oracles._bits_kl(oracles._probs(p), oracles._probs(q))) == pytest.approx(total / n, rel=1e-12)


def test_wilson_interval_contains_truth_and_handles_zero_errors():
    lo, hi = oracles.wilson_interval(0, 50_000)
    assert lo == 0.0 and 0.0 < hi < 1e-3
    lo, hi = oracles.wilson_interval(500, 10_000)
    assert lo < 0.05 < hi


def _csv(header, row):
    return ",".join(header) + "\r\n" + ",".join(str(x) for x in row) + "\r\n"


STEIN_HEADER = ["n", "delta", "epsilon", "alpha_n", "beta_n", "stein_exponent_bits",
                "np_min_beta", "np_exponent_bits"]


def _stein_row(argv):
    w1, w2 = [int(x) for x in argv[2].split(",")], [int(x) for x in argv[4].split(",")]
    n, delta, eps = int(argv[6]), float(argv[8]), float(argv[10])
    ex = oracles.stein_exact(w1, w2, n, delta, eps)
    with mpmath.workdps(40):
        beta = float(mpmath.mpf(2) ** ex.log2_beta)
        np_beta = float(mpmath.mpf(2) ** ex.log2_np_beta)
    return [n, delta, eps, ex.alpha, beta, float(-ex.log2_beta / n), np_beta,
            float(-ex.log2_np_beta / n)]


def test_check_stein_accepts_exact_and_rejects_perturbed_output():
    argv = ["stein", "--p1", "1,2,3", "--p2", "3,2,1", "--n", "40", "--delta", "0.05",
            "--epsilon", "0.05"]
    row = _stein_row(argv)
    assert oracles.check_op(argv, 0, _csv(STEIN_HEADER, row)).ok
    row[6] *= 1 + 1e-5
    verdict = oracles.check_op(argv, 0, _csv(STEIN_HEADER, row))
    assert not verdict.ok and not verdict.known_defect


def test_check_stein_attributes_silent_underflow():
    argv = ["stein", "--p1", "1,1", "--p2", "1,3", "--n", "8000", "--delta", "0.05",
            "--epsilon", "0.05"]
    row = _stein_row(argv)
    assert row[6] == 0.0 and math.isfinite(row[7])
    row[4], row[7] = 0.0, math.inf  # what the program prints at exit 0
    verdict = oracles.check_op(argv, 0, _csv(STEIN_HEADER, row))
    assert not verdict.ok and verdict.known_defect
    assert any("np_min_beta=0" in r for r in verdict.reasons)


def test_check_op_fails_nonzero_exit_and_garbage():
    assert not oracles.check_op(["chernoff", "--p1", "1,2", "--p2", "2,1"], 2, "").ok
    verdict = oracles.check_op(["chernoff", "--p1", "1,2", "--p2", "2,1"], 0, "x\r\n")
    assert not verdict.ok and not verdict.known_defect


def test_check_chernoff_and_boltzmann_round_trips():
    with mpmath.workdps(40):
        p1, p2 = oracles._probs([1, 2, 3]), oracles._probs([3, 1, 1])

        def g(lam):
            t = [a**lam * b ** (1 - lam) for a, b in zip(p1, p2)]
            z = mpmath.fsum(t)
            t = [x / z for x in t]
            return oracles._bits_kl(t, p1) - oracles._bits_kl(t, p2), t

        lam = float(mpmath.findroot(lambda x: g(x)[0], (0.01, 0.99), solver="bisect"))
        _, t = g(mpmath.mpf(lam))
        d1, d2 = float(oracles._bits_kl(t, p1)), float(oracles._bits_kl(t, p2))
    header = ["lambda_star", "c_info_bits", "d1_bits", "d2_bits"]
    argv = ["chernoff", "--p1", "1,2,3", "--p2", "3,1,1"]
    assert oracles.check_op(argv, 0, _csv(header, [lam, max(d1, d2), d1, d2])).ok
    assert not oracles.check_op(argv, 0, _csv(header, [0.3, max(d1, d2), d1, d2])).ok

    levels, target = [0.0, 1.0, 2.0], 0.8
    with mpmath.workdps(40):
        def mean(b):
            w = [mpmath.exp(-b * e) for e in levels]
            return mpmath.fsum(e * x for e, x in zip(levels, w)) / mpmath.fsum(w)

        beta = float(mpmath.findroot(lambda b: mean(b) - target, 0.5))
        w = [mpmath.exp(-mpmath.mpf(beta) * e) for e in levels]
        probs = [float(x / mpmath.fsum(w)) for x in w]
        m = float(mean(mpmath.mpf(beta)))
    out = "level_index,energy,prob,beta,mean_energy\r\n" + "".join(
        f"{j},{levels[j]!r},{probs[j]!r},{beta!r},{m!r}\r\n" for j in range(3)
    )
    argv = ["boltzmann", "--levels", "0.0,1.0,2.0", "--mean", "0.8"]
    assert oracles.check_op(argv, 0, out).ok
    assert not oracles.check_op(argv, 0, out.replace(repr(beta), repr(beta * 1.01))).ok
