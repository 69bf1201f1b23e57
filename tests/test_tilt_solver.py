"""The tilt solver against the plain bracket-and-bisect loop of ``tilt_oracle``.

``dist._solve_tilt`` evaluates the mean only inside a certified bracket and
must still return the loop's beta bit for bit, and raise its errors. The
inputs are captured from the public entry points (``solve_beta`` and
``chernoff_lambda_star``), so the comparison covers what callers pass.
"""

import math

import mpmath
import numpy as np
import pytest
import tilt_oracle

from errexp import (
    BinaryHypothesis,
    ConvergenceError,
    DiscreteDistribution,
    boltzmann,
    chernoff_lambda_star,
    dist,
    make_distribution,
    solve_beta,
    testing,
)
from errexp.dist import (
    LN2,
    _certified_bracket,
    _solve_tilt,
    _tilt_error_bound,
    _tilt_mean,
    _tilt_moments,
)


class Spy:
    """Stands in for ``_solve_tilt`` in a caller module and records each
    call's arguments and result."""

    def __init__(self, monkeypatch, module):
        self.args = None
        self.result = None
        monkeypatch.setattr(module, "_solve_tilt", self)

    def __call__(self, *args):
        self.args = args
        self.result = _solve_tilt(*args)
        return self.result


def outcome(solve, *args):
    try:
        return solve(*args)
    except ConvergenceError as err:
        return f"ConvergenceError: {err}"


def boltzmann_systems(seed, count):
    # the ranges of the certificate test in test_boltzmann: k = 2..39 levels
    # at scales 1e-6, 1 and 1e3, offsets of either sign, some degenerate
    # levels; targets anywhere in (ground, mean), some within 1e-6 of the ground
    rng = np.random.default_rng(seed)
    for i in range(count):
        k = int(rng.integers(2, 40))
        scale = (1e-6, 1.0, 1e3)[i % 3]
        levels = scale * (rng.uniform(0.0, 5.0, k) + rng.uniform(-10.0, 10.0))
        if i % 7 == 0:
            levels = np.round(levels / scale) * scale
        lo, mean = float(levels.min()), float(levels.mean())
        frac = 10.0 ** rng.uniform(-6.0, 0.0) if i % 2 else rng.uniform(0.0, 1.0)
        target = lo + (mean - lo) * frac
        if lo < target <= mean:
            yield levels, target


def chernoff_pairs(seed, count):
    # k = 2..8; some symbols a million times likelier under one hypothesis
    # than the other, some pairs within 1e-6 of each other
    rng = np.random.default_rng(seed)
    for i in range(count):
        k = int(rng.integers(2, 9))
        w1 = rng.uniform(0.01, 1.0, k)
        if i % 4 == 0:
            w2 = w1 * (1.0 + rng.uniform(0.5e-6, 1e-6, k) * (-1.0) ** np.arange(k))
        else:
            w2 = rng.uniform(0.01, 1.0, k)
        if i % 5 == 0:
            w2[rng.integers(k)] *= 1e-6
        h = BinaryHypothesis(make_distribution(w1), make_distribution(w2))
        if h.p1 != h.p2:
            yield h


# the extreme-ratio and near-identical pairs of test_testing
EDGE_PAIRS = [
    ((1, 1), (1e-17, 1)),
    ((1, 1), (1e-12, 1)),
    ((1e-17, 1), (1, 1)),
    ((0.3, 0.7), (1e-300, 1)),
    ((1, 1, 1), (1e-17, 1, 1e-9)),
    ((1, 1), (1e-320, 1)),
    ((0.5 + 1e-6, 0.5 - 1e-6), (0.5, 0.5)),
    # the computed D(p2||p1) is <= 0, so every mean is at or below the target
    # 0: the bisection collapses onto beta = 0, which only the solver's final
    # mean evaluation reaches, and lambda* = 0
    ((1, 1), (1 - 2**-53, 1)),
]


# test_boltzmann's (0, s, 2s) at mean s / 2 for s = 1e60 ... 1e300: beta is
# about 0.79 / s, far below 2^-200 of the first bracket [0, 1]
WIDE_SYSTEMS = [
    (np.array([0.0, 10.0**e, 2 * 10.0**e]), 10.0**e / 2) for e in range(60, 301, 20)
]


def test_beta_matches_the_bisection_loop(monkeypatch):
    spy = Spy(monkeypatch, boltzmann)
    checked = 0
    for levels, target in [*boltzmann_systems(14, 1000), *WIDE_SYSTEMS]:
        spy.args = None
        beta = outcome(solve_beta, levels, target)
        if spy.args is None:
            continue  # within rounding of the uniform mean: beta = 0 without a solve
        expected = outcome(tilt_oracle.solve_tilt, *spy.args)
        assert isinstance(beta, float) and isinstance(expected, float)
        assert beta.hex() == expected.hex(), (levels, target)
        checked += 1
    assert checked > 800


def check_chernoff(spy, h):
    report = chernoff_lambda_star(h)
    expected = tilt_oracle.solve_tilt(*spy.args) / LN2
    assert report.lambda_star.hex() == expected.hex(), (h.p1.probs, h.p2.probs)
    beta, iterations, residual = spy.result
    assert (report.iterations, report.residual) == (iterations, residual)
    assert residual == abs(_tilt_mean(*spy.args[:2], beta) - spy.args[2])


def test_lambda_star_matches_the_bisection_loop(monkeypatch):
    spy = Spy(monkeypatch, testing)
    for h in chernoff_pairs(15, 800):
        check_chernoff(spy, h)


@pytest.mark.parametrize("w1, w2", EDGE_PAIRS)
def test_lambda_star_matches_the_bisection_loop_at_the_edges(monkeypatch, w1, w2):
    h = BinaryHypothesis(make_distribution(w1), make_distribution(w2))
    check_chernoff(Spy(monkeypatch, testing), h)


@pytest.mark.parametrize(
    "solve, args",
    [
        # targets whose beta lies beyond the 2^200 the bracket growth reaches
        (solve_beta, ([0, 1e-300], 1e-310)),
        (solve_beta, ([0, 1e-100, 2e-100], 1e-150)),
        # p2 exceeds p1 on both symbols, within the rounding a probability
        # vector may carry: every energy is positive and no tilt has mean 0
        (
            chernoff_lambda_star,
            (
                BinaryHypothesis(
                    DiscreteDistribution([0.5, 0.5]), DiscreteDistribution([0.5 + 1e-13] * 2)
                ),
            ),
        ),
    ],
)
def test_convergence_errors_match_the_bisection_loop(monkeypatch, solve, args):
    spy = Spy(monkeypatch, boltzmann if solve is solve_beta else testing)
    with pytest.raises(ConvergenceError) as err:
        solve(*args)
    assert f"ConvergenceError: {err.value}" == outcome(tilt_oracle.solve_tilt, *spy.args)


def test_certified_bracket_holds_between_its_ends():
    # every computed mean at beta <= a lies above the target and every one
    # in [b, hi] at or below it, also a few ulp from a and b
    rng = np.random.default_rng(16)
    cases = [
        (0.0, levels - levels.min(), target - levels.min())
        for levels, target in boltzmann_systems(17, 60)
    ]
    for h in chernoff_pairs(18, 60):
        p1, p2 = h.p1.probs, h.p2.probs
        cases.append((np.log(p2), np.log2(p2 / p1), 0.0))
    for log_base, energy, target in cases:
        hi = 1.0
        while _tilt_mean(log_base, energy, hi) > target:
            hi *= 2.0
        scale = float(energy.max() - energy.min())
        moments = _tilt_moments(log_base, energy, hi, energy / scale, scale)
        bound = _tilt_error_bound(log_base, energy)
        a, b, _ = _certified_bracket(
            log_base, energy, target, hi, moments, energy / scale, scale, bound
        )
        assert 0.0 <= a < b <= hi
        betas_a = np.concatenate([a * (1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 40)), [a]])
        betas_b = np.concatenate([b + (hi - b) * 10.0 ** rng.uniform(-16.0, 0.0, 40), [b, hi]])
        if a > 0.0:
            assert all(_tilt_mean(log_base, energy, x) > target for x in betas_a)
        assert all(_tilt_mean(log_base, energy, x) <= target for x in betas_b)


def test_means_inside_the_rounding_margin_certify_nothing(monkeypatch):
    # a computed mean that misses the target by less than twice the error
    # bound may lie on the wrong side of it, so it certifies nothing. The
    # means below fall with slope -1 through a root at 0.3, except within
    # 4 bounds of it, where each misses the target by half a bound
    energy = np.array([0.0, 1.0, 3.0])
    c0, c1 = _tilt_error_bound(0.0, energy)
    zone = 4.0 * (c0 + c1)

    def mean(log_base, energy, beta):
        d = 0.3 - beta
        return 1.0 + (d if abs(d) > zone else 0.5 * (c0 + c1 * beta) * np.sign(d))

    monkeypatch.setattr(dist, "_tilt_mean", mean)
    monkeypatch.setattr(dist, "_tilt_moments", lambda *args: (mean(*args[:3]), 1.0))
    moments = dist._tilt_moments(0.0, energy, 1.0)
    a, b, _ = _certified_bracket(0.0, energy, 1.0, 1.0, moments, energy / 3.0, 3.0, (c0, c1))
    assert 0.3 - 20.0 * zone < a < 0.3 - zone and 0.3 + zone < b < 0.3 + 20.0 * zone


def workload_like(seed, count):
    # Chernoff pairs of k = 2..6 integer weights 1..20 and Boltzmann systems
    # of 3..8 levels in [0, 5], two Chernoff solves per Boltzmann one
    rng = np.random.default_rng(seed)
    for i in range(count):
        if i % 3 == 2:
            while True:
                levels = np.round(rng.uniform(0.0, 5.0, int(rng.integers(3, 9))), 3)
                lo, mean = levels.min(), levels.mean()
                if mean - lo > 0.05:
                    break
            yield "boltzmann", (levels, round(lo + (mean - lo) * rng.uniform(0.05, 0.95), 6))
        else:
            k = int(rng.integers(2, 7))
            while True:
                w1, w2 = rng.integers(1, 21, k), rng.integers(1, 21, k)
                if not np.array_equal(w1 * w2.sum(), w2 * w1.sum()):
                    break
            yield "chernoff", (BinaryHypothesis(make_distribution(w1), make_distribution(w2)),)


def test_evaluation_count_on_workload_shaped_solves(monkeypatch):
    # the plain loop evaluates the mean about 56 times per solve here
    spies = {"boltzmann": Spy(monkeypatch, boltzmann), "chernoff": Spy(monkeypatch, testing)}
    solvers = {"boltzmann": solve_beta, "chernoff": chernoff_lambda_star}
    iterations = []
    for kind, args in workload_like(19, 1500):
        spies[kind].result = None
        solvers[kind](*args)
        _, n, residual = spies[kind].result
        assert residual <= 1e-10
        iterations.append(n)
    assert np.mean(iterations) <= 25


def certificate(log_base, energy, beta):
    """The solver's bound on its residual at a collapsed bracket holding
    ``beta``, with the bracket widened to the doubles on either side."""
    c0, c1 = _tilt_error_bound(log_base, energy)
    lo, hi = np.nextafter(beta, -math.inf), np.nextafter(beta, math.inf)
    span = float(energy.max() - energy.min())
    return 2.0 * (c0 + c1 * hi) + 0.25 * span * span * (hi - lo)


def exact_mean(energy, beta):
    # the mean energy at beta under exp(-beta * energy), to 40 digits
    with mpmath.workdps(40):
        e = [mpmath.mpf(float(x)) for x in energy]
        w = [mpmath.exp(-mpmath.mpf(beta) * x) for x in e]
        return float(mpmath.fsum(x * y for x, y in zip(e, w)) / mpmath.fsum(w))


@pytest.mark.parametrize("exponent", [0, 3, 6, 9, 15, 100, 300])
def test_certificate_holds_at_every_scale(monkeypatch, exponent):
    # workload-shaped systems scaled by 10^exponent: 3..8 levels uniform on
    # [0, 5], targets 5-95% of the way from the ground level to the mean.
    # An absolute tolerance of 1e-10 refused many of them from 10^6 on
    spy = Spy(monkeypatch, boltzmann)
    rng = np.random.default_rng(40 + exponent)
    for _ in range(40):
        spy.args = None
        levels = 10.0**exponent * rng.uniform(0.0, 5.0, int(rng.integers(3, 9)))
        lo, mean = float(levels.min()), float(levels.mean())
        solve_beta(levels, lo + (mean - lo) * rng.uniform(0.05, 0.95))
        log_base, energy, target = spy.args
        beta, _, residual = spy.result
        bound = certificate(log_base, energy, beta)
        assert residual <= bound, (levels, target)
        # the exact mean at beta lies within the certificate and the mean's
        # own rounding bound of the target
        c0, c1 = _tilt_error_bound(log_base, energy)
        assert abs(exact_mean(energy, beta) - target) <= bound + c0 + c1 * beta


def push_means_off(monkeypatch, target):
    """Moves every ``_tilt_mean`` evaluation 1e-6 farther from ``target``, on
    its own side: each bisection step goes the way it went, and the residual
    exceeds the certificate."""
    real = dist._tilt_mean

    def mean(log_base, energy, beta):
        m = real(log_base, energy, beta)
        return m + 1e-6 if m > target else m - 1e-6

    monkeypatch.setattr(dist, "_tilt_mean", mean)


@pytest.mark.parametrize(
    "solve, args, target",
    [
        (solve_beta, ([0, 1.3, 2.7, 4], 0.77), 0.77),
        (solve_beta, ([0, 1, 2, 3], 1e-3), 1e-3),
        (
            chernoff_lambda_star,
            (BinaryHypothesis(make_distribution([3, 7]), make_distribution([9, 2])),),
            0.0,
        ),
    ],
    ids=["boltzmann_warm", "boltzmann_cold", "chernoff"],
)
def test_a_residual_beyond_the_certificate_raises(monkeypatch, solve, args, target):
    push_means_off(monkeypatch, target)
    with pytest.raises(ConvergenceError, match="beyond its bound"):
        solve(*args)
