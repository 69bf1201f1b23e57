"""The tilt solver against the plain bracket-and-bisect loop of ``tilt_oracle``.

``dist._solve_tilt`` evaluates the mean only inside a certified bracket and
must still return the loop's beta bit for bit, and raise its errors. The
inputs are captured from the public entry points (``solve_beta`` and
``chernoff_lambda_star``), so the comparison covers what callers pass.
"""

import functools
import math

import mpmath
import numpy as np
import pytest
import tilt_oracle

from errexp import (
    BinaryHypothesis,
    ConvergenceError,
    DegenerateHypothesisError,
    DiscreteDistribution,
    InfeasibleError,
    ValidationError,
    boltzmann,
    chernoff_lambda_star,
    dist,
    make_distribution,
    solve_beta,
    testing,
)
from errexp.dist import (
    _SHORT_SUM,
    LN2,
    _certified_bracket,
    _gibbs_weights,
    _solve_tilt,
    _tilt_error_bound,
    _tilt_floats,
    _tilt_mean,
)


class Spy:
    """Stands in for ``_solve_tilt`` in a caller module and records each
    call's arguments and result."""

    def __init__(self, monkeypatch, module):
        self.args = None
        self.result = None
        monkeypatch.setattr(module, "_solve_tilt", self)

    def __call__(self, *args):
        # callers hand short inputs as lists of Python floats; the oracle
        # takes arrays of the same values
        self.args = tuple(np.array(a) if isinstance(a, list) else a for a in args)
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


def test_target_above_the_shifted_flat_mean_takes_the_shortcut(monkeypatch):
    # the ground-shifted target lies 6.5e-13 above the solver's beta = 0 mean
    # but not within 2 c0 = 4.2e-13 of the unshifted uniform mean, and a
    # solve ran 1,058 mean evaluations down to beta = 0
    spy = Spy(monkeypatch, boltzmann)
    levels = [4893.552071638851, 4904.790840449391, 4914.322396470185, 4843.714454990153,
              4924.86467642764, 4872.676330821049, 4862.832441438198]
    assert solve_beta(levels, 4888.1076017479245) == 0.0
    assert spy.args is None


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


def test_lambda_star_at_zero_is_degenerate(monkeypatch):
    # the computed D(p2||p1) is <= 0, so every mean is at or below the target
    # 0: the bisection collapses onto beta = 0 as the loop does, which only
    # the solver's final mean evaluation reaches, and a tilt at the end of
    # [0, 1] is refused as the mirror pair's tilt past 1 is
    spy = Spy(monkeypatch, testing)
    h = BinaryHypothesis(make_distribution((1, 1)), make_distribution((1 - 2**-53, 1)))
    with pytest.raises(DegenerateHypothesisError, match="rounding of their normalization"):
        chernoff_lambda_star(h)
    assert spy.result[0] == tilt_oracle.solve_tilt(*spy.args) == 0.0


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
        bound = _tilt_error_bound(log_base, energy)[:2]
        mean = functools.partial(_tilt_mean, log_base, energy)
        a, b = _certified_bracket(mean, target, hi, scale, bound)
        assert 0.0 <= a < b <= hi
        betas_a = np.concatenate([a * (1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 40)), [a]])
        betas_b = np.concatenate([b + (hi - b) * 10.0 ** rng.uniform(-16.0, 0.0, 40), [b, hi]])
        if a > 0.0:
            assert all(_tilt_mean(log_base, energy, x) > target for x in betas_a)
        assert all(_tilt_mean(log_base, energy, x) <= target for x in betas_b)


def test_means_inside_the_rounding_margin_certify_nothing():
    # a computed mean that misses the target by less than twice the error
    # bound may lie on the wrong side of it, so it certifies nothing. The
    # means below fall with slope -1 through a root at 0.3, except within
    # 4 bounds of it, where each misses the target by half a bound
    energy = np.array([0.0, 1.0, 3.0])
    c0, c1 = _tilt_error_bound(0.0, energy)[:2]
    zone = 4.0 * (c0 + c1)

    def mean(log_base, energy, beta):
        d = 0.3 - beta
        return 1.0 + (d if abs(d) > zone else 0.5 * (c0 + c1 * beta) * np.sign(d))

    a, b = _certified_bracket(functools.partial(mean, 0.0, energy), 1.0, 1.0, 3.0, (c0, c1))
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


def test_every_evaluation_goes_through_the_memo(monkeypatch):
    # no beta is evaluated twice in a solve, and iterations counts the
    # evaluations
    real = dist._tilt_mean
    betas = []

    def mean(log_base, energy, beta):
        betas.append(beta)
        return real(log_base, energy, beta)

    monkeypatch.setattr(dist, "_tilt_mean", mean)
    spies = {"boltzmann": Spy(monkeypatch, boltzmann), "chernoff": Spy(monkeypatch, testing)}
    solvers = {"boltzmann": solve_beta, "chernoff": chernoff_lambda_star}
    solves = [
        *(("boltzmann", args) for args in boltzmann_systems(20, 300)),
        *(("chernoff", (h,)) for h in chernoff_pairs(21, 300)),
        *workload_like(22, 600),
    ]
    checked = 0
    for kind, args in solves:
        betas.clear()
        spies[kind].result = None
        outcome(solvers[kind], *args)
        if spies[kind].result is None:
            continue  # the beta = 0 shortcut, or no bracket
        assert len(set(betas)) == len(betas), args
        assert spies[kind].result[1] == len(betas), args
        checked += 1
    assert checked > 1000


def certificate(log_base, energy, beta):
    """The solver's bound on its residual at a collapsed bracket holding
    ``beta``, with the bracket widened to the doubles on either side."""
    c0, c1 = _tilt_error_bound(log_base, energy)[:2]
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
        c0, c1 = _tilt_error_bound(log_base, energy)[:2]
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


def branch_cases(k, seed):
    """(log_base, energy, beta) on k energies, for the float branch: a
    Chernoff-like vector base or the Boltzmann scalar base; beta = 0, moderate
    and large; exponents that leave subnormal weights; energies near 1e308,
    whose weighted sum overflows into ``_weighted_mean``'s fallback."""
    rng = np.random.default_rng(seed)
    for i in range(400):
        log_base = np.log(rng.dirichlet(np.ones(k))) if i % 2 else 0.0
        energy = rng.uniform(-5.0, 5.0, k)
        kind = (i // 2) % 5
        if kind == 0:
            beta = 0.0
        elif kind == 1:
            beta = 10.0 ** rng.uniform(-3.0, 2.0)
        elif kind == 2:
            beta = 10.0 ** rng.uniform(3.0, 300.0)
        elif kind == 3:
            # beta * (e - ground) in (700, 750): weights from 2^-1010 to 0
            beta = 1.0
            energy = energy.min() + rng.uniform(700.0, 750.0, k)
            energy[0] = energy.min() - 700.0
        else:
            beta = 10.0 ** rng.uniform(-310.0, -307.0)
            energy = rng.choice([-1.0, 1.0]) * rng.uniform(0.8, 1.7, k) * 1e308
        yield log_base, energy, beta


# sizes on both sides of the 8-symbol cut where the float branches end, and
# past it, where floats_only sends them through the float branches
SIZES = [*range(1, _SHORT_SUM), 8, 9, 16, 17, 33, 64]


@pytest.mark.parametrize("k", SIZES)
def test_float_branch_has_the_bits_of_the_arrays(monkeypatch, k):
    # the mean and the error bound on the lists of _tilt_floats against the
    # array code, by float.hex
    floats_only(monkeypatch)
    subnormal = overflowed = 0
    for log_base, energy, beta in branch_cases(k, 50 + k):
        fl_base, fl_energy = _tilt_floats(log_base, energy)
        assert isinstance(fl_base, list) and isinstance(fl_energy, list)
        with np.errstate(over="ignore", invalid="ignore"):
            w = _gibbs_weights(log_base, energy, beta)
            subnormal += bool(np.any((w > 0.0) & (w < 2.0**-1022)))
            overflowed += bool(np.isinf((energy * w).sum()))
            want_mean = _tilt_mean(log_base, energy, beta)
        case = (log_base, energy, beta)
        assert _tilt_mean(fl_base, fl_energy, beta).hex() == want_mean.hex(), case
        want_bound = [float(x).hex() for x in _tilt_error_bound(log_base, energy)]
        assert [x.hex() for x in _tilt_error_bound(fl_base, fl_energy)] == want_bound, case
    # one energy has the one weight 1 and a finite sum
    assert (subnormal > 0 and overflowed > 0) or k == 1


def test_arrays_from_the_short_sum_on_are_kept():
    energy = np.arange(_SHORT_SUM, dtype=float)
    assert _tilt_floats(0.0, energy)[1] is energy
    assert _tilt_floats(0.0, energy[1:])[1] == energy[1:].tolist()


def arrays_only(monkeypatch):
    """Sends every size through the array code: the float branches of
    validation, the Chernoff set-up, the solver, d1/d2 and the Boltzmann law
    all end at _SHORT_SUM, which drops to 1."""
    for module in (dist, testing, boltzmann):
        monkeypatch.setattr(module, "_SHORT_SUM", 1)


def floats_only(monkeypatch):
    """Sends every size through the float branches: _SHORT_SUM rises past any
    k here. Their sums are NumPy's at every length; min of the reversed list,
    whose tie rule keeps _SHORT_SUM at 8, meets here only validation's sign
    test and levels with no equal zeros."""
    for module in (dist, testing, boltzmann):
        monkeypatch.setattr(module, "_SHORT_SUM", 2**31)


def refusal(err):
    return f"{type(err).__name__}: {err}"


def short_pairs(k, seed):
    # k weights in (0.01, 1), then by kind: a symbol of zero mass under both;
    # a mass of 1e-310 (subnormal); p1 = (1e-307, ...) against p2 = (1,
    # 1e-9, ...), whose divergence term at 1e-307 passes the double range;
    # pairs 1e-7 apart, either way; identical pairs; p1 = 0 where p2 > 0;
    # pairs one rounding apart, which are identical or tilt outside (0, 1]
    rng = np.random.default_rng(seed)
    for i in range(80):
        w1, w2 = rng.uniform(0.01, 1.0, k), rng.uniform(0.01, 1.0, k)
        j, kind = int(rng.integers(k)), i % 8
        if kind == 1:
            w1[j] = w2[j] = 0.0
        elif kind == 2:
            (w1, w2)[i % 2][j] = 1e-310
        elif kind == 3:
            w1, w2 = np.ones(k), np.full(k, 1e-9)
            w1[j], w2[j] = 1e-307 * (k - 1), 1.0
        elif kind == 4:
            w2 = w1 * (1.0 + 1e-7 * (-1.0) ** (np.arange(k) + i // 8))
        elif kind == 5:
            w2 = w1.copy()
        elif kind == 6:
            w1[j] = 0.0
        elif kind == 7:
            w1, w2 = np.ones(k), np.ones(k)
            w2[j] = 1.0 - 2.0**-53
        yield w1, w2


@pytest.mark.parametrize("k", SIZES)
def test_chernoff_floats_have_the_bits_of_the_arrays(monkeypatch, k):
    # lam*, c_info, d1, d2, iterations and residual, and each refusal, from
    # the float branches and from the array code, by float.hex
    def outcome(w1, w2):
        try:
            p1, p2 = make_distribution(w1), make_distribution(w2)
            report = chernoff_lambda_star(BinaryHypothesis(p1, p2))
        except (ValidationError, DegenerateHypothesisError, ConvergenceError) as err:
            return refusal(err)
        probs = [x.hex() for x in (*p1.probs.tolist(), *p2.probs.tolist())]
        fields = (report.lambda_star, report.c_info, report.d1, report.d2, report.residual)
        return probs, [x.hex() for x in fields], report.iterations

    pairs = list(short_pairs(k, 60 + k))
    floats_only(monkeypatch)
    floats = [outcome(w1, w2) for w1, w2 in pairs]
    arrays_only(monkeypatch)
    assert [outcome(w1, w2) for w1, w2 in pairs] == floats
    refused = {x for x in floats if isinstance(x, str)}
    assert "DegenerateHypothesisError: hypotheses are identical" in refused
    tilt_refusal = "ValidationError: D(p2||p1) must be finite for the tilted family"
    assert k == 1 or tilt_refusal in refused
    outside = "DegenerateHypothesisError: hypotheses differ by less than the rounding"
    assert k in (1, 3, 6, 7, 9) or any(x.startswith(outside) for x in refused)


def short_systems(k, seed):
    # (levels, target, beta) on k levels: uniform in [-5, 5]; near +-1e308,
    # whose sums overflow into _weighted_mean's fallback; a ground level and
    # levels 700-750 above it, whose probs underflow at beta = 1. Targets
    # anywhere below the uniform mean, at it (the beta = 0 shortcut), above
    # it (refused with the uniform mean in the message) and nan
    rng = np.random.default_rng(seed)
    for i in range(80):
        kind = i % 3
        if kind == 0:
            levels = rng.uniform(-5.0, 5.0, k)
        elif kind == 1:
            levels = (-1.0) ** i * rng.uniform(1.0, 1.7, k) * 1e308
        else:
            levels = np.concatenate([[0.0], rng.uniform(700.0, 750.0, k - 1)])
        lo = float(levels.min())
        mean = lo + float(((levels - lo) / k).sum())
        target = (lo + (mean - lo) * rng.uniform(0.01, 1.0), mean, mean + 1.0, math.nan)[i // 3 % 4]
        yield levels, target, (1.0 if kind == 2 else float(rng.uniform(0.0, 3.0)))


@pytest.mark.parametrize("k", SIZES[1:])
def test_boltzmann_floats_have_the_bits_of_the_arrays(monkeypatch, k):
    # beta, the law and its mean, the shortcut and the refusals' messages,
    # from the float branches and from the array code, by float.hex
    def outcome(levels, target, beta):
        try:
            solved = solve_beta(levels, target)
        except (ValidationError, InfeasibleError, ConvergenceError) as err:
            solved = refusal(err)
        laws = []
        for b in (beta, solved):
            if isinstance(b, float):
                probs, mean = boltzmann._law_and_mean(boltzmann.EnergySystem(levels, b))
                laws.append([x.hex() for x in (*probs, mean)])
        return solved if isinstance(solved, str) else solved.hex(), laws

    systems = list(short_systems(k, 70 + k))
    floats_only(monkeypatch)
    floats = [outcome(*system) for system in systems]
    arrays_only(monkeypatch)
    assert [outcome(*system) for system in systems] == floats
    betas = [beta for beta, _ in floats]
    assert "0x0.0p+0" in betas and any(b.startswith("InfeasibleError") for b in betas)
    assert any(x == "0x0.0p+0" for _, laws in floats for law in laws for x in law[:-1])


def test_sum_and_min_has_the_bits_of_the_arrays(monkeypatch):
    # the validators' two reductions on lists below _SHORT_SUM entries, and
    # the NumPy reductions that take the rest: -0.0 (whose least is NumPy's
    # last equal entry), sums that overflow, inf and nan. Only below 8: from
    # 9 entries on min of the reversed list no longer keeps minimum.reduce's
    # -0.0 or 0.0 of equal entries (tests/test_dist.py)
    rng = np.random.default_rng(80)
    vectors = [[-0.0], [0.0, -0.0], [-0.0, 0.0, 1.0], [1.0, -0.0, 0.0, -0.0], [1e308, 1e308],
               [math.inf, 1.0], [1.0, -math.inf], [math.nan, 0.5], [0.5, 0.5, -0.0]]
    for k in range(1, _SHORT_SUM):
        for _ in range(200):
            v = rng.choice([-0.0, 0.0, 0.25, 1.0, -2.0, 1e308, 1e-310, math.inf, math.nan], k)
            vectors.append((v * rng.uniform(0.5, 1.5, k)).tolist())

    def sums_and_mins():
        out = []
        for v in vectors:
            total, least = dist._sum_and_min(np.array(v))
            out.append((total.hex(), least.hex()))
        return out

    floats = sums_and_mins()
    arrays_only(monkeypatch)
    assert sums_and_mins() == floats
