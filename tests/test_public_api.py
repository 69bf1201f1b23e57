"""The shape of the public API.

``errexp.__all__`` is pinned to the exact public set, and every exact
probability in it but the Q-function pair (``q_function``,
``q_chernoff_bound``) is one log2 function: each gives a finite log2 at or
below 0 on a case far below the double range (2^-1074), where a linear twin
would print 0. The CLI imports no private name, so no private side door into the
probability code can grow back unnoticed, with one kept exception:
``boltzmann._law_and_mean`` and ``_log2_law``, because ``errexp boltzmann``
takes the law and its mean energy from one Gibbs weight vector, which the
public functions would form once each.
"""

import ast
import math
from pathlib import Path

import mpmath
import pytest
from np_oracle import np_log2_beta_binomial
from sanov_oracle import log2_prob_mp

import errexp
from errexp import cli
from errexp import (
    BinaryHypothesis,
    ConstraintSet,
    analytic_log2_error,
    chernoff_log2_error_bound,
    deviation_exact_log2_prob,
    make_distribution,
    sanov_exact_log2_prob,
    stein_errors,
)

PUBLIC = [
    "BinaryHypothesis",
    "ChernoffReport",
    "ConstraintSet",
    "ConvergenceError",
    "DegenerateHypothesisError",
    "DetectionScenario",
    "DiscreteDistribution",
    "EmpiricalType",
    "EnergySystem",
    "InfeasibleError",
    "ResourceCapError",
    "SteinReport",
    "SweepRow",
    "ValidationError",
    "analytic_log2_error",
    "boltzmann_distribution",
    "chernoff_lambda_star",
    "chernoff_log2_error_bound",
    "count_types",
    "deviation_exact_log2_prob",
    "empirical_type",
    "entropy",
    "enumerate_types",
    "kl_divergence",
    "log_factorial",
    "log_partition_function",
    "make_distribution",
    "maxent_verify",
    "mean_energy",
    "q_chernoff_bound",
    "q_function",
    "sanov_exact_log2_prob",
    "sanov_exponent",
    "simulate_detection",
    "solve_beta",
    "stein_errors",
    "stein_region_membership",
    "sweep",
    "type_class_log_prob",
    "type_class_size",
    "type_classes",
]


def test_all_is_the_public_set():
    assert errexp.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(errexp, name) is not None


def test_cli_imports_no_private_probability_code():
    # every private name the CLI imports, from any module: only the kept
    # boltzmann pair
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == [("boltzmann", "_law_and_mean"), ("boltzmann", "_log2_law")]


N = 8000
# P1 = (1/2, 1/2), P2 = (1/4, 3/4): the type (m, n - m) has average log2
# likelihood ratio D(P1||P2) + (m/n - 1/2) log2 3
HYPOTHESIS = BinaryHypothesis(make_distribution([1, 1]), make_distribution([1, 3]))
FAIR = make_distribution([1, 1])


def _log2_of(num: int, log2_den: int) -> float:
    with mpmath.workdps(30):
        return float(mpmath.log(num, 2)) - log2_den


def _kept(n, statistic, keep):
    """The counts m whose 50-digit statistic passes ``keep``; no statistic
    may lie within 1e-9 of the edge, where the library's float test could
    decide it the other way."""
    kept = []
    with mpmath.workdps(50):
        for m in range(n + 1):
            inside, margin = keep(statistic(mpmath.mpf(m) / n))
            assert abs(margin) > 1e-9
            if inside:
                kept.append(m)
    return kept


def _deviation():
    n, delta = 2000, 0.9

    def kl_fair(f):
        return sum(x * mpmath.log(2 * x, 2) for x in (f, 1 - f) if x > 0)

    kept = _kept(n, kl_fair, lambda d: (d >= delta, d - delta))
    want = _log2_of(sum(math.comb(n, m) for m in kept), n)
    return deviation_exact_log2_prob(n, FAIR, delta), want


def _stein_beta():
    delta, log2_3 = 0.05, mpmath.log(3, 2)
    kept = _kept(N, lambda f: abs(f - 0.5) * log2_3, lambda gap: (gap <= delta, gap - delta))
    # P2 mass of (m, n - m) is C(n, m) 3^(n - m) / 4^n
    want = _log2_of(sum(math.comb(N, m) * 3 ** (N - m) for m in kept), 2 * N)
    return stein_errors(HYPOTHESIS, N, delta, 0.05).log2_beta, want


def _neyman_pearson():
    got = stein_errors(HYPOTHESIS, N, 0.05, 0.05).np_log2_beta
    return got, np_log2_beta_binomial(0.5, 0.25, N, 0.05)


def _sanov():
    pi = ConstraintSet("lower", 0, 0.99)
    return sanov_exact_log2_prob(pi, FAIR, 2000), log2_prob_mp(pi, FAIR, 2000)


def _analytic_detection():
    # dim 1 and amplitude 80 put Q's argument at x = 40: log2 Q = -1160.80
    with mpmath.workdps(50):
        want = mpmath.log(mpmath.erfc(40 / mpmath.sqrt(2)) / 2, 2)
    return analytic_log2_error(1, 80.0), float(want)


def _chernoff_detection():
    # exp(-N m^2 / 8) = exp(-800): log2 -1154.17
    with mpmath.workdps(50):
        want = -800 / mpmath.log(2)
    return chernoff_log2_error_bound(1, 80.0), float(want)


@pytest.mark.parametrize(
    "case",
    [_deviation, _stein_beta, _neyman_pearson, _sanov, _analytic_detection, _chernoff_detection],
    ids=["deviation", "stein_beta", "neyman_pearson", "sanov", "analytic_pe", "chernoff_bound"],
)
def test_exact_probabilities_below_the_double_range(case):
    got, want = case()
    assert want < -1074
    assert math.isfinite(got) and got <= 0.0
    assert got == pytest.approx(want, rel=1e-9, abs=0.0)
