"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import math
import time

import mpmath
import numpy as np

from errexp import (
    BinaryHypothesis,
    ConstraintSet,
    EmpiricalType,
    EnergySystem,
    chernoff_lambda_star,
    count_types,
    deviation_exact_log2_prob,
    enumerate_types,
    kl_divergence,
    make_distribution,
    maxent_verify,
    mean_energy,
    q_chernoff_bound,
    q_function,
    sanov_exact_log2_prob,
    sanov_exponent,
    solve_beta,
    stein_errors,
    sweep,
    type_class_log_prob,
    type_class_size,
)
import maxent_oracle
from np_oracle import (
    berry_esseen_gap_bounds,
    np_log2_beta_binomial,
    stein_moments,
    strassen_gap,
)
from test_boltzmann import gibbs_bound

_LN2 = math.log(2.0)

D_SANOV = 0.18872187554086717


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def _grid_min_kl(p1: np.ndarray, p2: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """min(D(P_lam||p1), D(P_lam||p2)) on a lambda grid, plain NumPy."""
    l1 = np.log(p1)
    l2 = np.log(p2)
    logw = np.outer(lams, l1) + np.outer(1.0 - lams, l2)
    w = np.exp(logw)
    z = w.sum(axis=1)
    p = w / z[:, None]
    lnp = logw - np.log(z)[:, None]
    d1 = (p * (lnp - l1)).sum(axis=1) / _LN2
    d2 = (p * (lnp - l2)).sum(axis=1) / _LN2
    return np.minimum(d1, d2)


def _grid_search_c_info(p1: np.ndarray, p2: np.ndarray, step: float = 1e-6) -> float:
    """Grid-search oracle: coarse pass localizes the unimodal peak, fine
    pass at the requested step resolves it."""
    coarse = np.arange(1e-3, 1.0, 1e-3)
    peak = coarse[int(np.argmax(_grid_min_kl(p1, p2, coarse)))]
    lo = max(step, peak - 2e-3)
    hi = min(1.0 - step, peak + 2e-3)
    fine = np.arange(lo, hi, step)
    return float(_grid_min_kl(p1, p2, fine).max())


def test_criterion_01_chernoff_equalization_and_grid_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_eq = 0.0
    worst_grid = 0.0
    for _ in range(500):
        k = int(rng.integers(2, 5))
        # the probability floor keeps the kink slope of min(d1, d2) at
        # lambda* below ~2 bits, so a step-1e-6 grid resolves the peak
        # to better than 1e-6
        p1 = make_distribution(rng.uniform(0.1, 1.0, k))
        p2 = make_distribution(rng.uniform(0.1, 1.0, k))
        if np.max(np.abs(p1.probs - p2.probs)) < 1e-9:
            continue
        report = chernoff_lambda_star(BinaryHypothesis(p1, p2))
        worst_eq = max(worst_eq, abs(report.d1 - report.d2))
        grid = _grid_search_c_info(p1.probs, p2.probs)
        worst_grid = max(worst_grid, abs(grid - report.c_info))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst_eq <= 1e-9 and worst_grid <= 1e-6 and elapsed < 30.0,
        f"max |d1-d2|={worst_eq:.2e}, max grid gap={worst_grid:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_symmetric_chernoff_instance():
    p1 = make_distribution([0.25, 0.75])
    p2 = make_distribution([0.75, 0.25])
    report = chernoff_lambda_star(BinaryHypothesis(p1, p2))
    # P_1/2 is the normalized geometric mean sqrt(p1 p2)
    oracle = kl_divergence(make_distribution(np.sqrt(p1.probs * p2.probs)), p1)
    ok = (
        abs(report.lambda_star - 0.5) <= 1e-9
        and abs(report.c_info - 0.207519) <= 1e-6
        and abs(report.c_info - oracle) <= 1e-9
    )
    _report(2, ok, f"lambda*={report.lambda_star:.12f}, c_info={report.c_info:.9f}")


def test_criterion_03_stein_exponent_convergence():
    # -(1/n) log2 beta converges to D from below; the gap D + (1/n) log2 beta
    # is checked against the exact optimum and the Berry-Esseen sandwich,
    # since Strassen's sqrt(V/n) Q^-1(eps) term keeps it near 0.026 at n=2000
    p1, p2, eps = np.array([0.5, 0.5]), np.array([0.25, 0.75]), 0.05
    h = BinaryHypothesis(make_distribution(p1), make_distribution(p2))
    d, v, rho = stein_moments(p1, p2)
    elapsed = 0.0
    worst_rel = 0.0
    gaps = []
    inside = True
    details = []
    for n in (100, 500, 2000):
        start = time.perf_counter()
        # the Stein band is computed alongside; its delta is arbitrary here
        log2_beta = stein_errors(h, n, 0.1, eps).np_log2_beta
        elapsed += time.perf_counter() - start
        oracle = np_log2_beta_binomial(p1[0], p2[0], n, eps)
        worst_rel = max(worst_rel, abs(log2_beta - oracle) / abs(oracle))
        gap = d + log2_beta / n
        lower, upper = berry_esseen_gap_bounds(v, rho, n, eps)
        inside = inside and lower <= gap <= upper
        gaps.append(gap)
        details.append(
            f"gap(n={n})={gap:.4f} in [{lower:.4f}, {upper:.4f}], "
            f"Strassen {strassen_gap(v, n, eps):.4f}"
        )
    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    _report(
        3,
        worst_rel <= 1e-9 and inside and decreasing and elapsed < 10.0,
        "; ".join(details) + f"; oracle rel err {worst_rel:.1e}, {elapsed:.1f}s",
    )


def test_criterion_04_method_of_types_oracle_equivalence():
    worst_prob = 0.0
    rng = np.random.default_rng(1004)
    for k in (2, 3):
        for n in range(1, 9):
            q = make_distribution(rng.uniform(0.05, 1.0, k))
            sizes = {}
            probs = {}
            for seq in itertools.product(range(k), repeat=n):
                counts = tuple(seq.count(a) for a in range(k))
                sizes[counts] = sizes.get(counts, 0) + 1
                probs[counts] = probs.get(counts, 0.0) + float(
                    np.prod(q.probs[list(seq)])
                )
            for t in enumerate_types(n, k):
                assert type_class_size(t)[1] == sizes[t.counts]
                worst_prob = max(
                    worst_prob,
                    abs(2.0 ** type_class_log_prob(t, q) - probs[t.counts]),
                )
    counts_ok = all(
        len(enumerate_types(n, k)) == count_types(n, k)
        for n in range(1, 51)
        for k in range(1, 5)
    )
    _report(
        4,
        worst_prob <= 1e-10 and counts_ok,
        f"max prob gap={worst_prob:.2e}, lemma-1 counts {'ok' if counts_ok else 'bad'}",
    )


def test_criterion_05_bound_sandwiches_randomized_suite():
    rng = np.random.default_rng(1005)
    instances = 0
    violations = 0
    for _ in range(150):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(2, 31))
        q = make_distribution(rng.uniform(0.05, 1.0, k))
        c = count_types(n, k)
        types = enumerate_types(n, k)
        for t in types:
            instances += 1
            log2_size, _, lower, upper = type_class_size(t)
            if not lower - 1e-9 <= log2_size <= upper + 1e-9:
                violations += 1
            d = kl_divergence(t.distribution(), q)
            lp = type_class_log_prob(t, q)
            if not (-n * d - math.log2(c) - 1e-9 <= lp <= -n * d + 1e-9):
                violations += 1
        delta = float(rng.uniform(0.01, 1.0))
        instances += 1
        if 2.0 ** deviation_exact_log2_prob(n, q, delta) > c * 2.0 ** (-n * delta) * (
            1 + 1e-12
        ):
            violations += 1
        pi = ConstraintSet(
            "lower" if rng.random() < 0.5 else "upper",
            int(rng.integers(0, k)),
            float(rng.uniform(0.0, 1.0)),
        )
        d_star, _ = sanov_exponent(pi, q, n)
        prob = 2.0 ** sanov_exact_log2_prob(pi, q, n)
        instances += 1
        if not (
            2.0 ** (-n * d_star) / c * (1 - 1e-9)
            <= prob
            <= c * 2.0 ** (-n * d_star) * (1 + 1e-9)
        ):
            violations += 1
    _report(
        5,
        instances >= 10_000 and violations == 0,
        f"{instances} instances, {violations} violations",
    )


def test_criterion_06_sanov_convergence():
    p = make_distribution([0.5, 0.5])
    pi = ConstraintSet("lower", 1, 0.75)
    rate10 = -sanov_exact_log2_prob(pi, p, 10) / 10
    exact10 = math.log2(1024 / 56) / 10
    rate400 = -sanov_exact_log2_prob(pi, p, 400) / 400
    ok = abs(rate10 - exact10) <= 1e-12 and abs(rate400 - 0.188722) <= 0.03
    _report(6, ok, f"rate(n=10)={rate10:.12f}, rate(n=400)={rate400:.6f}")


def test_criterion_07_boltzmann_roundtrip_and_maxent():
    start = time.perf_counter()
    rng = np.random.default_rng(1007)
    worst_beta = 0.0
    worst_excess = -math.inf
    worst_gap = 0.0
    for _ in range(20):
        k = int(rng.integers(3, 7))
        levels = np.concatenate([[0.0], np.sort(rng.uniform(0.3, 4.0, k - 1))])
        beta = float(rng.uniform(0.0, 20.0))
        sys = EnergySystem(levels, beta)
        recovered = solve_beta(levels, mean_energy(sys))
        worst_beta = max(worst_beta, abs(recovered - beta))
        ok_sys, excess = maxent_oracle.maxent_verify(sys, 10_000, int(rng.integers(0, 2**32)))
        assert ok_sys
        worst_excess = max(worst_excess, excess)
        certified, gap = maxent_verify(sys)
        assert certified
        worst_gap = max(worst_gap, abs(gap) / max(1.0, gibbs_bound(sys)))
    elapsed = time.perf_counter() - start
    ok = worst_beta <= 1e-8 and worst_excess <= 0.0 and worst_gap <= 1e-13 and elapsed < 20.0
    _report(
        7,
        ok,
        f"max |beta gap|={worst_beta:.2e}, max entropy excess={worst_excess:.2e}, "
        f"max relative duality gap={worst_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_08_stirling_accounting():
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 7))
        # the multiplicity N! / prod N_j! and its Stirling form, both in bits
        counts = tuple(int(c) for c in rng.integers(100, 5000, k))
        exact, _, _, stirling = type_class_size(EmpiricalType(counts, sum(counts)))
        worst = max(worst, abs(stirling - exact) / exact)
    _report(8, worst < 0.01, f"max relative error={worst:.4f}")


def test_criterion_09_detection_figure_reproduction():
    start = time.perf_counter()
    rows = sweep([1, 4], [1, 2, 3, 4, 5, 6], trials=1_000_000, seed=42)
    mc_ok = all(
        abs(r.empirical_pe - r.analytic_pe)
        <= 4 * math.sqrt(r.analytic_pe * (1 - r.analytic_pe) / r.trials)
        for r in rows
    )
    bound_ok = all(r.analytic_pe <= r.chernoff_bound for r in rows)
    # the two analytic error measures decrease strictly in m within each dim
    mono_ok = True
    for dim in (1, 4):
        cells = [r for r in rows if r.dim == dim]
        mono_ok &= all(
            a.analytic_pe > b.analytic_pe and a.chernoff_bound > b.chernoff_bound
            for a, b in zip(cells, cells[1:])
        )
    elapsed = time.perf_counter() - start
    ok = mc_ok and bound_ok and mono_ok and len(rows) == 12 and elapsed < 60.0
    _report(
        9,
        ok,
        f"mc={'ok' if mc_ok else 'bad'}, bound={'ok' if bound_ok else 'bad'}, "
        f"monotone={'ok' if mono_ok else 'bad'}, {elapsed:.1f}s",
    )


def test_criterion_10_q_function_accuracy():
    worst = 0.0
    for x in (0.0, 0.5, 1.0, 2.0, 3.0, 4.0):
        with mpmath.workdps(30):
            oracle = float(
                mpmath.quad(
                    lambda t: mpmath.exp(-t * t / 2) / mpmath.sqrt(2 * mpmath.pi),
                    [x, mpmath.inf],
                )
            )
        worst = max(worst, abs(q_function(x) - oracle) / oracle)
    grid_ok = all(
        q_function(float(x)) <= q_chernoff_bound(float(x))
        for x in np.linspace(0.0, 8.0, 10_000)
    )
    _report(
        10,
        worst <= 1e-10 and grid_ok,
        f"max relative error={worst:.2e}, bound grid {'ok' if grid_ok else 'bad'}",
    )
