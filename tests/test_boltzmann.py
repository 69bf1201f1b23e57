import math

import maxent_oracle
import mpmath
import numpy as np
import pytest
from row_oracle import _enumerate_counts, log2_multinomial

from errexp import (
    DiscreteDistribution,
    EmpiricalType,
    EnergySystem,
    InfeasibleError,
    ValidationError,
    boltzmann_distribution,
    entropy,
    log_partition_function,
    maxent_verify,
    mean_energy,
    solve_beta,
    type_class_size,
)
from errexp import boltzmann
from errexp.dist import LN2, log_factorial_table


class TestPartitionFunction:
    def test_degenerate_pair(self):
        assert log_partition_function(EnergySystem(np.array([0.0, 0.0]), 3.0)) == math.log(2.0)

    def test_two_levels(self):
        ln_z = log_partition_function(EnergySystem(np.array([0.0, 1.0]), math.log(2)))
        assert ln_z == pytest.approx(math.log(1.5), rel=1e-14)

    def test_infinite_temperature_counts_states(self):
        ln_z = log_partition_function(EnergySystem(np.array([0.0, 1.0, 2.0]), 0.0))
        assert ln_z == math.log(3.0)

    def test_large_beta_no_overflow(self):
        ln_z = log_partition_function(EnergySystem(np.array([100.0, 101.0]), 5.0))
        assert ln_z == pytest.approx(math.log1p(math.exp(-5.0)) - 500.0, rel=1e-14)

    @pytest.mark.parametrize("levels", [(1000.0, 1001.0), (-1000.0, -999.0)])
    def test_beyond_the_double_range_matches_mpmath(self, levels):
        # Z is e^-1000 (1 + e^-1), which underflows to 0, and e^1000 (1 +
        # e^-1), which overflows; ln Z is about -+999.69
        ln_z = log_partition_function(EnergySystem(np.array(levels), 1.0))
        with mpmath.workdps(50):
            want = float(mpmath.log(mpmath.fsum(mpmath.exp(-mpmath.mpf(e)) for e in levels)))
        assert ln_z == pytest.approx(want, rel=1e-15)


class TestBoltzmannDistribution:
    def test_uniform_at_beta_zero(self):
        p = boltzmann_distribution(EnergySystem(np.array([0.0, 1.0, 5.0]), 0.0))
        assert np.max(np.abs(p.probs - 1 / 3)) < 1e-12

    def test_two_thirds_one_third(self):
        p = boltzmann_distribution(EnergySystem(np.array([0.0, 1.0]), math.log(2)))
        assert np.allclose(p.probs, [2 / 3, 1 / 3], atol=1e-14)

    def test_ground_state_concentration(self):
        p = boltzmann_distribution(EnergySystem(np.array([0.0, 1.0, 2.0]), 50.0))
        assert p.probs[0] > 1 - 1e-9

    def test_normalization_random(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            k = int(rng.integers(2, 6))
            sys = EnergySystem(rng.uniform(0, 5, k), float(rng.uniform(0, 10)))
            assert abs(float(boltzmann_distribution(sys).probs.sum()) - 1) < 1e-12

    def test_mean_energy_decreases_in_beta(self):
        levels = np.array([0.0, 0.7, 2.0])
        means = [mean_energy(EnergySystem(levels, b)) for b in np.linspace(0, 10, 40)]
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_negative_beta_rejected(self):
        with pytest.raises(ValidationError):
            EnergySystem(np.array([0.0, 1.0]), -1.0)


def _kernel_cases():
    # seeded level sets with negative, repeated and wide-span levels
    rng = np.random.default_rng(2810)
    cases = []
    for _ in range(12):
        levels = np.round(rng.uniform(-5.0, 5.0, int(rng.integers(2, 9))), 3)
        cases.append(np.concatenate([levels, levels[:2]]))
    cases += [
        np.array([-1e300, 0.0, 1e300, 1e300]),
        np.array([-1e150, -1e150, 3.0, 1e150]),
        np.array([-7.25, -7.25, -7.25]),
    ]
    return cases


class TestGibbsKernelBits:
    """The Boltzmann functions take their weights from the shared Gibbs
    kernel, with a flat base over ground-shifted levels, where the largest
    exponent is +-0. They equal the direct formulas below bit for bit."""

    @staticmethod
    def direct(levels, beta):
        ground = float(levels.min())
        w = np.exp(-beta * (levels - ground))
        probs = w / w.sum()
        ln_z = math.log(w.sum()) - beta * ground
        with np.errstate(over="ignore", invalid="ignore"):
            total = float((levels * w).sum())
        if math.isfinite(total):
            mean = total / float(w.sum())
        else:
            mean = ground + float(((levels - ground) * probs).sum())
        gap = entropy(DiscreteDistribution(probs)) * LN2
        gap -= math.log(w.sum()) + beta * float((probs * (levels - ground)).sum())
        return probs, ln_z, mean, gap

    @pytest.mark.parametrize("beta", [0.0, 0.37, 2.5, 40.0])
    @pytest.mark.parametrize("case", range(len(_kernel_cases())))
    def test_equal_to_the_direct_formulas(self, case, beta):
        levels = _kernel_cases()[case]
        sys = EnergySystem(levels, beta)
        probs, ln_z, mean, gap = self.direct(levels, beta)
        assert boltzmann_distribution(sys).probs.tobytes() == probs.tobytes()
        assert log_partition_function(sys).hex() == ln_z.hex()
        assert mean_energy(sys).hex() == mean.hex()
        assert maxent_verify(sys)[1].hex() == gap.hex()

    def test_mean_past_the_double_range(self):
        sys = EnergySystem(np.array([1e308, 1.5e308, 1e308]), 0.0)
        assert mean_energy(sys) == 1.1666666666666667e308

    def test_solve_where_the_weighted_sum_overflows(self):
        assert solve_beta([0, 1.6e308, 1.6e308], 1e308).hex() == "0x0.0d1c3e7c0f326p-1022"


class TestSolveBeta:
    def test_symmetric_midpoint(self):
        assert solve_beta([0, 1], 0.5) == 0.0

    def test_inverts_ln2(self):
        assert solve_beta([0, 1], 1 / 3) == pytest.approx(math.log(2), abs=1e-10)

    def test_cold_target_forward_check(self):
        levels = [0.0, 1.0, 2.0]
        beta = solve_beta(levels, 0.1, tol=1e-12)
        assert beta > 1.0
        assert mean_energy(EnergySystem(np.array(levels), beta)) == pytest.approx(
            0.1, abs=1e-10
        )

    def test_roundtrip(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            levels = np.concatenate([[0.0], np.sort(rng.uniform(0.3, 4, k - 1))])
            beta = float(rng.uniform(0, 20))
            target = mean_energy(EnergySystem(levels, beta))
            assert solve_beta(levels, target) == pytest.approx(beta, abs=1e-8)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
    def test_tolerance_must_be_positive(self, tol):
        # nan <= 0 is False: a nan tolerance solved and returned a beta
        with pytest.raises(ValidationError):
            solve_beta([0, 1, 2], 0.7, tol=tol)

    def test_infeasible_target(self):
        with pytest.raises(InfeasibleError):
            solve_beta([0, 1], 0.9)
        with pytest.raises(InfeasibleError):
            solve_beta([0, 1], 0.0)

    def test_nan_target_is_refused(self):
        # nan fails every comparison: it was reported as an infeasible target
        with pytest.raises(ValidationError):
            solve_beta([0, 1, 2], math.nan)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("exponent", range(60, 301, 20))
    def test_wide_levels_land_on_the_closed_form(self, exponent):
        # on (0, s, 2s) the mean s/2 holds where x = exp(-beta s) solves
        # 3x^2 + x - 1 = 0; from s = 1e60 the root lay below the 2^-200 that
        # a capped bisection reached, and the solve raised ConvergenceError
        s = 10.0**exponent
        beta = solve_beta([0, s, 2 * s], s / 2, tol=1e-12 * s)
        assert beta * s == pytest.approx(-math.log((math.sqrt(13) - 1) / 6), rel=1e-9)
        mean = mean_energy(EnergySystem(np.array([0, s, 2 * s]), beta))
        assert abs(mean - s / 2) <= 1e-15 * s


def _multiplicity_bits(counts):
    """log2 of the multiplicity N! / prod N_j! of an occupancy and its
    Stirling form (N ln N - sum N_j ln N_j) / ln 2: the type-class size of
    the occupancy as an N-type and its upper bound nH."""
    log2_size, _, _, n_h = type_class_size(EmpiricalType(counts, sum(counts)))
    return log2_size, n_h


class TestMultiplicity:
    def test_single_level(self):
        assert _multiplicity_bits((7, 0, 0))[0] == 0.0

    def test_choose(self):
        assert _multiplicity_bits((2, 2))[0] == pytest.approx(math.log2(6))

    def test_multinomial(self):
        assert _multiplicity_bits((1, 2, 3))[0] == pytest.approx(math.log2(60))

    def test_stirling_balanced_pair(self):
        exact, stirling = _multiplicity_bits((500, 500))
        assert stirling == pytest.approx(1000.0, rel=1e-12)
        assert abs(stirling - exact) / exact < 0.01

    def test_stirling_zero_convention(self):
        assert _multiplicity_bits((5, 0))[1] == 0.0

    def test_stirling_three_levels(self):
        exact, stirling = _multiplicity_bits((100, 200, 300))
        assert abs(stirling - exact) / exact < 0.02

    def test_stirling_relative_error_random(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            counts = tuple(int(c) for c in rng.integers(100, 2000, rng.integers(2, 6)))
            exact, stirling = _multiplicity_bits(counts)
            if exact == 0.0:
                continue
            assert abs(stirling - exact) / exact < 0.01


def gibbs_bound(sys):
    """ln Z + beta * U relative to the ground level, in nats."""
    shifted = sys.levels - sys.levels.min()
    p = boltzmann_distribution(sys).probs
    return math.log(float(np.exp(-sys.beta * shifted).sum())) + sys.beta * float(p @ shifted)


def assert_certified(sys):
    ok, gap = maxent_verify(sys)
    assert ok
    assert abs(gap) <= 1e-13 * max(1.0, gibbs_bound(sys))


class TestMaxentVerify:
    # each case runs the sampler of maxent_oracle on the draws it always used
    # and the library's duality-gap certificate on the same system

    def test_two_levels_vacuous(self):
        sys = EnergySystem(np.array([0.0, 1.0]), 1.0)
        ok, excess = maxent_oracle.maxent_verify(sys, 100, 0)
        assert ok and excess == 0.0
        assert_certified(sys)

    def test_three_levels(self):
        sys = EnergySystem(np.array([0.0, 1.0, 2.0]), 1.0)
        ok, excess = maxent_oracle.maxent_verify(sys, 10_000, 3)
        assert ok and excess <= 0.0
        assert_certified(sys)

    def test_four_levels(self):
        sys = EnergySystem(np.array([0.0, 1.0, 2.0, 3.0]), 0.5)
        ok, excess = maxent_oracle.maxent_verify(sys, 10_000, 4)
        assert ok and excess <= 0.0
        assert_certified(sys)

    def test_deterministic_in_seed(self):
        sys = EnergySystem(np.array([0.0, 0.5, 2.0]), 0.7)
        assert maxent_oracle.maxent_verify(sys, 500, 9) == maxent_oracle.maxent_verify(
            sys, 500, 9
        )
        assert maxent_verify(sys) == maxent_verify(sys)

    def test_certificate_over_seeded_systems(self):
        # k = 2..39 levels at scales 1e-6, 1 and 1e3, offsets of either sign,
        # some degenerate levels, and beta from 0 to 1e6
        rng = np.random.default_rng(31)
        for i in range(10_000):
            k = int(rng.integers(2, 40))
            scale = (1e-6, 1.0, 1e3)[i % 3]
            levels = scale * (rng.uniform(0.0, 5.0, k) + rng.uniform(-10.0, 10.0))
            if i % 7 == 0:
                levels = np.round(levels / scale) * scale
            beta = 0.0 if i % 10 == 0 else float(10.0 ** rng.uniform(-3.0, 6.0))
            assert_certified(EnergySystem(levels, beta))

    def test_wrong_law_fails_the_certificate(self, monkeypatch):
        # the law at 1.01 beta has mean U' != U, and its gap is -D(p'||p_beta)
        sys = EnergySystem(np.array([0.0, 1.0, 2.0, 3.0]), 1.0)
        right = boltzmann.boltzmann_distribution
        monkeypatch.setattr(
            boltzmann,
            "boltzmann_distribution",
            lambda s: right(EnergySystem(s.levels, 1.01 * s.beta)),
        )
        ok, gap = maxent_verify(sys)
        assert not ok and gap < 0.0
        assert abs(gap) > 1e-13 * max(1.0, gibbs_bound(sys))


# integer levels of the finite-N check
OCCUPANCY_LEVELS = [(0, 1, 2), (0, 1, 2, 3), (0, 1, 3, 4), (0, 2, 3, 5, 6)]


@pytest.mark.parametrize("levels", OCCUPANCY_LEVELS)
@pytest.mark.parametrize("fraction", [0.5, 0.8])
def test_most_probable_occupancy_is_boltzmann(levels, fraction):
    # the paper's derivation: at fixed N and total energy E the occupancy of
    # largest multiplicity N!/prod N_j! approaches N times the Boltzmann law
    # at the beta whose mean energy is E/N (the conditional limit theorem)
    eps = np.asarray(levels)
    for n in (10, 20, 40, 60):
        energy = round(fraction * eps.mean() * n)
        counts = _enumerate_counts(n, eps.size, cap=10**6)
        counts = counts[counts @ eps == energy]
        log2_mult = log2_multinomial(counts, log_factorial_table(n))
        best = counts[log2_mult >= log2_mult.max() - 1e-9]
        law = boltzmann_distribution(EnergySystem(eps, solve_beta(eps, energy / n)))
        assert np.abs(best - n * law.probs).max() <= 2.0
