import math

import maxent_oracle
import mpmath
import numpy as np
import pytest
from row_oracle import _enumerate_counts, log2_multinomial

from errexp import (
    EnergySystem,
    InfeasibleError,
    Occupancy,
    ValidationError,
    boltzmann_distribution,
    log_multiplicity_exact,
    log_multiplicity_stirling,
    log_partition_function,
    maxent_verify,
    mean_energy,
    solve_beta,
)
from errexp import boltzmann
from errexp.dist import log_factorial_table


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


class TestMultiplicity:
    def test_single_level(self):
        assert log_multiplicity_exact(Occupancy((7, 0, 0))) == 0.0

    def test_choose(self):
        assert log_multiplicity_exact(Occupancy((2, 2))) == pytest.approx(math.log(6))

    def test_multinomial(self):
        assert log_multiplicity_exact(Occupancy((1, 2, 3))) == pytest.approx(
            math.log(60)
        )

    def test_stirling_balanced_pair(self):
        occ = Occupancy((500, 500))
        stirling = log_multiplicity_stirling(occ)
        exact = log_multiplicity_exact(occ)
        assert stirling == pytest.approx(1000 * math.log(2), rel=1e-12)
        assert abs(stirling - exact) / exact < 0.01

    def test_stirling_zero_convention(self):
        assert log_multiplicity_stirling(Occupancy((5, 0))) == 0.0

    def test_stirling_three_levels(self):
        occ = Occupancy((100, 200, 300))
        exact = log_multiplicity_exact(occ)
        assert abs(log_multiplicity_stirling(occ) - exact) / exact < 0.02

    def test_stirling_relative_error_random(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            counts = tuple(int(c) for c in rng.integers(100, 2000, rng.integers(2, 6)))
            occ = Occupancy(counts)
            exact = log_multiplicity_exact(occ)
            if exact == 0.0:
                continue
            assert abs(log_multiplicity_stirling(occ) - exact) / exact < 0.01


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
