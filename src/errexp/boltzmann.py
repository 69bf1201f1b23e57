"""Maximum-entropy occupation of discrete energy levels.

This module works in natural-log units (physics convention); the
hypothesis-testing modules use bits. Energies are dimensionless multiples of
a caller-chosen unit: beta carries 1/(kB*T) as a single number, so the
Boltzmann constant never appears explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import DiscreteDistribution, _solve_tilt, log_factorial
from .errors import ConvergenceError, InfeasibleError, ValidationError


@dataclass(frozen=True)
class EnergySystem:
    """Discrete energy levels at a fixed inverse temperature.

    Negative beta (population inversion) is out of scope; the derivation
    assumes equilibrium.
    """

    levels: np.ndarray
    beta: float

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=np.float64).copy()
        if levels.ndim != 1 or levels.size < 2:
            raise ValidationError("need at least 2 energy levels")
        if not np.all(np.isfinite(levels)):
            raise ValidationError("energy levels must be finite")
        if not np.isfinite(self.beta) or self.beta < 0:
            raise ValidationError("beta must be finite and >= 0")
        levels.flags.writeable = False
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "beta", float(self.beta))


@dataclass(frozen=True)
class Occupancy:
    """Integer particle counts per energy level."""

    counts: tuple

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if len(counts) < 1 or any(c < 0 for c in counts):
            raise ValidationError("counts must be nonnegative integers")
        if sum(counts) < 1:
            raise ValidationError("at least one particle required")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return sum(self.counts)


def partition_function(sys: EnergySystem) -> float:
    """Z = sum_j exp(-beta * eps_j), max-shifted for overflow safety."""
    ground = float(sys.levels.min())
    shifted = -sys.beta * (sys.levels - ground)
    return float(np.exp(shifted).sum() * math.exp(-sys.beta * ground))


def _level_weights(levels: np.ndarray, beta: float) -> np.ndarray:
    # shift by the ground level so the largest exponent is exactly 0
    return np.exp(-beta * (levels - levels.min()))


def boltzmann_distribution(sys: EnergySystem) -> DiscreteDistribution:
    """P_j = exp(-beta * eps_j) / Z; degenerate levels split mass equally."""
    w = _level_weights(sys.levels, sys.beta)
    return DiscreteDistribution(w / w.sum())


def mean_energy(sys: EnergySystem) -> float:
    """Average energy under the Boltzmann occupation."""
    w = _level_weights(sys.levels, sys.beta)
    return float((sys.levels * w).sum() / w.sum())


def solve_beta(levels, target_mean: float, tol: float = 1e-10) -> float:
    """Invert the mean-energy curve: find beta >= 0 matching target_mean.

    Mean energy decreases strictly in beta from the arithmetic mean of the
    levels (beta = 0) toward the ground level, so the target must lie in
    (min level, arithmetic mean]. A target within ``tol`` of that mean gives
    beta = 0; any other is solved by the tilt solver that Chernoff's lam* uses.
    """
    if tol <= 0:
        raise ValidationError("tolerance must be positive")
    levels = np.asarray(levels, dtype=np.float64)
    uniform_mean = mean_energy(EnergySystem(levels, 0.0))
    lo_energy = float(levels.min())
    if not lo_energy < target_mean <= uniform_mean:
        raise InfeasibleError(
            f"target mean {target_mean} outside ({lo_energy}, {uniform_mean}]"
        )

    # work relative to the ground level: at large beta the mean sits a hair
    # above min(levels), and the shifted form keeps that hair at full
    # relative precision instead of losing it to cancellation
    shifted = levels - lo_energy
    shifted_target = target_mean - lo_energy

    # this shortcut stays out of the shared solver: a Chernoff tilt between
    # nearly equal laws starts within tol of its target, yet its root is near 1/2
    if abs(shifted.mean() - shifted_target) <= tol:
        return 0.0
    return _solve_tilt(0.0, shifted, shifted_target, tol)


def log_multiplicity_exact(occ: Occupancy) -> float:
    """ln of the number of microstates N!/(prod N_j!)."""
    return log_factorial(occ.total) - sum(log_factorial(c) for c in occ.counts)


def log_multiplicity_stirling(occ: Occupancy) -> float:
    """Stirling form N ln N - sum N_j ln N_j (the linear terms cancel)."""
    n = occ.total
    acc = n * math.log(n)
    for c in occ.counts:
        if c > 0:
            acc -= c * math.log(c)
    return acc


def _nats_entropy(rows: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(rows > 0, rows * np.log(np.maximum(rows, 1e-300)), 0.0)
    return -terms.sum(axis=1)


def maxent_verify(sys: EnergySystem, trials: int, seed: int):
    """Check that no same-mean distribution beats the Boltzmann entropy.

    Draws ``trials`` random feasible perturbations inside the affine
    subspace {q >= 0, sum q = 1, sum eps*q = mean}, rejecting draws that
    leave the simplex. Returns (ok, max_excess): ok is True when every draw
    has natural-log entropy <= Boltzmann entropy + 1e-12, and max_excess is
    the largest entropy excess observed (expected <= 0). With fewer than 3
    levels the subspace is a point and the result is vacuously (True, 0.0).

    Perturbations smaller than ~1e-7 in L2 change the entropy by less than
    double-precision rounding noise, so the comparison would report noise
    rather than a sign; draws are therefore kept away from that floor, and
    when the entire feasible set is that small (nearly all mass frozen onto
    the ground level) the check is again vacuously (True, 0.0).
    """
    if trials < 1:
        raise ValidationError("trials must be positive")
    k = sys.levels.size
    if k < 3:
        return True, 0.0

    p = boltzmann_distribution(sys).probs
    h_star = float(_nats_entropy(p[None, :])[0])

    # the feasible polytope's diameter is of the order of the mass sitting
    # above the ground level; below ~1e-4 no perturbation is resolvable
    spread = 1.0 - float(p.max())
    if spread < 1e-4:
        return True, 0.0

    # orthonormal basis of the nullspace of [1; eps]
    constraints = np.vstack([np.ones(k), sys.levels])
    _, s, vt = np.linalg.svd(constraints)
    rank = int((s > 1e-12 * s.max()).sum())
    basis = vt[rank:]
    if basis.shape[0] == 0:
        return True, 0.0

    rng = np.random.default_rng(seed)
    max_excess = -math.inf
    collected = 0
    stalls = 0
    while collected < trials:
        if stalls > 1000:
            raise ConvergenceError(
                "could not sample resolvable feasible perturbations"
            )
        batch = min(trials - collected + 16, trials)
        coeffs = rng.standard_normal((batch, basis.shape[0]))
        dirs = coeffs @ basis
        norms = np.linalg.norm(dirs, axis=1)
        dirs = dirs[norms > 0] / norms[norms > 0, None]
        # largest step keeping every coordinate nonnegative; stepping a
        # fraction of it lands inside the simplex even when the Boltzmann
        # point sits near a corner
        with np.errstate(divide="ignore"):
            ratios = np.where(dirs < 0, p[None, :] / np.maximum(-dirs, 1e-300), np.inf)
        t_max = ratios.min(axis=1)
        # drop directions whose feasible segment is a sliver of the
        # polytope: the entropy change along them drowns in rounding
        keep = t_max >= 0.05 * spread
        dirs = dirs[keep]
        t_max = t_max[keep]
        if dirs.shape[0] == 0:
            stalls += 1
            continue
        scales = rng.uniform(0.1, 1.0, size=dirs.shape[0]) * t_max
        q = p[None, :] + scales[:, None] * dirs
        feasible = np.all(q >= 0.0, axis=1) & (np.abs(q.sum(axis=1) - 1.0) < 1e-9)
        q = q[feasible]
        if q.shape[0] == 0:
            stalls += 1
            continue
        stalls = 0
        q = q[: trials - collected]
        collected += q.shape[0]
        excess = float((_nats_entropy(q) - h_star).max())
        max_excess = max(max_excess, excess)
    return max_excess <= 1e-12, max_excess
