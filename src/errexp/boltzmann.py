"""Maximum-entropy occupation of discrete energy levels.

This module works in natural-log units (physics convention); the
hypothesis-testing modules use bits. Energies are dimensionless multiples of
a caller-chosen unit: beta carries 1/(kB*T) as a single number, so the
Boltzmann constant never appears explicitly.

The Boltzmann law is the maximum-entropy law at its mean energy U, the same
Gibbs law as Chernoff's tilt: its weights come from ``dist._gibbs_weights``
with a flat base over the ground-shifted levels, and ``solve_beta`` uses the
tilt solver of ``chernoff_lambda_star``. Gibbs' inequality
H(q) <= ln Z + beta * U, for every q with mean U, certifies that exactly:
``maxent_verify`` checks that the computed law closes the gap to within
1e-13 relative.

An occupancy of the levels by N particles is an ``EmpiricalType``, and its
multiplicity N! / prod N_j! the type-class size: ``type_class_size`` gives
it in bits, with the Stirling form N ln N - sum N_j ln N_j as nH bits.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .dist import _SHORT_SUM, LN2, DiscreteDistribution, _gibbs_weights, _solve_tilt
from .dist import _sum_floats, _tilt_error_bound, _tilt_floats, _weighted_mean, entropy
from .errors import InfeasibleError, ValidationError

# relative tolerance of the Gibbs duality gap; its rounding stays below 1e-15
_GAP_RTOL = 1e-13


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
        _checked_levels(levels)
        if not np.isfinite(self.beta) or self.beta < 0:
            raise ValidationError("beta must be finite and >= 0")
        levels.flags.writeable = False
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "beta", float(self.beta))


def _checked_levels(levels: np.ndarray):
    """EnergySystem's checks; the float64 levels, a list below ``_SHORT_SUM``."""
    if levels.ndim != 1 or levels.size < 2:
        raise ValidationError("need at least 2 energy levels")
    short = levels.size < _SHORT_SUM
    if short:
        levels = levels.tolist()
    if not (all(map(math.isfinite, levels)) if short else np.all(np.isfinite(levels))):
        raise ValidationError("energy levels must be finite")
    # the weights are taken relative to the ground level; Python floats
    # overflow to inf here without NumPy's warning
    span = max(levels) - min(levels) if short else float(levels.max()) - float(levels.min())
    if math.isinf(span):
        raise ValidationError("energy levels must span less than the double range")
    return levels


@np.errstate(over="ignore")
def _level_weights(sys: EnergySystem) -> np.ndarray:
    # the Gibbs weights over the ground-shifted levels: the ground level's is
    # exactly 1, and one whose exponent passes the double range exactly 0
    return _gibbs_weights(0.0, sys.levels - sys.levels.min(), sys.beta)


def _log2_law(sys: EnergySystem) -> np.ndarray:
    # log2 P_j: the Gibbs log weights of _level_weights less the ground-shifted
    # ln Z, in bits, finite where P_j underflows; -inf where
    # beta * (eps_j - ground) / ln 2 passes the double range
    with np.errstate(over="ignore"):
        log_w = -sys.beta * (sys.levels - sys.levels.min())
        return (log_w - math.log(_level_weights(sys).sum())) / LN2


def log_partition_function(sys: EnergySystem) -> float:
    """ln Z = ln sum_j exp(-beta * eps_j), in nats: the log of the
    ground-shifted sum, less beta times the ground level, so it stays finite
    where Z itself would underflow or overflow."""
    return math.log(_level_weights(sys).sum()) - sys.beta * float(sys.levels.min())


def boltzmann_distribution(sys: EnergySystem) -> DiscreteDistribution:
    """P_j = exp(-beta * eps_j) / Z; degenerate levels split mass equally."""
    return DiscreteDistribution(_law_and_mean(sys)[0])


def mean_energy(sys: EnergySystem) -> float:
    """Average energy under the Boltzmann occupation; where the levels'
    weighted sum overflows, it is taken above the ground level."""
    return _law_and_mean(sys)[1]


def _law_and_mean(sys: EnergySystem) -> tuple[list, float]:
    # the Boltzmann law and its mean energy from one Gibbs weight vector
    if sys.levels.size >= _SHORT_SUM:
        w = _level_weights(sys)
        z = w.sum()
        with np.errstate(over="ignore", invalid="ignore"):
            return (w / z).tolist(), _weighted_mean(sys.levels, w, z)
    levels = sys.levels.tolist()
    ground = min(levels)
    w = _gibbs_weights([0.0] * len(levels), [e - ground for e in levels], sys.beta)
    z = _sum_floats(w)
    return [x / z for x in w], _weighted_mean(levels, w, z)


def solve_beta(levels, target_mean: float) -> float:
    """Invert the mean-energy curve: find beta >= 0 matching target_mean.

    Mean energy decreases strictly in beta from the arithmetic mean of the
    levels (beta = 0) toward the ground level, so the target must lie in
    (min level, arithmetic mean]; a NaN target is refused as invalid. A
    target less than twice the mean's rounding bound below the solver's
    mean at beta = 0 gives beta = 0; any other is certified by the tilt
    solver that Chernoff's lam* uses.
    """
    levels = _checked_levels(np.asarray(levels, dtype=np.float64))
    short = isinstance(levels, list)
    # work relative to the ground level: at large beta the mean sits a hair
    # above min(levels), and the shifted form keeps that hair at full
    # relative precision instead of losing it to cancellation. NumPy's
    # minimum keeps the last of equal entries, -0.0 or 0.0, as reversed does
    lo_energy = min(reversed(levels)) if short else float(levels.min())
    shifted = [e - lo_energy for e in levels] if short else levels - lo_energy
    ones, size = [1.0] * len(levels) if short else 1.0, float(len(levels))
    with contextlib.nullcontext() if short else np.errstate(over="ignore", invalid="ignore"):
        uniform_mean = _weighted_mean(levels, ones, size)
        flat_mean = _weighted_mean(shifted, ones, size)
    if math.isnan(target_mean):
        raise ValidationError("target mean must be a number")
    if not lo_energy < target_mean <= uniform_mean:
        raise InfeasibleError(
            f"target mean {target_mean} outside ({lo_energy}, {uniform_mean}]"
        )

    shifted_target = target_mean - lo_energy
    # against the solver's own beta = 0 mean; this shortcut stays out of the
    # shared solver: a Chernoff tilt between nearly equal laws starts within
    # rounding of its target, yet its root is near 1/2
    if flat_mean - shifted_target <= 2.0 * _tilt_error_bound(*_tilt_floats(0.0, shifted))[0]:
        return 0.0
    return _solve_tilt(0.0, shifted, shifted_target)[0]


def maxent_verify(sys: EnergySystem) -> tuple[bool, float]:
    """Certify that the Boltzmann law has the largest entropy at its mean energy.

    Gibbs' inequality: every q on the levels with mean energy U has
    H(q) <= ln Z + beta * U (nats), with equality only at the Boltzmann law
    p_beta. For the computed law p* the duality gap
    H(p*) - (ln Z + beta * U) is therefore -D(p*||p_beta) <= 0 in exact
    arithmetic, and 0 only when p* is the Boltzmann law at beta. Z and U
    are taken relative to the ground level, Z from the Gibbs weights at beta
    and U from the law under test.

    Returns (ok, gap): ok is True when |gap| <= 1e-13 * max(1, ln Z + beta*U),
    a bound far above the rounding of the three terms.
    """
    law = boltzmann_distribution(sys)
    ground_energy = sys.levels - sys.levels.min()
    bound = math.log(_level_weights(sys).sum())
    bound += sys.beta * float((law.probs * ground_energy).sum())
    gap = entropy(law) * LN2 - bound
    return abs(gap) <= _GAP_RTOL * max(1.0, bound), gap
