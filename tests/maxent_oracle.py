"""The randomized maximum-entropy check, kept as the reference for the certificate.

``errexp.boltzmann.maxent_verify`` certifies the maximum with Gibbs' duality
gap. The function here is the sampler it replaced: it draws random feasible
perturbations of the Boltzmann law inside {q >= 0, sum q = 1, sum eps*q =
mean} and checks that none has a larger entropy. Its heuristics (the 1e-4
spread shortcut, the 5% sliver filter, the stall limit) are kept as they
were, so the tests compare against the same draws as before.
"""

from __future__ import annotations

import math

import numpy as np

from errexp import ConvergenceError, EnergySystem, ValidationError, boltzmann_distribution


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
