"""Gaussian binary detection: Q-function analytics and Monte Carlo.

The received vector is r = s_i + n with s_1 = (m,...,m), s_2 = (0,...,0) and
unit Gaussian noise. The minimum-distance rule thresholds the sufficient
statistic sum(r) at N*m/2 (equal priors), giving the analytic error
probability Q(sqrt(N)*m/2) and its Chernoff bound exp(-N*m^2/8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import count_detection_errors
from .errors import ValidationError

_SQRT2 = math.sqrt(2.0)

# fixed chunk size keeps per-chunk RNG streams (and therefore results)
# independent of how chunks are scheduled
_CHUNK = 1 << 17

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class DetectionScenario:
    """One cell of the detection experiment."""

    dim: int
    amplitude: float
    trials: int
    seed: int

    def __post_init__(self):
        if self.dim < 1 or self.trials < 1:
            raise ValidationError("dim and trials must be positive")
        if self.amplitude < 0 or not math.isfinite(self.amplitude):
            raise ValidationError("amplitude must be finite and >= 0")
        if not 0 <= self.seed <= _MASK64:
            raise ValidationError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class SweepRow:
    dim: int
    amplitude: float
    analytic_pe: float
    chernoff_bound: float
    empirical_pe: float
    trials: int


def q_function(x: float) -> float:
    """Standard normal tail probability Q(x) = 0.5 * erfc(x / sqrt 2).

    The tail-integral definition differs from the erf form sometimes quoted
    alongside it; the erfc identity is the consistent one and is accurate to
    better than 1e-12 relative over |x| <= 8.
    """
    if not math.isfinite(x):
        raise ValidationError("x must be finite")
    return 0.5 * math.erfc(x / _SQRT2)


def q_chernoff_bound(x: float) -> float:
    """exp(-x^2 / 2), an upper bound on Q(x) for x >= 0."""
    if x < 0:
        raise ValidationError("the Chernoff bound on Q requires x >= 0")
    return math.exp(-0.5 * x * x)


def analytic_error(dim: int, amplitude: float) -> float:
    """Exact error probability Q(sqrt(N) * m / 2) of the optimal detector."""
    if dim < 1:
        raise ValidationError("dim must be positive")
    if amplitude < 0:
        raise ValidationError("amplitude must be >= 0")
    return q_function(math.sqrt(dim) * amplitude / 2.0)


def chernoff_error_bound(dim: int, amplitude: float) -> float:
    """exp(-N * m^2 / 8), always >= analytic_error."""
    if dim < 1:
        raise ValidationError("dim must be positive")
    if amplitude < 0:
        raise ValidationError("amplitude must be >= 0")
    return math.exp(-dim * amplitude * amplitude / 8.0)


def simulate_detection(s: DetectionScenario) -> float:
    """Monte Carlo error rate of the minimum-distance detector.

    Under either hypothesis the noise part of the statistic sum(r) is one
    Gaussian with variance N, so each trial draws that scalar directly
    instead of N noise samples: memory and time are O(trials), not
    O(trials * N). At N = 1 the stream is the same as a one-column draw.

    Trials run in chunks of ``_CHUNK``; chunk i draws from a generator
    seeded with SeedSequence(seed, spawn_key=(i,)), hypotheses first. The
    result is reproducible for a given scenario, and a run with more trials
    repeats the error pattern of a shorter one on their common prefix of
    whole chunks; changing ``_CHUNK`` changes the result.
    """
    threshold = s.dim * s.amplitude / 2.0
    noise_scale = math.sqrt(s.dim)
    errors = 0
    done = 0
    chunk_index = 0
    while done < s.trials:
        count = min(_CHUNK, s.trials - done)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=s.seed, spawn_key=(chunk_index,))
        )
        hyp = rng.integers(1, 3, size=count)
        noise = noise_scale * rng.standard_normal(count)
        stat = noise + np.where(hyp == 1, s.dim * s.amplitude, 0.0)
        errors += count_detection_errors(stat, hyp, threshold)
        done += count
        chunk_index += 1
    return errors / s.trials


def _mix_seed(master: int, index: int) -> int:
    """splitmix64 of master + (index+1)*golden: stable per-row seeds.

    Appending rows to a sweep never perturbs the seeds of earlier rows.
    """
    z = (master + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def sweep(dims, amplitudes, trials: int, seed: int) -> list[SweepRow]:
    """One row per (dim, amplitude) pair, dims outer, amplitudes inner."""
    dims = list(dims)
    amplitudes = list(amplitudes)
    if not dims or not amplitudes:
        raise ValidationError("dims and amplitudes must be nonempty")
    rows = []
    index = 0
    for dim in dims:
        for amp in amplitudes:
            scenario = DetectionScenario(
                dim=dim,
                amplitude=amp,
                trials=trials,
                seed=_mix_seed(seed, index),
            )
            rows.append(
                SweepRow(
                    dim=dim,
                    amplitude=amp,
                    analytic_pe=analytic_error(dim, amp),
                    chernoff_bound=chernoff_error_bound(dim, amp),
                    empirical_pe=simulate_detection(scenario),
                    trials=trials,
                )
            )
            index += 1
    return rows
