"""Gaussian binary detection: Q-function analytics and Monte Carlo.

The received vector is r = s_i + n with s_1 = (m,...,m), s_2 = (0,...,0) and
unit Gaussian noise. The minimum-distance rule thresholds the sufficient
statistic sum(r) at N*m/2 (equal priors), giving the analytic error
probability Q(sqrt(N)*m/2) and its Chernoff bound exp(-N*m^2/8), in log2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .types_method import _integer

_SQRT2 = math.sqrt(2.0)

# log2(e) over 2^128, 39 digits: an exponent times it is exact until one
# rounding, so 2 ** log2 near 2^-1022 errs 4e-14, not float products' 1.6e-13
_LOG2_E = 0x171547652B82FE1777D0FFDA0D23A7D12

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
        for name in ("dim", "trials", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.dim < 1 or self.trials < 1:
            raise ValidationError("dim and trials must be positive")
        if self.amplitude < 0 or not math.isfinite(self.amplitude):
            raise ValidationError("amplitude must be finite and >= 0")
        try:
            shift = self.dim * self.amplitude
        except OverflowError:  # an int dim beyond the double range
            shift = math.inf
        if not math.isfinite(shift):  # hypothesis 1 would always be decided 2
            raise ValidationError("dim * amplitude must be finite")
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
    """Standard normal tail probability Q(x) = 0.5 * erfc(x / sqrt 2), the
    tail integral (not the erf form sometimes quoted beside it).

    erfc gets y, x / sqrt 2 rounded, which alone would move Q by up to about
    x^2 * 2e-16 relative. For x > 0, Q(x) = Q(y sqrt 2) * exp(-e) to first
    order in the excess e = x^2 / 2 - y^2, formed exactly; it is within 5e-16
    relative of Q wherever Q is a normal double. For x <= 0 the shift is
    below 1e-16."""
    if not math.isfinite(x):
        raise ValidationError("x must be finite")
    y = x / _SQRT2
    q = 0.5 * math.erfc(y)
    if x > 0 and q > 0:  # where q is 0 the excess can pass the double range
        (nx, dx), (ny, dy) = x.as_integer_ratio(), y.as_integer_ratio()
        q -= q * (((nx * dy) ** 2 - 2 * (ny * dx) ** 2) / (2 * (dx * dy) ** 2))
    return q


def q_chernoff_bound(x: float) -> float:
    """exp(-x^2 / 2), an upper bound on Q(x) for x >= 0."""
    if not math.isfinite(x):
        raise ValidationError("x must be finite")
    if x < 0:
        raise ValidationError("the Chernoff bound on Q requires x >= 0")
    return math.exp(-0.5 * x * x)


def _analytic_dim(dim, amplitude) -> int:
    """``dim`` as a positive int within the double range, which the analytic
    forms convert it to, once ``amplitude`` is finite and >= 0."""
    dim = _integer(dim, "dim")
    if dim < 1:
        raise ValidationError("dim must be positive")
    try:
        float(dim)
    except OverflowError:
        raise ValidationError("dim must lie within the double range") from None
    if not math.isfinite(amplitude):
        raise ValidationError("amplitude must be finite")
    if amplitude < 0:
        raise ValidationError("amplitude must be >= 0")
    return dim


def _log2_exp_square(scale: int, v: float, den: int) -> float:
    """log2 exp(-scale * v^2 / den), exact before its one rounding; -inf where
    scale * v^2 passes the double range."""
    if scale * v * v == math.inf:
        return -math.inf
    num, vden = float(v).as_integer_ratio()
    return -(scale * num * num * _LOG2_E) / (den * vden * vden << 128)


def analytic_log2_error(dim: int, amplitude: float) -> float:
    """log2 Q(x), x = sqrt(N) * m / 2, of the optimal detector's error
    probability; -inf only where x^2 passes the double range. It comes from
    ``q_function`` below x = 16, above it from Q(x) = phi(x) / x *
    sum_k (-1)^k (2k - 1)!! / x^(2k) (Abramowitz & Stegun 7.1.23), whose 11
    terms leave under 5e-17 there."""
    dim = _analytic_dim(dim, amplitude)
    x = math.sqrt(dim) * amplitude / 2.0
    if x < 16.0:
        return math.log2(q_function(x))
    u, s = 1.0 / (x * x), 1.0
    for k in range(10, 0, -1):
        s = 1.0 - (2 * k - 1) * u * s
    return _log2_exp_square(1, x, 2) - math.log2(x * math.sqrt(2.0 * math.pi) / s)


def chernoff_log2_error_bound(dim: int, amplitude: float) -> float:
    """log2 exp(-N * m^2 / 8) = -N m^2 / (8 ln 2), always >=
    ``analytic_log2_error``; -inf only where N m^2 passes the double range."""
    return _log2_exp_square(_analytic_dim(dim, amplitude), amplitude, 8)


def _hypothesis_one(rng: np.random.Generator, count: int) -> np.ndarray:
    """``rng.integers(1, 3, size=count) == 1`` from raw words: for a range of
    two that draw is 1 + the top bit of a 32-bit word, never rejected, and
    PCG64 hands out the low half of each 64-bit word first."""
    raw = rng.bit_generator.random_raw((count + 1) // 2)
    return np.asarray(raw, dtype="<u8").view("<u4")[:count] < 2**31


def simulate_detection(s: DetectionScenario) -> float:
    """Monte Carlo error rate of the minimum-distance detector.

    Under either hypothesis the noise part of the statistic sum(r) is one
    Gaussian with variance N, so each trial draws that scalar directly
    instead of N noise samples: memory and time are O(trials), not
    O(trials * N). At N = 1 the stream is the same as a one-column draw.

    Trials run in chunks of ``_CHUNK``; chunk i draws from a generator
    seeded with SeedSequence(seed, spawn_key=(i,)), hypotheses first, those
    of int64 ``integers(1, 3)`` read from raw words (an int8 draw gives a
    different sequence). The result is reproducible for a given scenario,
    and a run with more trials repeats the error pattern of a shorter one
    on their common prefix of whole chunks; changing ``_CHUNK`` changes it.

    A chunk is one in-place pass over one float buffer, about 11 bytes per
    trial, with two counts: the hypothesis-2 trials whose scaled noise
    exceeds the threshold (not noise + 0.0, which differs only in the sign
    of a zero), then the hypothesis-1 trials whose noise shifted by N*m
    does not.
    """
    shift = s.dim * s.amplitude
    threshold = shift / 2.0
    noise_scale = math.sqrt(s.dim)
    errors = 0
    for chunk_index, start in enumerate(range(0, s.trials, _CHUNK)):
        count = min(_CHUNK, s.trials - start)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=s.seed, spawn_key=(chunk_index,))
        )
        one = _hypothesis_one(rng, count)
        stat = rng.standard_normal(count)
        stat *= noise_scale
        decided = stat > threshold
        errors += int(np.count_nonzero(decided > one))  # hypothesis 2 decided 1
        stat += shift
        np.greater(stat, threshold, out=decided)
        errors += int(np.count_nonzero(one > decided))  # hypothesis 1 decided 2
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
    dims, amplitudes = list(dims), list(amplitudes)
    if not dims or not amplitudes:
        raise ValidationError("dims and amplitudes must be nonempty")
    seed = _integer(seed, "seed")
    if not 0 <= seed <= _MASK64:  # _mix_seed would alias it mod 2**64
        raise ValidationError("seed must fit in 64 unsigned bits")
    rows = []
    for index, (dim, amp) in enumerate(itertools.product(dims, amplitudes)):
        scenario = DetectionScenario(dim, amp, trials, _mix_seed(seed, index))
        rows.append(
            SweepRow(
                dim=dim,
                amplitude=amp,
                analytic_pe=2.0 ** analytic_log2_error(dim, amp),
                chernoff_bound=2.0 ** chernoff_log2_error_bound(dim, amp),
                empirical_pe=simulate_detection(scenario),
                trials=trials,
            )
        )
    return rows
