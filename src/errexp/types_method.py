"""The method of types: empirical types, type classes, and Sanov machinery.

Everything here is exact: type classes are enumerated (up to a resource cap)
and probabilities are accumulated in log2 space with max-shift summation, so
large-deviation events with probabilities far below double-precision range
still get accurate exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from ._kernels import type_log_probs
from .dist import DiscreteDistribution, log_factorial, log_factorial_table
from .errors import InfeasibleError, ResourceCapError, ValidationError

#: default ceiling on the number of enumerated types
ENUMERATION_CAP = 10_000_000

# exact type-class sizes above this are reported in log2 only
_NATIVE_INT_MAX = 2**63 - 1


@dataclass(frozen=True)
class EmpiricalType:
    """Occupancy counts of a length-n sequence over a finite alphabet."""

    counts: tuple
    n: int

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if len(counts) < 1:
            raise ValidationError("type needs at least one symbol")
        if any(c < 0 for c in counts):
            raise ValidationError("counts must be nonnegative")
        if self.n < 1 or sum(counts) != self.n:
            raise ValidationError("counts must sum to the sequence length n")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n", int(self.n))

    @property
    def alphabet_size(self) -> int:
        return len(self.counts)

    def distribution(self) -> DiscreteDistribution:
        return DiscreteDistribution(np.asarray(self.counts, dtype=np.float64) / self.n)


@dataclass(frozen=True)
class ConstraintSet:
    """Half-space constraint on a single symbol's probability mass.

    ``lower`` keeps distributions with Q(symbol) >= threshold, ``upper``
    keeps Q(symbol) <= threshold. These closed sets satisfy the closure
    hypothesis of the large-deviation limit; richer constraint algebra is
    out of scope.
    """

    mode: Literal["lower", "upper"]
    symbol: int
    threshold: float

    def __post_init__(self):
        if self.mode not in ("lower", "upper"):
            raise ValidationError("mode must be 'lower' or 'upper'")
        if self.symbol < 0:
            raise ValidationError("symbol index must be nonnegative")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValidationError("threshold must lie in [0, 1]")

    def mask(self, counts: np.ndarray, n: int) -> np.ndarray:
        """Boolean membership for each row of a counts matrix."""
        if self.symbol >= counts.shape[1]:
            raise ValidationError("symbol index outside the alphabet")
        frac = counts[:, self.symbol] / n
        if self.mode == "lower":
            return frac >= self.threshold
        return frac <= self.threshold


def empirical_type(sequence, alphabet_size: int) -> EmpiricalType:
    """Count symbol occurrences in a sequence of indices."""
    seq = np.asarray(sequence, dtype=np.int64)
    if seq.ndim != 1 or seq.size < 1:
        raise ValidationError("sequence must be 1-D and nonempty")
    if alphabet_size < 1:
        raise ValidationError("alphabet_size must be positive")
    if np.any(seq < 0) or np.any(seq >= alphabet_size):
        raise ValidationError("sequence contains out-of-range symbols")
    counts = np.bincount(seq, minlength=alphabet_size)
    return EmpiricalType(tuple(int(c) for c in counts), int(seq.size))


def count_types(n: int, alphabet_size: int) -> int:
    """Number of distinct n-types: C(n + |A| - 1, |A| - 1), exact."""
    if n < 1 or alphabet_size < 1:
        raise ValidationError("n and alphabet_size must be positive")
    return math.comb(n + alphabet_size - 1, alphabet_size - 1)


def _enumerate_counts(n: int, alphabet_size: int, cap: int) -> np.ndarray:
    """All count vectors summing to n, lexicographically ascending, (T, k)."""
    total = count_types(n, alphabet_size)
    if total > cap:
        raise ResourceCapError(
            f"{total} types exceeds the enumeration cap of {cap}"
        )
    out = np.empty((total, alphabet_size), dtype=np.int64)
    # rem[i] is what the i-th distinct prefix of length j leaves for the
    # remaining columns; each prefix spawns the children c = 0..rem[i]
    rem = np.array([n], dtype=np.int64)
    for j in range(alphabet_size - 1):
        width = rem + 1
        children = np.arange(int(width.sum()), dtype=np.int64)
        children -= np.repeat(np.cumsum(width) - width, width)
        rem = np.repeat(rem, width)
        rem -= children
        # a child leaving r owns C(r + m, m) output rows, m = columns after
        # j + 1; at the last free column (m = 0) each child is one row
        m = alphabet_size - 2 - j
        if m:
            block = np.array([math.comb(r + m, m) for r in range(n + 1)], dtype=np.int64)
            children = np.repeat(children, block[rem])
        out[:, j] = children
    out[:, -1] = rem
    return out


def enumerate_types(
    n: int, alphabet_size: int, cap: int = ENUMERATION_CAP
) -> list[EmpiricalType]:
    """Every n-type over the alphabet, in lexicographic count order."""
    counts = _enumerate_counts(n, alphabet_size, cap)
    return [EmpiricalType(tuple(int(c) for c in r), n) for r in counts]


def type_class_size(t: EmpiricalType):
    """Size of the type class T(P) as (log2 value, exact int or None).

    The exact multinomial coefficient n!/(prod counts!) is included whenever
    it fits a native 64-bit integer.
    """
    log2_size = (
        log_factorial(t.n) - sum(log_factorial(c) for c in t.counts)
    ) / math.log(2.0)
    exact = math.factorial(t.n)
    for c in t.counts:
        exact //= math.factorial(c)
    return log2_size, exact if exact <= _NATIVE_INT_MAX else None


def type_class_size_bounds(t: EmpiricalType):
    """Two-sided bound on log2 |T(P)|: (nH - log2 count_types, nH)."""
    from .dist import entropy

    n_h = t.n * entropy(t.distribution())
    return n_h - math.log2(count_types(t.n, t.alphabet_size)), n_h


def _log2q(q: DiscreteDistribution) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(q.probs > 0, np.log2(np.maximum(q.probs, 1e-300)), -np.inf)


def type_class_log_prob(t: EmpiricalType, q: DiscreteDistribution) -> float:
    """log2 Q^n(T(P)): log2 |T(P)| minus n(D(P_hat||q) + H(P_hat)).

    Evaluated as log2 |T(P)| + sum counts[a] * log2 q(a), which is the same
    quantity without the cancelling entropy terms; -inf when the type puts
    mass where q vanishes.
    """
    if t.alphabet_size != q.alphabet_size:
        raise ValidationError("type and distribution must share an alphabet")
    counts = np.asarray(t.counts, dtype=np.int64)[None, :]
    table = log_factorial_table(t.n)
    return float(type_log_probs(counts, _log2q(q), table)[0])


def _kl_rows(counts: np.ndarray, n: int, p: DiscreteDistribution) -> np.ndarray:
    """D(type || p) in bits for each row of a counts matrix."""
    frac = counts / n
    lp = _log2q(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(frac > 0, frac * (np.log2(np.maximum(frac, 1e-300)) - lp), 0.0)
    return terms.sum(axis=1)


def _log2_sum_exp2(log2_vals: np.ndarray) -> float:
    """log2 of a sum of 2**x terms, max-shifted so nothing underflows."""
    finite = log2_vals[np.isfinite(log2_vals)]
    if finite.size == 0:
        return -math.inf
    m = float(finite.max())
    return m + math.log2(float(np.exp2(finite - m).sum()))


def deviation_probability_exact(
    n: int,
    p: DiscreteDistribution,
    delta: float,
    cap: int = ENUMERATION_CAP,
) -> float:
    """Exact P(D(P_hat_n || p) >= delta) by summing over type classes."""
    if delta <= 0:
        raise ValidationError("delta must be positive")
    counts = _enumerate_counts(n, p.alphabet_size, cap)
    deviating = _kl_rows(counts, n, p) >= delta
    if not deviating.any():
        return 0.0
    lp = type_log_probs(counts[deviating], _log2q(p), log_factorial_table(n))
    return min(1.0, 2.0 ** _log2_sum_exp2(lp))


def sanov_exponent(
    pi: ConstraintSet,
    p: DiscreteDistribution,
    n: int,
    cap: int = ENUMERATION_CAP,
):
    """Minimum of D(Q||p) over the n-types in the constraint set.

    Returns (d_star in bits, minimizing type); ties go to the
    lexicographically smallest count vector, which is the first hit in
    enumeration order.
    """
    counts = _enumerate_counts(n, p.alphabet_size, cap)
    member = pi.mask(counts, n)
    if not member.any():
        raise InfeasibleError("no n-type satisfies the constraint set")
    rows = counts[member]
    kl = _kl_rows(rows, n, p)
    best = int(np.argmin(kl))
    minimizer = EmpiricalType(tuple(int(c) for c in rows[best]), n)
    return float(kl[best]), minimizer


def sanov_exact_prob(
    pi: ConstraintSet,
    p: DiscreteDistribution,
    n: int,
    cap: int = ENUMERATION_CAP,
) -> float:
    """Exact P(P_hat_n in Pi) via type-class probability sums."""
    counts = _enumerate_counts(n, p.alphabet_size, cap)
    member = pi.mask(counts, n)
    if not member.any():
        return 0.0
    lp = type_log_probs(counts[member], _log2q(p), log_factorial_table(n))
    return min(1.0, 2.0 ** _log2_sum_exp2(lp))


def sanov_exact_log2_prob(
    pi: ConstraintSet,
    p: DiscreteDistribution,
    n: int,
    cap: int = ENUMERATION_CAP,
) -> float:
    """log2 of :func:`sanov_exact_prob`, safe for probabilities below 2**-1000."""
    counts = _enumerate_counts(n, p.alphabet_size, cap)
    member = pi.mask(counts, n)
    if not member.any():
        return -math.inf
    lp = type_log_probs(counts[member], _log2q(p), log_factorial_table(n))
    return _log2_sum_exp2(lp)
