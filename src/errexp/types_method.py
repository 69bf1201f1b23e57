"""The method of types: empirical types, type classes, and Sanov machinery.

Everything here is exact: probabilities are accumulated in log2 space with
max-shift summation, so large-deviation events with probabilities far below
double-precision range still get accurate exponents. Type-class sums walk
the n-types, up to a resource cap, in lexicographic order one symbol at a
time (``_walk_types``). Every per-type score they reduce (log2 Q^n(T(P)),
D(P || p), the average log-likelihood ratio) is a sum over symbols j of a
term that depends on the count c_j alone, so ``_walk_scores`` accumulates it
during the walk, from c_j * w_j for the linear terms and from a (k, n + 1)
table for ln c_j! and the D terms, and never forms the (T, k) count matrix.
That matrix (``_enumerate_counts``, the same walk) serves
:func:`enumerate_types` and the test oracles.

A Sanov event constrains one symbol a, so it depends on the count of a
alone. Its probability is a binomial range sum over the merged alphabet
{a, not a}, and its D-minimizing type is found by unit moves from the
continuous I-projection; neither enumerates the n-types. Ties in D go to
the lexicographically smallest count vector, the first in enumeration
order. The event is never empty for an alphabet of two or more symbols:
``lower`` always keeps Q(a) = 1 and ``upper`` always keeps Q(a) = 0.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Literal

import numpy as np

from ._kernels import guarded_scale, type_log_probs
from .dist import LN2, DiscreteDistribution, log_factorial, log_factorial_table
from .errors import InfeasibleError, ResourceCapError, ValidationError

#: default ceiling on the number of enumerated types (for Sanov, on the
#: binomial terms and on the types the minimizer search scores)
ENUMERATION_CAP = 10_000_000

# relative width of the band of D values that the Sanov minimizer search
# treats as possible ties; rounding of one D value is far below it
_TIE_BAND = 2.0**-40

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
    out of scope. For n-types the kept set is never empty unless the
    alphabet has one symbol (see :meth:`count_range`).
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

    def count_range(self, n: int, alphabet_size: int) -> tuple[int, int]:
        """(lo, hi): the n-types kept are those with lo <= counts[symbol] <= hi.

        Membership is the float test m / n >= threshold (or <= threshold)
        on the symbol's count m. m / n is monotone in m, so the kept counts
        form one interval, found by bisection with that same test. The range
        holds m = n (``lower``) or m = 0 (``upper``); it is empty (lo > hi)
        only for a one-symbol alphabet in ``upper`` mode below threshold 1,
        whose single type (n,) lies outside the event.
        """
        if self.symbol >= alphabet_size:
            raise ValidationError("symbol index outside the alphabet")
        t = self.threshold
        if self.mode == "lower":
            lo, hi = bisect_left(range(n + 1), True, key=lambda m: m / n >= t), n
        else:
            lo, hi = 0, bisect_left(range(n + 1), True, key=lambda m: m / n > t) - 1
        if alphabet_size == 1:
            lo = n
        return lo, hi


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


def _walk_types(n: int, alphabet_size: int, cap: int):
    """Walk the n-types in lexicographic order, one column at a time.

    The walk is an iterator over the columns j = 0..k-1. Before column j it
    holds the distinct prefixes (c_0, ..., c_{j-1}) in lexicographic order,
    and column j yields ``(width, column)``: prefix i spawns ``width[i]``
    children c_j = 0, 1, ..., whose counts are ``column``, in order. The
    last column is forced (c_{k-1} is what the prefix leaves), so its
    ``width`` is None: every prefix has one child. A consumer repeats its
    per-prefix values by ``width`` and adds the column's share; after the
    last column it holds one value per type.

    ResourceCapError is raised here, before anything is allocated, if there
    are more than ``cap`` types; a caller creates the walk before it builds
    anything of size n.
    """
    total = count_types(n, alphabet_size)
    if total > cap:
        raise ResourceCapError(
            f"{total} types exceeds the enumeration cap of {cap}"
        )

    def columns():
        # rem[i] is what the i-th distinct prefix leaves for the later columns
        rem = np.array([n], dtype=np.int64)
        for _ in range(alphabet_size - 1):
            width = rem + 1
            column = np.arange(int(width.sum()), dtype=np.int64)
            column -= np.repeat(np.cumsum(width) - width, width)
            rem = np.repeat(rem, width)
            rem -= column
            yield width, column
        # drop the previous column before the last step, which holds T types
        width = column = None
        yield None, rem

    return columns()


def _enumerate_counts(n: int, alphabet_size: int, cap: int) -> np.ndarray:
    """All count vectors summing to n, lexicographically ascending, (T, k).

    The matrix is column-major (Fortran order), so the row reductions of the
    test oracles (average LLR, log2 multinomial, type log-probabilities, row
    KL) run as k contiguous vector passes, summing the columns in order as
    :func:`_walk_scores` does: from k = 8 NumPy sums a C-order row pairwise
    instead, and results can move in their last bits.
    """
    walk = _walk_types(n, alphabet_size, cap)
    out = np.empty((alphabet_size, count_types(n, alphabet_size)), dtype=np.int64)
    # row i holds column i of the first `size` prefixes, repeated in place
    size = 1
    for j, (width, column) in enumerate(walk):
        if width is not None:
            for i in range(j):
                out[i, : column.size] = np.repeat(out[i, :size], width)
        size = column.size
        out[j, :size] = column
    return out.T


def _walk_scores(walk, n: int, log2qs, weights=(), tables=()):
    """Per-type scores from one :func:`_walk_types` walk, in enumeration order.

    Returns ``(lps, sums)``. ``lps`` holds, for each log2 q in ``log2qs``,
    log2 Q^n(T(P)) of every type, with the bits of ``type_log_probs`` on the
    column-major count matrix. ``sums`` holds, for each weight vector w, the
    sum over symbols j of c_j * w[j] as ``guarded_row_dot`` forms it, then
    for each (k, n + 1) table the sum of table[j, c_j]. Each sum runs over
    the columns in order, as the matrix's column-major row sums do.
    """
    k = len(log2qs[0])
    log_fact = log_factorial_table(n)

    def scaled(w):
        return lambda j, column: guarded_scale(column, w[j])

    def looked_up(table):
        # the counts lie in 0..n, so "clip" never clips; it skips the
        # bounds check of the default mode
        return lambda j, column: table[j].take(column, mode="clip")

    # one log-factorial table serves every column of the multinomial sum
    terms = [*map(scaled, (*log2qs, *weights)), *map(looked_up, (*tables, [log_fact] * k))]
    sums = [None] * len(terms)
    for j, (width, column) in enumerate(walk):
        for i, term in enumerate(terms):
            if j == 0:
                # the first column has one parent, the empty prefix
                sums[i] = term(j, column)
                continue
            if width is not None:
                sums[i] = np.repeat(sums[i], width)
            sums[i] += term(j, column)
    *sums, log2_mult = sums
    # log2 n! / prod c_j!, formed as log2_multinomial forms it
    np.subtract(log_fact[n], log2_mult, out=log2_mult)
    log2_mult /= LN2
    lps = sums[: len(log2qs)]
    for lp in lps:
        lp += log2_mult
    return lps, sums[len(log2qs) :]


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
    # np.log2 is accurate down to the smallest subnormal; only q = 0 needs a guard
    with np.errstate(divide="ignore"):
        return np.where(q.probs > 0, np.log2(q.probs), -np.inf)


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


def _kl_terms(frac: np.ndarray, log2p: np.ndarray) -> np.ndarray:
    """The terms frac * (log2 frac - log2 p) of D in bits, 0 where frac = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(frac > 0, frac * (np.log2(np.maximum(frac, 1e-300)) - log2p), 0.0)


def _kl_rows(counts: np.ndarray, n: int, p: DiscreteDistribution) -> np.ndarray:
    """D(type || p) in bits for each row of a counts matrix."""
    return _kl_terms(counts / n, _log2q(p)).sum(axis=1)


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
    """Exact P(D(P_hat_n || p) >= delta) by summing over type classes.

    D(type || p) is summed from a table of the ``_kl_rows`` terms, so each
    type is judged on the same float D as the Sanov search judges it.
    """
    if delta <= 0:
        raise ValidationError("delta must be positive")
    walk = _walk_types(n, p.alphabet_size, cap)
    log2q = _log2q(p)
    kl_table = _kl_terms(np.arange(n + 1) / n, log2q[:, None])
    (lp,), (kl,) = _walk_scores(walk, n, [log2q], tables=[kl_table])
    deviating = kl >= delta
    if not deviating.any():
        return 0.0
    return min(1.0, 2.0 ** _log2_sum_exp2(lp[deviating]))


def _sanov_range(pi: ConstraintSet, p: DiscreteDistribution, n: int, cap: int):
    lo, hi = pi.count_range(n, p.alphabet_size)
    if n + 1 > cap:
        raise ResourceCapError(f"{n + 1} binomial terms exceeds the cap of {cap}")
    return lo, hi


def sanov_exponent(
    pi: ConstraintSet,
    p: DiscreteDistribution,
    n: int,
    cap: int = ENUMERATION_CAP,
):
    """Minimum of D(Q||p) over the n-types in the constraint set.

    Returns (d_star in bits, minimizing type): the least ``_kl_rows`` value
    over the member types, ties going to the lexicographically smallest
    count vector. D is separable and convex in the counts, so a member that
    no unit move (one count from symbol i to symbol j) improves is a global
    minimizer, and nothing is enumerated: the search starts at the floor of
    the continuous I-projection and moves one unit at a time. ``cap`` bounds
    the n + 1 counts of the constrained symbol and the types scored.
    """
    lo, hi = _sanov_range(pi, p, n, cap)
    if lo > hi:
        raise InfeasibleError("no n-type satisfies the constraint set")
    k, a = p.alphabet_size, pi.symbol
    probs = p.probs
    rest = probs.copy()
    rest[a] = 0.0
    if (probs[a] == 0.0 and lo > 0) or (not rest.any() and hi < n):
        # every member puts mass where p vanishes, so D = inf throughout;
        # the lexicographically first member sets the range end on a and
        # gives the remainder to the last other symbol
        c = np.zeros(k, dtype=np.int64)
        if a < k - 1:
            c[a], c[-1] = lo, n - lo
        else:
            c[-2], c[a] = n - hi, hi
        return float(_kl_rows(c[None, :], n, p)[0]), EmpiricalType(tuple(c.tolist()), n)

    c = np.zeros(k, dtype=np.int64)
    c[a] = min(max(math.floor(n * probs[a]), lo), hi)
    left = n - int(c[a])
    if left:
        # floor of the proportional split (the floors sum to at most left);
        # the remainder goes to the likeliest other symbol
        share = np.floor(left * rest / math.fsum(rest)).astype(np.int64)
        share[np.argmax(rest)] += left - share.sum()
        c += share

    # types that tie in exact arithmetic (permutations under equal p_b, for
    # one) can round either way, so the search keeps every type scoring
    # within a band of the least value seen; level sets of a separable
    # convex function are connected by unit moves, so this reaches all of
    # them, and the answer is the smallest (value, counts) among them
    eye = np.eye(k, dtype=np.int64)
    moves = (eye[None, :, :] - eye[:, None, :]).reshape(-1, k)
    least = float(_kl_rows(c[None, :], n, p)[0])
    seen = {tuple(c.tolist()): least}
    frontier = c[None, :]
    while len(frontier):
        fresh = {}
        for row in frontier:
            rows = row + moves
            rows = rows[(rows >= 0).all(axis=1) & (rows[:, a] >= lo) & (rows[:, a] <= hi)]
            fresh.update(dict.fromkeys(t for t in map(tuple, rows.tolist()) if t not in seen))
        if len(seen) + len(fresh) > cap:
            raise ResourceCapError(f"the minimizer search exceeds the cap of {cap} types")
        rows = np.array(list(fresh), dtype=np.int64).reshape(-1, k)
        kl = _kl_rows(rows, n, p)
        seen.update(zip(fresh, kl.tolist()))
        least = min(least, float(kl.min(initial=math.inf)))
        frontier = rows[kl <= least + _TIE_BAND * (1.0 + least)]
    value, counts = min((v, t) for t, v in seen.items())
    return value, EmpiricalType(counts, n)


def sanov_exact_prob(
    pi: ConstraintSet,
    p: DiscreteDistribution,
    n: int,
    cap: int = ENUMERATION_CAP,
) -> float:
    """Exact P(P_hat_n in Pi): 2 to the :func:`sanov_exact_log2_prob`."""
    return min(1.0, 2.0 ** sanov_exact_log2_prob(pi, p, n, cap))


def sanov_exact_log2_prob(
    pi: ConstraintSet,
    p: DiscreteDistribution,
    n: int,
    cap: int = ENUMERATION_CAP,
) -> float:
    """Exact log2 P(P_hat_n in Pi), safe below 2**-1000.

    The event depends on the count m of the constrained symbol a only, so
    its probability is the Binomial(n, p_a) mass of the kept range of m:
    the rows [m, n - m] scored under the merged law (p_a, sum of the other
    p_b). -inf only where that mass is zero, as for an empty event. Above
    1/2 it is the total mass less that of the other counts, so log2 P keeps
    its relative accuracy as P nears 1.
    """
    lo, hi = _sanov_range(pi, p, n, cap)
    p_a = float(p.probs[pi.symbol])
    p_rest = math.fsum(np.delete(p.probs, pi.symbol))
    with np.errstate(divide="ignore"):
        log2q = np.log2([p_a, p_rest])
    table = log_factorial_table(n)

    def log2_mass(m):
        return _log2_sum_exp2(type_log_probs(np.column_stack((m, n - m)), log2q, table))

    log2_p = log2_mass(np.arange(lo, hi + 1, dtype=np.int64))
    if log2_p <= -1.0:
        return log2_p
    rest = np.r_[0:lo, hi + 1 : n + 1].astype(np.int64)
    # the doubles of p need not sum to 1: the total mass is (sum p)^n
    log2_total = n * math.log1p(math.fsum([*p.probs, -1.0])) / LN2
    return log2_total + math.log1p(-(2.0 ** (log2_mass(rest) - log2_total))) / LN2
