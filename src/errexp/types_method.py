"""The method of types: empirical types, type classes, and Sanov machinery.

Everything here is exact: probabilities are accumulated in log2 space with
max-shift summation, so large-deviation events with probabilities far below
double-precision range still get accurate exponents. Type-class sums walk
the n-types, up to a resource cap, in lexicographic order one symbol at a
time (``_walk_types``). Every per-type score (log2 Q^n(T(P)), D(P || p), the
average log-likelihood ratio, and the log2 |T(P)| and nH of
:func:`type_classes`) is a sum over symbols j of a term that depends on the
count c_j alone, so the one scorer, ``_score_blocks``, accumulates it during
the walk, from c_j * w_j for the linear terms and from a (k, n + 1) table
for ln c_j! and the D and entropy terms (``_type_kl_terms`` and
``dist._xlog2x``), and yields the scores of
``_BLOCK`` types at a time; the (T, k) count matrix is never formed.
``_walk_scores`` collects them into T-long vectors, and
:func:`type_classes` streams them with memory flat in T. Given count rows
(one type, or the binomial rows of a Sanov event) are scored through a
one-step walk (``_rows_walk``), so one function defines how a type is
scored; its bit reference is ``tests/row_oracle.py``. Where a sum over the
types splits into binomial ranges over one count (the Stein and
Neyman-Pearson runs of ``testing``), ``_log2_binomial_tables`` gives every
range of every row r <= n from two cumulative tables.

A Sanov event constrains one symbol a, so it depends on the count of a
alone. Its probability is a binomial range sum over the merged alphabet
{a, not a}, and its D-minimizing type is found by unit exchanges from the
continuous I-projection; neither enumerates the n-types. Exact ties in D go
to the lexicographically smallest count vector, the first in enumeration
order. The event is never empty for an alphabet of two or more symbols:
``lower`` always keeps Q(a) = 1 and ``upper`` always keeps Q(a) = 0.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .dist import (
    LN2,
    DiscreteDistribution,
    _divergence_term_floats,
    _divergence_terms,
    _sum_floats,
    _xlog2x,
    log_factorial_table,
)
from .errors import InfeasibleError, ResourceCapError, ValidationError

#: default ceiling on the number of enumerated types (for Sanov, on the
#: binomial terms)
ENUMERATION_CAP = 10_000_000

# Sanov unit increments whose float keys lie closer than this, relative to
# their size, are compared exactly; a key's rounding is far below it
_KEY_ROUNDING = 2.0**-44

# types per step of the walk's last two columns: the score blocks stay in cache
_BLOCK = 2**13

# 2**x is +0.0 below x = -1075; _exp2 does not evaluate it below this
_EXP2_FLOOR = -1100.0


def _integer(x, what: str) -> int:
    """``x`` as an int, or ValidationError where it is not an integral number."""
    try:
        if x == int(x):
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{what} must be an integer")


@dataclass(frozen=True)
class EmpiricalType:
    """Occupancy counts of a length-n sequence over a finite alphabet: also
    the occupancy of energy levels by n particles (``boltzmann``)."""

    counts: tuple
    n: int

    def __post_init__(self):
        counts = tuple(_integer(c, "each count") for c in self.counts)
        n = _integer(self.n, "n")
        if len(counts) < 1:
            raise ValidationError("type needs at least one symbol")
        if any(c < 0 for c in counts):
            raise ValidationError("counts must be nonnegative")
        if n < 1 or sum(counts) != n:
            raise ValidationError("counts must sum to the sequence length n")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n", n)

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
        object.__setattr__(self, "symbol", _integer(self.symbol, "symbol index"))
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
        if n < 1:
            raise ValidationError("n must be positive")
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
    """Count symbol occurrences in a sequence of indices, read as ``_integer`` reads them."""
    seq = np.asarray(sequence)
    if seq.ndim != 1 or seq.size < 1:
        raise ValidationError("sequence must be 1-D and nonempty")
    alphabet_size = _integer(alphabet_size, "alphabet_size")
    if alphabet_size < 1:
        raise ValidationError("alphabet_size must be positive")
    symbols = [_integer(x, "each symbol") for x in seq.tolist()]
    if min(symbols) < 0 or max(symbols) >= alphabet_size:
        raise ValidationError("sequence contains out-of-range symbols")
    counts = np.bincount(symbols, minlength=alphabet_size)
    return EmpiricalType(tuple(int(c) for c in counts), int(seq.size))


def count_types(n: int, alphabet_size: int) -> int:
    """Number of distinct n-types: C(n + |A| - 1, |A| - 1), exact."""
    n, alphabet_size = _integer(n, "n"), _integer(alphabet_size, "alphabet_size")
    if n < 1 or alphabet_size < 1:
        raise ValidationError("n and alphabet_size must be positive")
    return math.comb(n + alphabet_size - 1, alphabet_size - 1)


def _capped_count(n: int, alphabet_size: int, cap: int) -> int:
    """The number of n-types, or ResourceCapError if it exceeds ``cap``."""
    total = count_types(n, alphabet_size)
    if total > cap:
        raise ResourceCapError(
            f"{total} types exceeds the enumeration cap of {cap}"
        )
    return total


def _walk_types(n: int, alphabet_size: int, cap: int):
    """Walk the n-types in lexicographic order, one column at a time.

    The walk is an iterator of steps ``(lo, width, columns)``, each of which
    extends prefixes by the columns in ``columns``, a list of ``(j, counts)``:
    prefix lo + i of those the previous steps built spawns ``width[i]``
    children, in order, or ``width`` is None where the one parent is the
    empty prefix. The prefix columns j = 0..k-3 come whole, one step each,
    and leave the C(n + k - 2, k - 2) distinct prefixes (c_0, ..., c_{k-3})
    in lexicographic order. The last free column and the forced last column
    (c_{k-1} is what the prefix leaves) then come together, over consecutive
    ranges of ``_BLOCK`` types; for k = 1 the forced column comes alone. A
    consumer repeats its per-prefix values by ``width`` and adds each
    column's share in order; the steps whose columns end at j = k - 1 hold
    the complete types, in order.

    Returns ``(T, steps)``: the number of types and that iterator.
    ResourceCapError is raised here, before anything is allocated, if there
    are more than ``cap`` types; a caller creates the walk before it builds
    anything of size n.
    """
    total = _capped_count(n, alphabet_size, cap)

    def steps():
        # rem[i] is what the i-th distinct prefix leaves for the later columns
        rem = np.array([n], dtype=np.int64)
        if alphabet_size == 1:
            yield 0, None, [(0, rem)]
            return
        for j in range(alphabet_size - 2):
            width = rem + 1
            column = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
            rem = np.repeat(rem, width) - column
            yield 0, (width if j else None), [(j, column)]
        # prefix i spawns the types first[i]..first[i + 1] - 1
        first = np.zeros(rem.size + 1, dtype=np.int64)
        np.cumsum(rem + 1, out=first[1:])
        offsets = np.arange(min(total, _BLOCK))
        for start in range(0, total, _BLOCK):
            stop = min(start + _BLOCK, total)
            # the types start..stop - 1 have the prefixes lo..hi
            lo = int(first.searchsorted(start, side="right")) - 1
            hi = int(first.searchsorted(stop - 1, side="right")) - 1
            width = rem[lo : hi + 1] + 1
            width[0] -= start - first[lo]
            width[-1] -= first[hi + 1] - stop
            column = np.repeat(first[lo : hi + 1] - start, width)
            np.subtract(offsets[: stop - start], column, out=column)
            last = np.repeat(rem[lo : hi + 1], width)
            last -= column
            yield lo, (width if alphabet_size > 2 else None), [
                (alphabet_size - 2, column),
                (alphabet_size - 1, last),
            ]

    return total, steps()


def _rows_walk(rows):
    """A one-step walk, as :func:`_walk_types` returns it, whose one step
    holds all the columns of the given count rows, each row summing to n."""
    counts = np.asarray(rows, dtype=np.int64)
    return len(counts), iter([(0, None, list(enumerate(counts.T)))])


def _score_blocks(walk, n: int, log2qs, weights=(), tables=()):
    """Per-type scores from one walk, a block of types at a time, in order.

    ``walk`` is ``(T, steps)`` from :func:`_walk_types` or :func:`_rows_walk`.
    A block has a column per type and a row per score: log2 Q^n(T(P)) for
    each log2 q in ``log2qs``; for each weight vector w, the sum over symbols
    j of c_j * w[j], a -inf weight counting as -inf where c_j > 0 and as 0
    elsewhere; for each (k, n + 1) table, the sum of table[j, c_j]. Each sum
    runs over the columns in order, so the scores carry the bits of
    ``type_log_probs`` and ``guarded_row_dot`` of ``tests/row_oracle.py`` on
    the column-major count matrix. Nothing of size T is formed, and no block
    is reused after it is yielded."""
    k = len(log2qs[0])
    total, steps = walk
    log_fact = log_factorial_table(n)
    # a row per score: the products c_j * w[j], then the table look-ups, the
    # last of them ln c_j! for the multinomial sum
    w = np.array([*log2qs, *weights]).reshape(-1, k).T.copy()
    # the tables of each symbol, looked up in place: no copy of size k * n
    tabs = list(zip(*tables, [log_fact] * k))
    # a -inf weight enters the product as 0, and its positive counts as -inf
    neg = w == -np.inf
    impossible = [row.nonzero()[0] for row in neg] if neg.any() else None
    w[neg] = 0.0
    rows, scaled = len(w[0]) + len(tabs[0]), len(w[0])
    term_buf = np.empty(rows * min(total, _BLOCK))
    prefix = None

    def column_terms(j, counts):
        # c_j * w[j], 0 for a -inf w[j] and c_j = 0, then the table entries; a
        # prefix step can hold more than a block
        size = counts.size
        buf = term_buf if size <= _BLOCK else np.empty(rows * size)
        out = buf[: rows * size].reshape(rows, size)
        np.multiply(w[j][:, None], counts.astype(np.float64), out=out[:scaled])
        if impossible is not None and impossible[j].size:
            out[impossible[j][:, None], counts > 0] = -np.inf
        # the counts lie in 0..n, so "clip" never clips; it skips the
        # bounds check of the default mode
        for row, table in enumerate(tabs[j], scaled):
            table.take(counts, mode="clip", out=out[row])
        return out

    for lo, width, columns in steps:
        rest = columns
        if width is None:
            # the first column has one parent, the empty prefix
            (j, counts), *rest = columns
            acc = column_terms(j, counts).copy()
        else:
            acc = np.repeat(prefix[:, lo : lo + width.size], width, axis=1)
        for j, counts in rest:
            acc += column_terms(j, counts)
        if columns[-1][0] < k - 1:
            prefix = acc
            continue
        # log2 n! / prod c_j!: (ln n! - sum ln c_j!) / ln 2
        log2_mult = acc[-1]
        np.subtract(log_fact[n], log2_mult, out=log2_mult)
        log2_mult /= LN2
        acc[: len(log2qs)] += log2_mult
        yield acc[:-1]


def _walk_scores(walk, n: int, log2qs, weights=(), tables=()):
    """The :func:`_score_blocks` scores as ``(lps, sums)``, ``lps`` the
    log2 Q^n(T(P)) vectors and ``sums`` the rest: the rows of one array
    allocated once and filled block by block."""
    scores = np.empty((len(log2qs) + len(weights) + len(tables), walk[0]))
    start = 0
    for block in _score_blocks(walk, n, log2qs, weights, tables):
        scores[:, start : start + block.shape[1]] = block
        start += block.shape[1]
    return list(scores[: len(log2qs)]), list(scores[len(log2qs) :])


def _log2_binomial_tables(n: int, thetas):
    """log2 of the Binomial(r, theta) terms and of their left and right sums,
    for every r <= n, one triple per (log2 theta, log2 (1 - theta)) in
    ``thetas``.

    Each triple is ``(terms, left, right)``, each (n + 1, n + 2):
    ``terms[r, x]`` is log2 of C(r, x) theta^x (1 - theta)^(r - x), -inf for
    x > r; ``left[r, x]`` is log2 of the sum of the terms of row r below x,
    and ``right[r, x]`` of those at x and above, so a range [a, b) of row r is
    either side's difference. A row whose terms all lie within 2^960 of its
    largest is summed in doubles scaled by that term, each sum of m terms
    to m ulps; a row whose terms span more (theta near 0 or 1 at large r)
    is summed in log2 instead, so no far-tail mass is lost.
    """
    log_fact = log_factorial_table(n)
    r = np.arange(n + 1)[:, None]
    x = np.arange(n + 2)
    rest = np.maximum(r - x, 0)
    log2_choose = log_fact[r] - log_fact[np.minimum(x, n)]
    log2_choose -= log_fact[rest]
    log2_choose /= LN2
    outside = x > r
    log2_choose[outside] = -np.inf
    out = []
    for log2_theta, log2_rest in thetas:
        terms = x * log2_theta + rest * log2_rest
        terms += log2_choose
        # the terms rise, then fall, in x: the least of a row is at an end
        shift = terms.max(axis=1, keepdims=True)
        far = np.minimum(terms[:, 0], terms.diagonal()) < shift[:, 0] - 960.0
        lin = terms - shift
        # 2**x is slow where it flushes to 0; below -960 only the far rows
        # have terms, and they are summed again below
        np.maximum(lin, -1000.0, out=lin)
        np.exp2(lin, out=lin)
        lin[outside] = 0.0
        left = np.empty_like(terms)
        left[:, 0] = 0.0
        np.cumsum(lin[:, :-1], axis=1, out=left[:, 1:])
        right = np.cumsum(lin[:, ::-1], axis=1)[:, ::-1]
        with np.errstate(divide="ignore"):
            # an empty sum is -inf
            np.log2(left, out=left)
            np.log2(right, out=right)
        left += shift
        right += shift
        if far.any():
            left[far, 1:] = np.logaddexp2.accumulate(terms[far, :-1], axis=1)
            right[far] = np.logaddexp2.accumulate(terms[far, ::-1], axis=1)[:, ::-1]
        out.append((terms, left, right))
    return out


def _exact_size(counts) -> int | None:
    """n! / prod c_j!, or None where it exceeds a native 64-bit integer."""
    size, total = 1, 0
    for c in counts:
        total += c
        size *= math.comb(total, c)
    return size if size < 2**63 else None


def _class_rows(walk, n: int, k: int):
    """The :func:`type_classes` rows of ``walk``'s types, from one pass:
    log2 |T(P)| is the score under log2 q = 0, the counts sum unit weights,
    and -H sums the ``dist._xlog2x`` terms (c/n) log2 (c/n) that
    ``entropy`` sums."""
    plogp = _xlog2x(np.arange(n + 1) / n)
    log2_types = math.log2(count_types(n, k))
    for block in _score_blocks(walk, n, [np.zeros(k)], np.eye(k), [[plogp] * k]):
        # -H as entropy() gives it: 0.0, not -0.0, for a point mass
        n_h = n * (0.0 - block[-1])
        # the lists live as long as the loop's zip, one block's at a time
        counts = block[1:-1].T.astype(np.int64)
        for c, log2_size, lower, upper in zip(
            counts.tolist(), block[0].tolist(), (n_h - log2_types).tolist(), n_h.tolist()
        ):
            exact = _exact_size(c) if log2_size < 64 else None
            yield tuple(c), log2_size, exact, lower, upper


def type_classes(n: int, alphabet_size: int, cap: int = ENUMERATION_CAP):
    """``(counts, log2 |T(P)|, exact |T(P)| or None, nH - log2 count_types,
    nH)`` for every n-type, in lexicographic count order: the class size,
    exact where it fits a native 64-bit integer, in its sandwich (Cover &
    Thomas, Thm 11.1.3), H the type's entropy in bits. Bad arguments, or
    more than ``cap`` types, raise at the call; the rows then stream from
    one walk, so memory stays flat in T and ``cap`` bounds the time."""
    n, alphabet_size = _integer(n, "n"), _integer(alphabet_size, "alphabet_size")
    return _class_rows(_walk_types(n, alphabet_size, cap), n, alphabet_size)


def enumerate_types(
    n: int, alphabet_size: int, cap: int = ENUMERATION_CAP
) -> list[EmpiricalType]:
    """Every n-type over the alphabet, in lexicographic count order."""
    return [EmpiricalType(row[0], n) for row in type_classes(n, alphabet_size, cap)]


def type_class_size(t: EmpiricalType):
    """``(log2 |T(P)|, exact |T(P)| or None, nH - log2 count_types, nH)``, the
    row :func:`type_classes` gives the type: the class size and its sandwich.
    |T(P)| = n! / prod c_j! is also the multiplicity of an occupancy of n
    particles, and nH * ln 2 its Stirling form n ln n - sum c_j ln c_j."""
    return next(_class_rows(_rows_walk([t.counts]), t.n, t.alphabet_size))[1:]


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
    (lp,), _ = _walk_scores(_rows_walk([t.counts]), t.n, [_log2q(q)])
    return float(lp[0])


def _type_kl_terms(q: np.ndarray, n: int, counts: np.ndarray) -> np.ndarray:
    """The terms of D(c/n || q) in bits, symbol j's at ``counts[j]`` (a
    first axis of 1 broadcasts): the ``dist._divergence_terms`` of (c - n q_j)
    / n, with (1 - sum q) / ln 2 added to symbol 0's, so the terms of a type
    sum to its D, within about 1e-15 relative. n q_j is split into two
    doubles whose products with n are exact (for n < 2^27), so c - n q_j is
    within a rounding or two, and exactly -n q_j at c = 0.
    """
    q = q.reshape(-1, *[1] * (counts.ndim - 1))
    terms = _divergence_terms(*_type_split(q, n, counts))
    terms[0] += math.fsum([1.0, *(-q).ravel().tolist()]) / LN2
    return terms


def _type_split(q, n: int, c):
    # ((c - n q) / n, n q / n), on arrays or floats alike, to the bit; n q is
    # the sum of two doubles, Veltkamp's 26-bit halves of q (2^27 + 1) times n
    big = q * 134217729.0
    q_hi = big - (big - q)
    n_hi, n_lo = n * q_hi, n * (q - q_hi)
    return ((c - n_hi) - n_lo) / n, (n_hi + n_lo) / n


def _type_divergence(probs: list, n: int, counts: list) -> float:
    """D(c/n || q) in bits for one type, on Python floats: the sum of its
    :func:`_type_kl_terms`, to the bit, in NumPy's pairwise order."""
    diff, nq = zip(*[_type_split(q, n, c) for q, c in zip(probs, counts)])
    terms = _divergence_term_floats(diff, nq)
    if terms is None:
        return float(_type_kl_terms(np.array(probs), n, np.array(counts)).sum())
    terms[0] += math.fsum([1.0, *[-q for q in probs]]) / LN2
    return _sum_floats(terms)


def _exp2(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """2**x into ``out`` (which may be x), without evaluating it below -1100.

    2**x rounds to +0.0 below -1075, so the result is the same; NumPy's exp2
    takes about 20x longer on an argument whose result flushes to 0, and
    100x longer on one whose result is subnormal, than on a normal result.
    """
    low = x < _EXP2_FLOOR
    if not low.any():
        # exp2 with where= is about 1.8x slower on arguments it does evaluate
        return np.exp2(x, out=out)
    np.exp2(x, out=out, where=~low)
    out[low] = 0.0
    return out


def _log2_sum_exp2(log2_vals: np.ndarray, where=None) -> float:
    """log2 of a sum of 2**x terms, max-shifted so nothing underflows.

    The terms are the finite entries of ``log2_vals`` that ``where`` selects
    (all of them if None). They are shifted and raised in place in the
    compacted copy, which is compacted again only where a selected entry is
    not finite. ``where=...`` selects a view of the whole of a caller's
    scratch array, which is then overwritten without a copy.
    """
    terms = log2_vals if where is None else log2_vals[where]
    finite = np.isfinite(terms)
    if where is None or not finite.all():
        terms = terms[finite]
    if terms.size == 0:
        return -math.inf
    m = float(terms.max())
    terms -= m
    return m + math.log2(float(_exp2(terms, out=terms).sum()))


def _log2_prob(log2_terms: np.ndarray, where=None) -> float:
    """log2 of a probability from its terms' log2 values, as
    ``_log2_sum_exp2`` selects them, clamped at 0: a float sum of terms whose
    exact total is at most 1 can round above 1."""
    return min(_log2_sum_exp2(log2_terms, where), 0.0)


def _check_delta(delta: float) -> None:
    if not delta > 0:
        raise ValidationError("delta must be positive")


def deviation_exact_log2_prob(
    n: int,
    p: DiscreteDistribution,
    delta: float,
    cap: int = ENUMERATION_CAP,
) -> float:
    """Exact log2 P(D(P_hat_n || p) >= delta) by summing over type classes.

    D(type || p) is summed over the symbols in order from the (k, n + 1)
    table of :func:`_type_kl_terms`, the terms :func:`sanov_exponent` scores
    types with: within about 1e-15 relative of the exact D of each type.
    -inf where no type deviates.
    """
    _check_delta(delta)
    walk = _walk_types(n, p.alphabet_size, cap)
    table = _type_kl_terms(p.probs, n, np.arange(n + 1)[None, :])
    (lp,), (kl,) = _walk_scores(walk, n, [_log2q(p)], tables=[table])
    return _log2_prob(lp, kl >= delta)


def _sanov_range(pi: ConstraintSet, p: DiscreteDistribution, n: int, cap: int):
    lo, hi = pi.count_range(n, p.alphabet_size)
    if n + 1 > cap:
        raise ResourceCapError(f"{n + 1} binomial terms exceeds the cap of {cap}")
    return lo, hi


def _exchange(c: list, probs: list, a: int, lo: int, hi: int) -> list:
    """The lexicographically smallest member minimizing D, by unit moves from c.

    The unit m + 1 of symbol i adds g_i(m) = (m + 1) ln(m + 1) - m ln m -
    ln p_i to n ln 2 * D(c || p), rising in m. While the largest last
    increment exceeds the least next one, that unit moves; then c is a
    minimizer. Where the two are equal, each symbol has at most one unit at
    that increment, and those units go to the last of the tied symbols.
    """
    neg_ln_p = [-math.log(x) if x > 0 else math.inf for x in probs]

    def key(i, m):
        # ln(m + 1) + m ln(1 + 1/m) - ln p_i rounds by a few ulps of its value
        return neg_ln_p[i] + (math.log(m + 1) + m * math.log1p(1 / m) if m else 0.0), i, m

    def cmp(x, y):
        # exact where the float keys lie within rounding of each other
        (gx, i, m), (gy, j, d) = x, y
        if abs(gx - gy) > _KEY_ROUNDING * (abs(gx) + abs(gy)):
            return 1 if gx > gy else -1
        if probs[i] == probs[j] or m == d:  # g rises with m and falls with p
            return (m > d) - (m < d) or (probs[j] > probs[i]) - (probs[j] < probs[i])
        # the sign of (m + 1)^(m + 1) d^d p_j - (d + 1)^(d + 1) m^m p_i, p_i = u / v
        (u, v), (s, t) = probs[i].as_integer_ratio(), probs[j].as_integer_ratio()
        diff = (m + 1) ** (m + 1) * d**d * s * v - (d + 1) ** (d + 1) * m**m * u * t
        return (diff > 0) - (diff < 0)

    order, symbols = functools.cmp_to_key(cmp), range(len(c))
    while True:
        gives = [key(i, c[i] - 1) for i in symbols if c[i] > (lo if i == a else 0)]
        takes = [key(i, c[i]) for i in symbols if probs[i] > 0 and (i != a or c[i] < hi)]
        top, bottom = max(gives, key=order, default=None), min(takes, key=order, default=None)
        sign = 1 if top is None or bottom is None else cmp(bottom, top)
        if sign >= 0:
            break
        c[top[1]] -= 1
        c[bottom[1]] += 1
    if sign == 0:
        down = [x[1] for x in gives if cmp(x, top) == 0]
        last = sorted(down + [x[1] for x in takes if cmp(x, top) == 0])[-len(down) :]
        c = [ci - (i in down) + (i in last) for i, ci in enumerate(c)]
    return c


def sanov_exponent(
    pi: ConstraintSet,
    p: DiscreteDistribution,
    n: int,
    cap: int = ENUMERATION_CAP,
):
    """Minimum of D(Q||p) over the n-types in the constraint set.

    Returns (d_star in bits, minimizing type), ties in exact arithmetic going
    to the lexicographically smallest count vector. Nothing is enumerated:
    :func:`_exchange` starts from the continuous I-projection rounded to an
    n-type (c_a is n * p_a clamped to the event, or n where no other symbol
    has mass; the other counts are the floors of the proportional split of
    the rest, the units left over going one each to the largest fractional
    remainders, ties to the lower symbol). Where every member has D = inf,
    the first member is returned. d_star is the C-order sum of the type's
    :func:`_type_kl_terms`, taken on floats by :func:`_type_divergence`,
    within about 1e-15 relative of its exact D and the bits of its row of
    the table on which the deviation sum judges types. ``cap`` bounds the
    n + 1 counts of a.
    """
    lo, hi = _sanov_range(pi, p, n, cap)
    if lo > hi:
        raise InfeasibleError("no n-type satisfies the constraint set")
    k, a = p.alphabet_size, pi.symbol
    # the start is set on Python floats: the same IEEE products, quotients
    # and floors as on arrays, at a fraction of the per-call cost
    probs = p.probs.tolist()
    rest = probs.copy()
    rest[a] = 0.0
    c = [0] * k
    if (probs[a] == 0.0 and lo > 0) or (not any(rest) and hi < n):
        # the first member sets the range end on a, the rest on the last other
        if a < k - 1:
            c[a], c[-1] = lo, n - lo
        else:
            c[-2], c[a] = n - hi, hi
    else:
        # with no mass off a (p_a may round below 1) only c_a = n has finite D
        c[a] = min(max(math.floor(n * probs[a]), lo), hi) if any(rest) else n
        left = n - c[a]
        if left:
            # the floors sum to at most left, and their remainders, each below
            # 1, to what is left over; sorted() is stable
            total = math.fsum(rest)
            split = [left * r / total for r in rest]
            share = [math.floor(x) for x in split]
            c = [ci + si for ci, si in zip(c, share)]
            order = sorted(range(k), key=lambda i: share[i] - split[i])
            for i in order[: left - sum(share)]:
                c[i] += 1
        c = _exchange(c, probs, a, lo, hi)
    return _type_divergence(probs, n, c), EmpiricalType(tuple(c), n)


def sanov_exact_log2_prob(
    pi: ConstraintSet,
    p: DiscreteDistribution,
    n: int,
    cap: int = ENUMERATION_CAP,
) -> float:
    """Exact log2 P(P_hat_n in Pi), at most 0, safe below 2**-1000.

    The event depends on the count m of the constrained symbol a only, so
    its probability is the Binomial(n, p_a) mass of the kept range of m:
    the rows [m, n - m], one walk per range, scored under the merged law
    (p_a, sum of the other p_b). -inf only where that mass is zero, as for
    an empty event. Above 1/2 it is the total mass less that of the other
    counts, so log2 P keeps its relative accuracy as P nears 1.
    """
    lo, hi = _sanov_range(pi, p, n, cap)
    probs, a = p.probs.tolist(), pi.symbol
    p_a = probs[a]
    # fsum is correctly rounded, so the order of its terms does not matter
    p_rest = math.fsum(probs[:a] + probs[a + 1 :])
    with np.errstate(divide="ignore"):
        log2q = np.log2([p_a, p_rest])

    def log2_mass(m):
        (lp,), _ = _walk_scores(_rows_walk(np.column_stack((m, n - m))), n, [log2q])
        return _log2_sum_exp2(lp)

    log2_p = log2_mass(np.arange(lo, hi + 1, dtype=np.int64))
    if log2_p <= -1.0:
        return log2_p
    rest = np.r_[0:lo, hi + 1 : n + 1].astype(np.int64)
    # the doubles of p need not sum to 1: the total mass is (sum p)^n
    log2_total = n * math.log1p(math.fsum([*probs, -1.0])) / LN2
    # the float sum can round above 1, and log2 P above 0
    return min(log2_total + math.log1p(-(2.0 ** (log2_mass(rest) - log2_total))) / LN2, 0.0)
