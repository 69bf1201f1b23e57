"""The row kernels of the (T, k) count matrix, kept as the bit reference of
the type scorer.

``errexp.types_method._walk_scores`` is the one scorer of types: it scores
the enumerated n-types while walking them, and given count rows (one type,
the Sanov binomial rows) through a one-step walk. The functions here are the
row-matrix kernels it replaced, verbatim: log2 multinomial coefficients, the
guarded row dot product, type log-probabilities and the average log
likelihood ratio of each row. On the column-major matrix of
``_enumerate_counts`` (below: the walk's steps assembled into the (T, k)
matrix, which ``src/`` no longer builds) their row sums run over the
columns in order, as the walk sums them, so the two must agree bit for bit. A single C-order row of
8 or more symbols is summed pairwise by NumPy instead, and may differ from
the walk in its last bits.

``_kl_rows`` is the row D of the enumerated Sanov oracle, from the terms of
``types_method._type_kl_terms`` that the deviation sum's table holds. Its
C-order rows are summed pairwise from k = 8, as ``sanov_exponent`` sums the
terms of its minimizer and as a C-order table row sums, so all three carry
the same bits at every k. It checks how the walk sums the terms; their
formula is checked against the 50-digit ``sanov_oracle.kl_bits_mp``.
"""

import math

import numpy as np

from errexp.dist import DiscreteDistribution
from errexp.testing import _llr_weights
from errexp.types_method import _log2q, _type_kl_terms, _walk_types

_LN2 = math.log(2.0)


def log2_multinomial(counts, log_fact):
    """log2 of the multinomial coefficient n! / prod_j c_j! of each row.

    ``log_fact`` is a table of ln k! for k = 0..n.
    """
    counts = np.asarray(counts, dtype=np.int64)
    return (log_fact[counts.sum(axis=1)] - log_fact[counts].sum(axis=1)) / _LN2


def guarded_row_dot(counts, weights):
    """sum_j counts[:, j] * weights[j] for each row, never forming 0 * -inf.

    A -inf weight enters the product as 0, and every row with a positive
    count on such a symbol is set to -inf afterwards.
    """
    impossible = np.isneginf(weights)
    out = (counts * np.where(impossible, 0.0, weights)).sum(axis=1)
    if impossible.any():
        out[(counts[:, impossible] > 0).any(axis=1)] = -np.inf
    return out


def type_log_probs(counts, log2q, log_fact, log2_mult=None):
    """log2 Q^n(T(P)) for each row of ``counts``.

    ``log2q`` carries -inf at zero-probability symbols; a positive count
    there makes the row -inf. ``log_fact`` is a table of ln k! for
    k = 0..n. ``log2_mult``, when given, is ``log2_multinomial(counts,
    log_fact)``, so a caller scoring the same rows under two distributions
    computes it once.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if log2_mult is None:
        log2_mult = log2_multinomial(counts, log_fact)
    return log2_mult + guarded_row_dot(counts, log2q)


def avg_llr_rows(counts: np.ndarray, h) -> np.ndarray:
    """Per-symbol average log2 likelihood ratio for each type row."""
    weights = _llr_weights(_log2q(h.p1), _log2q(h.p2))
    return guarded_row_dot(counts, weights) / counts.sum(axis=1)


def _kl_rows(counts: np.ndarray, n: int, p: DiscreteDistribution) -> np.ndarray:
    """D(type || p) in bits for each row of a counts matrix."""
    return _type_kl_terms(p.probs, n, counts.T).T.sum(axis=1)


def _enumerate_counts(n: int, alphabet_size: int, cap: int) -> np.ndarray:
    """All count vectors summing to n, lexicographically ascending, (T, k).

    The matrix is column-major (Fortran order), so the row reductions of the
    test oracles (``tests/row_oracle.py``, and the row KL) run as k
    contiguous vector passes, summing the columns in order as
    :func:`_walk_scores` does: from k = 8 NumPy sums a C-order row pairwise
    instead, and results can move in their last bits.
    """
    total, steps = _walk_types(n, alphabet_size, cap)
    out = np.empty((alphabet_size, total), dtype=np.int64)
    prefix, start = [], 0
    for lo, width, columns in steps:
        # prefix is empty while width is None (the one parent is the empty prefix)
        counts = [np.repeat(c[lo : lo + width.size], width) for c in prefix]
        counts += [c for _, c in columns]
        if columns[-1][0] < alphabet_size - 1:
            prefix = counts
            continue
        stop = start + counts[-1].size
        out[:, start:stop] = counts
        start = stop
    return out.T
