"""Hot numeric kernels, vectorized with NumPy."""

import math

import numpy as np

_LN2 = math.log(2.0)


def log2_multinomial(counts, log_fact):
    """log2 of the multinomial coefficient n! / prod_j c_j! of each row.

    ``log_fact`` is a table of ln k! for k = 0..n.
    """
    counts = np.asarray(counts, dtype=np.int64)
    return (log_fact[counts.sum(axis=1)] - log_fact[counts].sum(axis=1)) / _LN2


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
    # zero-probability symbols enter the product as 0 (no 0 * -inf); the
    # rows that put mass on them are set to -inf afterwards
    impossible = np.isneginf(log2q)
    out = log2_mult + (counts * np.where(impossible, 0.0, log2q)).sum(axis=1)
    if impossible.any():
        out[(counts[:, impossible] > 0).any(axis=1)] = -np.inf
    return out


def count_detection_errors(stat, hyp, threshold):
    """Number of trials where thresholding ``stat`` disagrees with ``hyp``.

    Decision rule: hypothesis 1 (signal present) iff stat > threshold.
    """
    decided_one = stat > threshold
    return int(np.count_nonzero(decided_one != (hyp == 1)))
