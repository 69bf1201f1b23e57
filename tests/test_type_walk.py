"""The type walk scores every n-type as the materialized count matrix does.

``_walk_scores`` sums per-symbol term tables while it walks the types; the
reference is the (T, k) count matrix of ``row_oracle._enumerate_counts``
reduced row by row by the kernels of ``row_oracle``. Stein and Neyman-Pearson scores must
agree byte for byte at every k. The deviation probability reduces a
selection of rows, which is C-order, and from k = 8 NumPy sums C-order rows
pairwise, so there it may move in its last bits.

The one-type functions score a type through a one-step walk of the same
scorer, so they must judge and score each type exactly as the enumerated
sums do, at every k; the class size and its bounds as ``type_classes``
streams them.
"""

import collections
import math
import tracemalloc

import numpy as np
import pytest
from np_oracle import stein_log2_errors_types
from row_oracle import _enumerate_counts, _kl_rows, avg_llr_rows, type_log_probs

from errexp import (
    BinaryHypothesis,
    EmpiricalType,
    ResourceCapError,
    ValidationError,
    deviation_exact_log2_prob,
    kl_divergence,
    make_distribution,
    stein_errors,
    stein_region_membership,
    type_class_log_prob,
    type_class_size,
    type_classes,
)
from errexp.dist import log_factorial_table
from errexp.testing import _type_scores
from errexp.types_method import (
    _kl_terms,
    _log2_sum_exp2,
    _log2q,
    _walk_scores,
    _walk_types,
    count_types,
)

# the largest n per alphabet size that keeps T in the tens of thousands
_N_MAX = {1: 60, 2: 80, 3: 60, 4: 30, 5: 18, 6: 12, 7: 10, 8: 8, 9: 7}
# where the zero-probability symbols go
_ZEROS = ("none", "p1", "p2", "both")


def _case(seed):
    rng = np.random.default_rng(seed)
    k = 1 + seed % 9
    n = int(rng.integers(1, _N_MAX[k] + 1))
    w1, w2 = rng.random(k) + 0.01, rng.random(k) + 0.01
    zeros = _ZEROS[(seed // 9) % 4] if k > 1 else "none"
    a, b = rng.choice(k, size=2, replace=False) if k > 1 else (0, 0)
    if zeros in ("p1", "both"):
        w1[a] = 0.0
    if zeros in ("p2", "both"):
        w2[a if zeros == "both" else b] = 0.0
    return k, n, make_distribution(w1), make_distribution(w2), zeros


def _reference_scores(h, n):
    counts = _enumerate_counts(n, h.p1.alphabet_size, cap=10**6)
    table = log_factorial_table(n)
    return (
        avg_llr_rows(counts, h),
        type_log_probs(counts, _log2q(h.p1), table),
        type_log_probs(counts, _log2q(h.p2), table),
    )


def _reference_deviation(n, p, delta):
    counts = _enumerate_counts(n, p.alphabet_size, cap=10**6)
    deviating = _kl_rows(counts, n, p) >= delta
    if not deviating.any():
        return 0.0
    lp = type_log_probs(counts[deviating], _log2q(p), log_factorial_table(n))
    return min(1.0, 2.0 ** _log2_sum_exp2(lp))


@pytest.mark.parametrize("seed", range(72))
def test_scores_match_the_count_matrix_bit_for_bit(seed):
    k, n, p1, p2, zeros = _case(seed)
    # a zero in p2 alone makes D(p1||p2) infinite: score the swapped pair
    h = BinaryHypothesis(p2, p1) if zeros == "p2" else BinaryHypothesis(p1, p2)
    got = _type_scores(h, n, _walk_types(n, k, cap=10**6))
    want = _reference_scores(h, n)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("seed", range(72))
def test_deviation_matches_the_count_matrix(seed):
    k, n, p1, p2, _ = _case(seed)
    rng = np.random.default_rng(10_000 + seed)
    for p in (p1, p2):
        delta = float(rng.uniform(1e-3, 0.6))
        got = 2.0 ** deviation_exact_log2_prob(n, p, delta)
        want = _reference_deviation(n, p, delta)
        if k <= 7:
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        else:
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("k, n", [(1, 7), (2, 40), (3, 25), (5, 9), (8, 6), (9, 5)])
def test_kl_table_sums_are_the_kl_rows(k, n):
    # the walk judges each type on the same float D as the Sanov search
    p = make_distribution(np.r_[0.0, np.arange(1.0, k)] if k > 1 else [1.0])
    log2q = _log2q(p)
    table = _kl_terms(np.arange(n + 1) / n, log2q[:, None])
    _, (kl,) = _walk_scores(_walk_types(n, k, cap=10**6), n, [log2q], tables=[table])
    want = _kl_rows(_enumerate_counts(n, k, cap=10**6), n, p)
    assert kl.tobytes() == want.tobytes()


# n per alphabet size for the one-type checks: every type is checked, a few
# hundred per k
_N_SMALL = {2: 40, 3: 15, 4: 9, 5: 7, 6: 5, 7: 5, 8: 4, 9: 4, 10: 3, 11: 3, 12: 3}


def _band(h, llr, delta):
    # the types stein_errors sums into beta, as it selects them
    d = kl_divergence(h.p1, h.p2)
    return (llr >= d - delta) & (llr <= d + delta)


@pytest.mark.parametrize("k", sorted(_N_SMALL))
def test_one_type_functions_score_as_the_walk(k):
    # delta = |LLR - D| puts each type on the edge of the Stein band, where
    # the last bit of its LLR decides membership
    rng = np.random.default_rng(k)
    h = BinaryHypothesis(
        make_distribution(rng.random(k) + 0.01), make_distribution(rng.random(k) + 0.01)
    )
    n = _N_SMALL[k]
    d = kl_divergence(h.p1, h.p2)
    llr, lp1, lp2 = _type_scores(h, n, _walk_types(n, k, cap=10**6))
    classes = type_classes(n, k, cap=10**6)
    counts = _enumerate_counts(n, k, cap=10**6)
    for row, x, l1, l2, cls in zip(counts, llr, lp1, lp2, classes, strict=True):
        t = EmpiricalType(tuple(row), n)
        delta = abs(float(x) - d)
        if delta > 0:
            assert stein_region_membership(t, h, delta) == _band(h, x, delta), t.counts
        assert type_class_log_prob(t, h.p1).hex() == float(l1).hex(), t.counts
        assert type_class_log_prob(t, h.p2).hex() == float(l2).hex(), t.counts
        # the class size and its bounds, scored alone, carry the walk's bits
        assert cls[0] == t.counts
        want = [x.hex() if isinstance(x, float) else x for x in cls[1:]]
        got = [x.hex() if isinstance(x, float) else x for x in type_class_size(t)]
        assert got == want, t.counts


def test_boundary_type_at_k8():
    # the one-row scorer summed this type's LLR pairwise, one ulp below the
    # walk's, and put it outside the band that stein_errors sums over
    h = BinaryHypothesis(
        make_distribution([18, 5, 12, 30, 20, 16, 21, 19]),
        make_distribution([3, 20, 1, 30, 27, 16, 9, 18]),
    )
    n, delta = 12, 0.2746872521163858
    t = EmpiricalType((2, 1, 2, 4, 0, 1, 1, 1), n)
    counts = _enumerate_counts(n, 8, cap=10**6)
    i = int(np.flatnonzero((counts == t.counts).all(axis=1))[0])
    llr, _, lp2 = _type_scores(h, n, _walk_types(n, 8, cap=10**6))
    band = _band(h, llr, delta)
    assert band[i]
    assert stein_region_membership(t, h, delta)
    # the band is what stein_errors sums: beta is its P2 mass, summed by runs
    # at k = 8 and held to the exact sum over the band at 1e-12 relative;
    # this type alone is 9e-6 of it, far above that
    _, want = stein_log2_errors_types(h.p1.probs, h.p2.probs, n, band)
    assert 2.0 ** (lp2[i] - want) > 1e-6
    got = stein_errors(h, n, delta, 0.05).log2_beta
    assert abs(got - want) * math.log(2.0) <= 1e-12


class TestCap:
    # n = 10^6 over 4 symbols is 1.7e17 types: a term table alone would be
    # 32 MB and the log-factorial table a million-step loop, so raising
    # before any allocation shows as a small traced peak
    N, K = 10**6, 4

    def _peak_of_refusal(self, call):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError):
                call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_stein_and_np(self):
        h = BinaryHypothesis(make_distribution([1, 2, 3, 4]), make_distribution([4, 3, 2, 1]))
        peak = self._peak_of_refusal(lambda: stein_errors(h, self.N, 0.1, 0.05, cap=10**7))
        assert peak < 100_000

    def test_deviation(self):
        p = make_distribution([1, 2, 3, 4])
        peak = self._peak_of_refusal(
            lambda: deviation_exact_log2_prob(self.N, p, 0.1, cap=10**7)
        )
        assert peak < 100_000

    def test_enumeration(self):
        # type_classes refuses when called, before a row is asked for
        peak = self._peak_of_refusal(lambda: type_classes(self.N, self.K, cap=10**7))
        assert peak < 100_000

    def test_at_the_cap_is_allowed(self):
        total = count_types(20, 4)
        assert sum(1 for _ in type_classes(20, 4, cap=total)) == total
        with pytest.raises(ResourceCapError):
            type_classes(20, 4, cap=total - 1)

    def test_bad_delta_is_refused_first(self):
        with pytest.raises(ValidationError):
            deviation_exact_log2_prob(self.N, make_distribution([1, 1]), 0.0, cap=1)


def _stein_peak(h, n):
    stein_errors(h, n, 0.1, 0.05, cap=10**7)  # warm the log-factorial cache
    tracemalloc.start()
    try:
        stein_errors(h, n, 0.1, 0.05, cap=10**7)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stein_and_np_peak_memory_per_type():
    # the walk (below four symbols) keeps T-length score vectors, no (T, k)
    # count matrix and no T x k float temporaries; the materialized pass took
    # 96 bytes per type
    h = BinaryHypothesis(make_distribution([1, 2, 3]), make_distribution([3, 2, 1]))
    assert _stein_peak(h, 500) / count_types(500, 3) <= 64


def test_stein_and_np_peak_memory_within_the_score_vectors():
    # the three score vectors take 24 bytes per type; the blocked fill adds
    # block-sized buffers only, the reductions one compaction at a time and
    # the NP weights overwrite log2 P1 (40.0 bytes per type here)
    h = BinaryHypothesis(make_distribution([1, 2, 3]), make_distribution([3, 2, 1]))
    assert _stein_peak(h, 500) / count_types(500, 3) <= 42


def test_stein_and_np_peak_memory_per_type_where_every_type_ties():
    # p1 = p2 ties every type, so the NP bracket cannot narrow and the NP
    # optimum comes from the walk; the runs are gone by then
    h = BinaryHypothesis(make_distribution([1, 2, 3, 4]), make_distribution([1, 2, 3, 4]))
    assert _stein_peak(h, 100) / count_types(100, 4) <= 42


def test_stein_and_np_peak_memory_by_runs():
    # from four symbols nothing per type is kept: vectors per prefix, the
    # (n + 1, n + 2) binomial tables and the types of the NP bracket. At
    # k = 4, n = 200 (1,373,701 types) the type pass peaked at 54,951,749
    # traced bytes (40 per type); the runs take 4,906,187
    h = BinaryHypothesis(make_distribution([1, 2, 3, 4]), make_distribution([4, 3, 2, 1]))
    assert _stein_peak(h, 200) <= 54_951_749 / 8


def test_one_type_peak_memory_without_a_table_stack():
    # the ln c! table is read in place, never stacked in k copies: one type
    # at k = 8, n = 100,000 (the stack took 12.8 MB)
    n = 100_000
    q = make_distribution(np.arange(1.0, 9.0))
    t = EmpiricalType((n - 28, 1, 2, 3, 4, 5, 6, 7), n)
    type_class_log_prob(t, q)  # warm the log-factorial cache
    tracemalloc.start()
    try:
        type_class_log_prob(t, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_one_type_class_size_peak_memory_within_four_rows():
    # the entropy row and its temporaries are a few (n + 1)-long vectors; the
    # stack of the ln c! table with it, one copy per symbol, peaked at 7.2 MB
    n = 100_000
    t = EmpiricalType((50_000, 50_000), n)
    type_class_size(t)  # warm the log-factorial cache
    tracemalloc.start()
    try:
        type_class_size(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * (n + 1)


def _class_rows_peak(n, k):
    collections.deque(type_classes(n, k), maxlen=0)  # warm the caches
    tracemalloc.start()
    try:
        collections.deque(type_classes(n, k), maxlen=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_type_classes_peak_memory_flat_in_the_types():
    # the rows stream from the walk a block at a time: 12,341 and 39,711
    # types, each more than one block, peak alike (3.2 and 3.3 MB); a
    # materialized count matrix and a list of types grew 3.1x
    assert count_types(40, 4) > 8192
    assert _class_rows_peak(60, 4) <= 1.25 * _class_rows_peak(40, 4)
