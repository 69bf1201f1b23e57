import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from errexp import (
    DetectionScenario,
    ValidationError,
    analytic_log2_error,
    chernoff_log2_error_bound,
    q_chernoff_bound,
    q_function,
    simulate_detection,
    sweep,
)
from errexp.detection import _CHUNK, _LOG2_E, _hypothesis_one

import detection_oracle

# the two log2 functions, with test ids that name their probabilities
BOTH = [analytic_log2_error, chernoff_log2_error_bound]
BOTH_IDS = ["analytic_error", "chernoff_error_bound"]


def q_oracle(x):
    """High-precision numerical integration of the Gaussian tail."""
    with mpmath.workdps(30):
        val = mpmath.quad(
            lambda t: mpmath.exp(-t * t / 2) / mpmath.sqrt(2 * mpmath.pi),
            [x, mpmath.inf],
        )
        return float(val)


class TestQFunction:
    def test_at_zero(self):
        assert q_function(0.0) == 0.5

    def test_at_two(self):
        assert q_function(2.0) == pytest.approx(0.0227501319481792, rel=1e-10)

    def test_symmetry_at_minus_one(self):
        assert q_function(-1.0) == pytest.approx(1 - q_function(1.0), abs=1e-12)

    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0])
    def test_against_integration_oracle(self, x):
        assert q_function(x) == pytest.approx(q_oracle(x), rel=1e-10)

    def test_symmetry_grid(self):
        for x in np.linspace(-8, 8, 1001):
            assert abs(q_function(x) + q_function(-x) - 1.0) < 1e-12


def test_q_function_matches_mpmath():
    # within 1e-14 relative of 50-digit mpmath on x in [-8, 38] (relative to
    # 2^-1022 where Q is subnormal). Handing erfc the rounded x / sqrt 2 put
    # it 1.9e-13 off near x = 37 and 1e-14 off at x = 12
    rng = np.random.default_rng(40)
    for x in [*np.linspace(-8.0, 38.0, 2001), *rng.uniform(8.0, 38.0, 1000)]:
        x = float(x)
        with mpmath.workdps(50):
            q = mpmath.erfc(mpmath.mpf(x) / mpmath.sqrt(2)) / 2
            assert abs(q_function(x) - q) <= 1e-14 * max(q, mpmath.mpf(2.0**-1022)), x


class TestChernoffBoundOnQ:
    def test_at_zero(self):
        assert q_chernoff_bound(0.0) == 1.0

    def test_at_two(self):
        assert q_chernoff_bound(2.0) == pytest.approx(math.exp(-2), rel=1e-14)

    def test_dominates_q_on_grid(self):
        for x in np.linspace(0, 8, 10_000):
            assert q_function(float(x)) <= q_chernoff_bound(float(x))

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            q_chernoff_bound(-0.1)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, x):
        # nan < 0 is False: a nan argument returned nan
        with pytest.raises(ValidationError):
            q_chernoff_bound(x)


class TestAnalyticError:
    def test_zero_amplitude(self):
        assert analytic_log2_error(3, 0.0) == -1.0

    def test_n4_m2(self):
        assert 2.0 ** analytic_log2_error(4, 2.0) == pytest.approx(0.0227501319481792, rel=1e-10)

    def test_n1_m6(self):
        assert 2.0 ** analytic_log2_error(1, 6.0) == pytest.approx(0.0013498980316301, rel=1e-9)

    def test_monotone_in_amplitude_and_dim(self):
        for dim in (1, 2, 4):
            vals = [analytic_log2_error(dim, m) for m in range(1, 7)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
        assert analytic_log2_error(4, 2.0) < analytic_log2_error(1, 2.0)

    def test_nm2_invariance(self):
        # the same x = sqrt(N) m / 2 gives the same bits
        assert analytic_log2_error(4, 2.0) == analytic_log2_error(16, 1.0)
        assert analytic_log2_error(1, 4.0) == analytic_log2_error(4, 2.0)


class TestChernoffErrorBound:
    def test_zero_amplitude(self):
        assert chernoff_log2_error_bound(5, 0.0) == 0.0

    def test_n4_m2(self):
        assert chernoff_log2_error_bound(4, 2.0) == pytest.approx(-2 / math.log(2), rel=1e-15)
        assert 2.0 ** chernoff_log2_error_bound(4, 2.0) == pytest.approx(math.exp(-2), rel=1e-14)

    def test_same_exponent_for_equal_nm2(self):
        assert chernoff_log2_error_bound(1, 4.0) == chernoff_log2_error_bound(4, 2.0)

    def test_dominates_analytic(self):
        for dim in (1, 2, 4, 9):
            for m in np.linspace(0, 6, 25):
                assert analytic_log2_error(dim, float(m)) <= chernoff_log2_error_bound(
                    dim, float(m)
                )


@pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fn", BOTH, ids=BOTH_IDS)
def test_non_finite_amplitude_rejected(fn, amplitude):
    # nan < 0 is False: a nan amplitude returned nan from the bound; an
    # infinite one reached q_function, or the series, which gave -inf
    with pytest.raises(ValidationError, match="amplitude must be finite"):
        fn(4, amplitude)


@pytest.mark.parametrize("fn", BOTH, ids=BOTH_IDS)
def test_negative_amplitude_rejected(fn):
    with pytest.raises(ValidationError, match="amplitude must be >= 0"):
        fn(4, -0.5)


def test_log2_errors_match_mpmath():
    # both log2s within 1e-15 relative of 50-digit mpmath from x = 0 to 1e4,
    # around the series cut at 16 and where Q underflows (x > 38.6), and
    # their 2 ** x within 1e-13 relative wherever it is a normal double.
    # Dims from 1 to 10^6 send x = sqrt(N) m / 2 and N m^2 through their
    # roundings; the reference takes the double x that the function forms
    rng = np.random.default_rng(39)
    xs = [0.0, 1e-3, 0.5, 1.0, 5.0, 15.999999999999998, 16.0, 30.0, 37.6, 38.0, 39.0, 150.0]
    xs += [1e4, *np.geomspace(1e-3, 1e4, 300), *rng.uniform(14.0, 37.7, 300)]
    for x in xs:
        dim = int(rng.choice([1, 3, 64, 1000, 10**6]))
        amplitude = 2.0 * float(x) / math.sqrt(dim)
        got = analytic_log2_error(dim, amplitude), chernoff_log2_error_bound(dim, amplitude)
        with mpmath.workdps(50):
            q = mpmath.erfc(mpmath.mpf(math.sqrt(dim) * amplitude / 2.0) / mpmath.sqrt(2)) / 2
            bound = mpmath.exp(-dim * mpmath.mpf(amplitude) ** 2 / 8)
            for log2_p, p in zip(got, (q, bound)):
                assert log2_p == pytest.approx(float(mpmath.log(p, 2)), rel=1e-15, abs=0.0), x
                if 2.0**log2_p >= 2.0**-1022:
                    assert abs(2.0**log2_p - p) <= 1e-13 * p, x
    # -inf only where x^2 or N m^2 passes the double range
    assert analytic_log2_error(10**300, 1e300) == -math.inf  # x = inf
    assert analytic_log2_error(1, 2.7e154) == -math.inf  # x^2 = 1.8e308
    assert chernoff_log2_error_bound(1, 2.7e154) == -math.inf
    assert math.isfinite(analytic_log2_error(1, 2.6e154))  # x^2 = 1.7e308
    assert chernoff_log2_error_bound(1, 2.6e154) == -math.inf  # N m^2 = 6.8e308
    assert math.isfinite(chernoff_log2_error_bound(1, 1.3e154))


def test_log2_e_constant():
    # the exponents' log2(e), as an integer over 2^128
    with mpmath.workdps(60):
        assert _LOG2_E == int(mpmath.nint(mpmath.mpf(2) ** 128 / mpmath.log(2)))


def test_gordon_sandwich_and_the_chernoff_bound():
    # Gordon (1941): x / (1 + x^2) phi(x) < Q(x) < phi(x) / x for x > 0, on a
    # seeded grid of x from 1e-3 to 1e4 over dims 1 to 10^6. The sides come
    # from 50-digit mpmath at the double x the function forms, so the only
    # slack is the log2's own stated accuracy, 1e-15 relative. Q(x) <=
    # exp(-x^2 / 2) / 2 leaves the Chernoff bound a bit above it, no slack
    rng = np.random.default_rng(11)
    for _ in range(400):
        x = math.exp(rng.uniform(math.log(1e-3), math.log(1e4)))
        dim = int(round(math.exp(rng.uniform(0.0, math.log(1e6)))))
        amplitude = 2.0 * x / math.sqrt(dim)
        got = analytic_log2_error(dim, amplitude)
        with mpmath.workdps(50):
            xd = mpmath.mpf(math.sqrt(dim) * amplitude / 2.0)
            log2_phi = -(xd**2) / (2 * mpmath.log(2)) - mpmath.log(2 * mpmath.pi, 2) / 2
            lower = float(log2_phi + mpmath.log(xd / (1 + xd**2), 2))
            upper = float(log2_phi - mpmath.log(xd, 2))
        slack = 1e-15 * abs(lower)
        assert lower - slack < got < upper + slack, (dim, amplitude)
        assert got <= chernoff_log2_error_bound(dim, amplitude), (dim, amplitude)


class TestScenarioRefusals:
    @pytest.mark.parametrize(
        "dim, trials, seed, what",
        [(2.5, 10, 0, "dim"), (2, 10.5, 0, "trials"), (2, 10, 1.5, "seed")],
    )
    def test_non_integral_counts_are_refused(self, dim, trials, seed, what):
        # 2.5 simulated a fractional dimension; 10.5 and 1.5 raised a bare
        # TypeError from range and SeedSequence
        with pytest.raises(ValidationError, match=f"{what} must be an integer"):
            DetectionScenario(dim, 1.0, trials, seed)

    def test_integral_floats_become_ints(self):
        s = DetectionScenario(4.0, 1.0, 10.0, 3.0)
        assert (s.dim, s.trials, s.seed) == (4, 10, 3)
        assert all(type(v) is int for v in (s.dim, s.trials, s.seed))

    @pytest.mark.parametrize("fn", BOTH, ids=BOTH_IDS)
    def test_analytics_refuse_a_fractional_dim(self, fn):
        with pytest.raises(ValidationError, match="dim must be an integer"):
            fn(2.5, 1.0)

    @pytest.mark.parametrize("amplitude", [0.0, 1.0])
    @pytest.mark.parametrize("fn", BOTH, ids=BOTH_IDS)
    def test_analytics_refuse_a_dim_beyond_the_double_range(self, fn, amplitude):
        # math.sqrt and the float product raised a bare OverflowError
        with pytest.raises(ValidationError, match="dim must lie within the double range"):
            fn(10**400, amplitude)

    @pytest.mark.parametrize("fn", BOTH, ids=BOTH_IDS)
    def test_analytics_take_the_largest_dims_in_range(self, fn):
        log2_p = fn(int(1.7e308), 1.0)  # N m^2 = 1.7e308 and x^2 = 4.25e307
        assert math.isfinite(log2_p) and 2.0**log2_p == 0.0
        assert fn(int(1.7e308), 0.0) == fn(1, 0.0)

    @pytest.mark.parametrize(
        "dim, amplitude", [(64, 1e307), (64, 3e306), (2, 1.7e308), (10**400, 0.0)]
    )
    def test_shift_beyond_the_double_range_is_refused(self, dim, amplitude):
        # N*m = inf decided every hypothesis-1 trial 2: an error rate near
        # 1/2 against an analytic 0
        with pytest.raises(ValidationError, match=r"dim \* amplitude must be finite"):
            DetectionScenario(dim, amplitude, 10, 0)


class TestSimulation:
    def test_coin_flip_regime(self):
        pe = simulate_detection(DetectionScenario(2, 0.0, 100_000, 7))
        assert abs(pe - 0.5) <= 4 * math.sqrt(0.25 / 100_000)

    def test_matches_analytic_n4_m2(self):
        pe = simulate_detection(DetectionScenario(4, 2.0, 1_000_000, 42))
        p = 2.0 ** analytic_log2_error(4, 2.0)
        assert abs(pe - p) <= 4 * math.sqrt(p * (1 - p) / 1_000_000)

    def test_deterministic(self):
        s = DetectionScenario(3, 1.5, 200_000, 123)
        assert simulate_detection(s) == simulate_detection(s)

    def test_chunking_invisible(self, monkeypatch):
        # a run one partial chunk longer repeats the whole first chunk, so
        # its error count exceeds the shorter run's by at most the extra
        # trials; each chunk's generator records what it draws
        chunks = []
        default_rng = np.random.default_rng

        class Recording:
            def __init__(self, seed):
                self.rng = default_rng(seed)
                self.bit_generator = self  # the hypotheses come as raw words
                chunks.append(self)

            def random_raw(self, size):
                words = self.rng.bit_generator.random_raw(size)
                # one hypothesis per 32-bit half; every chunk here is even
                self.hyp = words.view("<u4") < 2**31
                return words.copy()

            def standard_normal(self, *args, **kwargs):
                self.noise = self.rng.standard_normal(*args, **kwargs)
                return self.noise.copy()

        monkeypatch.setattr(np.random, "default_rng", Recording)
        short = DetectionScenario(1, 1.0, _CHUNK, 5)
        longer = DetectionScenario(1, 1.0, _CHUNK + 1000, 5)
        errors_short = round(simulate_detection(short) * short.trials)
        errors_longer = round(simulate_detection(longer) * longer.trials)
        assert 0 <= errors_longer - errors_short <= 1000
        # the hypotheses and noise of the shared chunk, bit for bit
        assert [len(c.noise) for c in chunks] == [_CHUNK, _CHUNK, 1000]
        assert [len(c.hyp) for c in chunks] == [_CHUNK, _CHUNK, 1000]
        assert np.array_equal(chunks[0].hyp, chunks[1].hyp)
        assert np.array_equal(chunks[0].noise, chunks[1].noise)
        # the partial chunk draws from its own stream
        assert not np.array_equal(chunks[1].hyp[:1000], chunks[2].hyp)

    @pytest.mark.parametrize("count", [1, 2, 3, 7, 1000, 50_000, _CHUNK])
    @pytest.mark.parametrize("seed", [0, 1, (1 << 64) - 1])
    def test_raw_word_hypotheses_match_integers(self, count, seed):
        # a NumPy release that changes the bounded draw or the order of the
        # 32-bit halves fails here; the oracle test below still draws with
        # integers(1, 3)
        def generator():
            return np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(0,))
            )

        twin, rng = generator(), generator()
        expected = twin.integers(1, 3, size=count) == 1
        assert np.array_equal(_hypothesis_one(rng, count), expected)
        assert twin.standard_normal(5).tobytes() == rng.standard_normal(5).tobytes()

    @pytest.mark.parametrize("dim", [1, 4, 64, 1000])
    @pytest.mark.parametrize("amplitude", [0.0, 1e-9, 0.5, 2.0, 7.5])
    def test_bit_identical_to_oracle(self, dim, amplitude):
        # the in-place pass draws the same streams as the reference loop
        # and must decide every trial the same way
        for trials in (1, 7, 50_000, _CHUNK, _CHUNK + 3):
            for seed in (0, 1, (1 << 64) - 1):
                s = DetectionScenario(dim, amplitude, trials, seed)
                expected = detection_oracle.simulate_detection(s).hex()
                assert simulate_detection(s).hex() == expected, s

    def test_traced_peak_per_trial(self):
        # one float buffer and two bool masks per chunk; the reference loop,
        # with four 8-byte arrays per trial, peaks at about 27 bytes per trial
        s = DetectionScenario(4, 1.0, 50_000, 3)
        simulate_detection(s)
        tracemalloc.start()
        try:
            simulate_detection(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * s.trials

    @pytest.mark.parametrize("dim", [16, 64])
    def test_matches_analytic_at_high_dim(self, dim):
        # the statistic's noise is one N(0, dim) draw per trial; a wrong
        # scale would move these cells by many standard errors
        trials = 1_000_000
        for row in sweep([dim], [0.25, 0.5, 1.0], trials=trials, seed=dim):
            p = 2.0 ** analytic_log2_error(dim, row.amplitude)
            assert abs(row.empirical_pe - p) <= 4 * math.sqrt(p * (1 - p) / trials)


class TestSweep:
    def test_row_layout_and_bounds(self):
        rows = sweep([1, 4], [1, 2, 3], trials=20_000, seed=42)
        assert [(r.dim, r.amplitude) for r in rows] == [
            (1, 1),
            (1, 2),
            (1, 3),
            (4, 1),
            (4, 2),
            (4, 3),
        ]
        for row in rows:
            assert row.analytic_pe <= row.chernoff_bound
            assert 0.0 <= row.empirical_pe <= 1.0

    @pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 7])
    def test_seed_outside_64_bits_is_refused(self, seed):
        # the row seeds are mixed mod 2**64: -1 aliased 2**64 - 1
        with pytest.raises(ValidationError, match="64 unsigned bits"):
            sweep([1], [1], trials=10, seed=seed)

    def test_integral_float_seed_is_read_as_an_int(self):
        # 2.0 raised a bare TypeError from _mix_seed
        assert sweep([1], [1.0], 10, 2.0) == sweep([1], [1.0], 10, 2)

    def test_fractional_seed_is_refused(self):
        # as DetectionScenario refuses it; 1.5 raised a bare TypeError
        with pytest.raises(ValidationError, match="seed must be an integer"):
            sweep([1], [1.0], 10, 1.5)

    @pytest.mark.parametrize("dim, amplitude", [(1, 76.96), (4, 2.0), (64, 3.0), (10_000, 3.0)])
    def test_linear_columns_are_2_to_their_log2(self, dim, amplitude):
        # a printed Pe and its underflow notice come from one number
        row = sweep([dim], [amplitude], trials=10, seed=0)[0]
        assert row.analytic_pe == 2.0 ** analytic_log2_error(dim, amplitude)
        assert row.chernoff_bound == 2.0 ** chernoff_log2_error_bound(dim, amplitude)

    def test_n1_m2_analytic(self):
        row = sweep([1], [2], trials=1000, seed=0)[0]
        assert row.analytic_pe == pytest.approx(q_function(1.0), abs=1e-15)

    @pytest.mark.parametrize(
        "dims, amplitudes, trials, seed, expected",
        [
            (
                [1],
                [0.5, 1, 2, 3],
                200_000,
                42,
                [
                    "0x1.9a57a786c2268p-2",
                    "0x1.3c779a6b50b0fp-2",
                    "0x1.477c45cbbc2b9p-3",
                    "0x1.1187e7c06e19cp-4",
                ],
            ),
            ([1], [1, 2], (1 << 17) + 1000, 7, ["0x1.3a8ba73d5c280p-2", "0x1.489242566f2eep-3"]),
            ([1, 1], [1.5], 1000, 3, ["0x1.db22d0e560419p-3", "0x1.ccccccccccccdp-3"]),
        ],
    )
    def test_dim1_values_pinned(self, dims, amplitudes, trials, seed, expected):
        # recorded with the (trials x dim) draw; one scalar per trial must
        # reproduce them bit for bit at dim 1
        rows = sweep(dims, amplitudes, trials=trials, seed=seed)
        assert [r.empirical_pe.hex() for r in rows] == expected

    def test_dim4_dim64_values_pinned(self):
        # recorded before the in-place chunk pass, across a chunk boundary;
        # amplitude 0 puts the threshold at 0, where only the sign counts
        rows = sweep([4, 64], [0.0, 0.5], trials=_CHUNK + 1000, seed=12)
        assert [r.empirical_pe.hex() for r in rows] == [
            "0x1.00dc51b0735ebp-1",
            "0x1.3a75d1e21273fp-2",
            "0x1.ffc6706c6c3cap-2",
            "0x1.78a066b761d4fp-6",
        ]

    def test_appending_rows_preserves_earlier_seeds(self):
        short = sweep([1], [1, 2], trials=50_000, seed=9)
        longer = sweep([1], [1, 2, 3], trials=50_000, seed=9)
        assert [r.empirical_pe for r in short] == [
            r.empirical_pe for r in longer[:2]
        ]
