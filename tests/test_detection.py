import math

import mpmath
import numpy as np
import pytest

from errexp import (
    DetectionScenario,
    ValidationError,
    analytic_error,
    chernoff_error_bound,
    q_chernoff_bound,
    q_function,
    simulate_detection,
    sweep,
)
from errexp import detection
from errexp._kernels import count_detection_errors
from errexp.detection import _CHUNK


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


class TestAnalyticError:
    def test_zero_amplitude(self):
        assert analytic_error(3, 0.0) == 0.5

    def test_n4_m2(self):
        assert analytic_error(4, 2.0) == pytest.approx(0.0227501319481792, rel=1e-10)

    def test_n1_m6(self):
        assert analytic_error(1, 6.0) == pytest.approx(0.0013498980316301, rel=1e-9)

    def test_monotone_in_amplitude_and_dim(self):
        for dim in (1, 2, 4):
            vals = [analytic_error(dim, m) for m in range(1, 7)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
        assert analytic_error(4, 2.0) < analytic_error(1, 2.0)

    def test_nm2_invariance(self):
        assert analytic_error(4, 2.0) == pytest.approx(analytic_error(16, 1.0), abs=1e-12)
        assert analytic_error(1, 4.0) == pytest.approx(analytic_error(4, 2.0), abs=1e-12)


class TestChernoffErrorBound:
    def test_zero_amplitude(self):
        assert chernoff_error_bound(5, 0.0) == 1.0

    def test_n4_m2(self):
        assert chernoff_error_bound(4, 2.0) == pytest.approx(math.exp(-2), rel=1e-14)

    def test_same_exponent_for_equal_nm2(self):
        assert chernoff_error_bound(1, 4.0) == chernoff_error_bound(4, 2.0)

    def test_dominates_analytic(self):
        for dim in (1, 2, 4, 9):
            for m in np.linspace(0, 6, 25):
                assert analytic_error(dim, float(m)) <= chernoff_error_bound(
                    dim, float(m)
                )


class TestSimulation:
    def test_coin_flip_regime(self):
        pe = simulate_detection(DetectionScenario(2, 0.0, 100_000, 7))
        assert abs(pe - 0.5) <= 4 * math.sqrt(0.25 / 100_000)

    def test_matches_analytic_n4_m2(self):
        pe = simulate_detection(DetectionScenario(4, 2.0, 1_000_000, 42))
        p = analytic_error(4, 2.0)
        assert abs(pe - p) <= 4 * math.sqrt(p * (1 - p) / 1_000_000)

    def test_deterministic(self):
        s = DetectionScenario(3, 1.5, 200_000, 123)
        assert simulate_detection(s) == simulate_detection(s)

    def test_chunking_invisible(self, monkeypatch):
        # a run one partial chunk longer repeats the whole first chunk, so
        # its error count exceeds the shorter run's by at most the extra trials
        chunks = []

        def recording(stat, hyp, threshold):
            chunks.append((stat.copy(), hyp.copy()))
            return count_detection_errors(stat, hyp, threshold)

        monkeypatch.setattr(detection, "count_detection_errors", recording)
        short = DetectionScenario(1, 1.0, _CHUNK, 5)
        longer = DetectionScenario(1, 1.0, _CHUNK + 1000, 5)
        errors_short = round(simulate_detection(short) * short.trials)
        errors_longer = round(simulate_detection(longer) * longer.trials)
        assert 0 <= errors_longer - errors_short <= 1000
        # the statistic and hypotheses of the shared chunk, bit for bit
        assert [len(stat) for stat, _ in chunks] == [_CHUNK, _CHUNK, 1000]
        assert np.array_equal(chunks[0][0], chunks[1][0])
        assert np.array_equal(chunks[0][1], chunks[1][1])

    @pytest.mark.parametrize("dim", [16, 64])
    def test_matches_analytic_at_high_dim(self, dim):
        # the statistic's noise is one N(0, dim) draw per trial; a wrong
        # scale would move these cells by many standard errors
        trials = 1_000_000
        for row in sweep([dim], [0.25, 0.5, 1.0], trials=trials, seed=dim):
            p = analytic_error(dim, row.amplitude)
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

    def test_appending_rows_preserves_earlier_seeds(self):
        short = sweep([1], [1, 2], trials=50_000, seed=9)
        longer = sweep([1], [1, 2, 3], trials=50_000, seed=9)
        assert [r.empirical_pe for r in short] == [
            r.empirical_pe for r in longer[:2]
        ]
