import csv
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import mpmath
import numpy as np
import pytest

from errexp import (
    BinaryHypothesis,
    ConstraintSet,
    ValidationError,
    make_distribution,
    stein_errors,
)
from errexp import cli, testing, types_method
from errexp.cli import main, parse_distribution
from np_oracle import np_log2_beta_binomial
from sanov_oracle import kl_bits_mp, log2_prob_mp
from test_testing import chernoff_oracle
from test_tilt_solver import push_means_off


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestParseDistribution:
    def test_simple(self):
        d = parse_distribution("0.5,0.5")
        assert list(d.probs) == [0.5, 0.5]

    def test_normalizes(self):
        d = parse_distribution("1,3")
        assert list(d.probs) == [0.25, 0.75]

    def test_all_zero(self):
        with pytest.raises(ValidationError):
            parse_distribution("0,0")

    def test_garbage(self):
        with pytest.raises(ValidationError):
            parse_distribution("a,b")


class TestSubcommands:
    def test_kl(self):
        status, out, _ = run_cli(["kl", "--p", "0.5,0.5", "--q", "0.25,0.75"])
        assert status == 0
        header, rows = parse_csv(out)
        assert header == ["entropy_p_bits", "entropy_q_bits", "kl_pq_bits", "kl_qp_bits"]
        assert float(rows[0][2]) == pytest.approx(0.2075187496394219)

    def test_kl_infinite_serialized_as_inf(self):
        status, out, _ = run_cli(["kl", "--p", "0.5,0.5", "--q", "1,0"])
        assert status == 0
        _, rows = parse_csv(out)
        assert rows[0][2] == "inf"
        assert math.isinf(float(rows[0][2]))

    def test_kl_point_mass_prints_a_zero_entropy(self):
        status, out, _ = run_cli(["kl", "--p", "0,1", "--q", "1,1"])
        assert status == 0
        assert out.splitlines()[1] == "0,1,1,inf"

    def test_types(self):
        status, out, _ = run_cli(["types", "--n", "3", "--alphabet", "2"])
        assert status == 0
        header, rows = parse_csv(out)
        assert len(rows) == 4
        assert rows[1][0] == "1;2"
        assert int(rows[1][3]) == 3
        # the point mass's upper bound n * H is 0, not -0
        assert out.splitlines()[1] == "0;3,3,0,1,-2,0"

    def test_sanov(self):
        status, out, _ = run_cli(
            [
                "sanov",
                "--p", "1,1",
                "--n", "10",
                "--symbol", "1",
                "--threshold", "0.75",
                "--mode", "lower",
            ]
        )
        assert status == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["exact_prob"]) == pytest.approx(56 / 1024)
        assert row["minimizer_counts"] == "2;8"

    def test_sanov_wide_alphabet_large_n(self):
        # 2.6e19 n-types: the event depends on the count of symbol 0 only
        argv = ["sanov", "--p", "1,2,3,4,5,6,7,8", "--n", "2000", "--symbol", "0",
                "--threshold", "0.2"]
        status, out, _ = run_cli(argv)
        assert status == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        p = make_distribution(range(1, 9))
        log2_prob = log2_prob_mp(ConstraintSet("lower", 0, 0.2), p, 2000)
        assert float(row["exact_prob"]) == pytest.approx(2.0**log2_prob, rel=1e-12)
        assert float(row["rate_bits"]) == pytest.approx(-log2_prob / 2000, rel=1e-13)
        counts = [int(c) for c in row["minimizer_counts"].split(";")]
        assert sum(counts) == 2000 and counts[0] >= 400
        assert float(row["d_star_bits"]) == pytest.approx(float(kl_bits_mp(counts, p)), rel=1e-14)

    def test_stein(self):
        status, out, _ = run_cli(
            ["stein", "--p1", "1,1", "--p2", "1,3", "--n", "200", "--delta", "0.05"]
        )
        assert status == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert 0.0 <= float(row["alpha_n"]) <= 1.0
        assert float(row["np_min_beta"]) > 0.0

    def test_chernoff_symmetric(self):
        status, out, _ = run_cli(["chernoff", "--p1", "0.25,0.75", "--p2", "0.75,0.25"])
        assert status == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["lambda_star"]) == pytest.approx(0.5, abs=1e-9)
        assert float(row["c_info_bits"]) == pytest.approx(0.207519, abs=1e-6)

    def test_boltzmann_fixed_beta(self):
        status, out, _ = run_cli(["boltzmann", "--levels", "0,1", "--beta", "0.693147"])
        assert status == 0
        _, rows = parse_csv(out)
        assert float(rows[0][2]) == pytest.approx(2 / 3, abs=1e-6)
        assert float(rows[1][2]) == pytest.approx(1 / 3, abs=1e-6)

    def test_boltzmann_solve_mean(self):
        status, out, _ = run_cli(
            ["boltzmann", "--levels", "0,1", "--mean", "0.333333333333333"]
        )
        assert status == 0
        _, rows = parse_csv(out)
        assert float(rows[0][3]) == pytest.approx(math.log(2), abs=1e-6)

    def test_detect(self):
        status, out, _ = run_cli(
            [
                "detect",
                "--dims", "1,4",
                "--amplitudes", "1,2,3",
                "--trials", "20000",
                "--seed", "42",
            ]
        )
        assert status == 0
        header, rows = parse_csv(out)
        assert header == [
            "dim", "amplitude", "analytic_pe", "chernoff_bound", "empirical_pe", "trials",
        ]
        assert len(rows) == 6
        for row in rows:
            assert float(row[2]) <= float(row[3])


class TestContract:
    def test_round_trip_and_finite_fields(self):
        status, out, _ = run_cli(["stein", "--p1", "1,1", "--p2", "1,3", "--n", "50", "--delta", "0.1"])
        header, rows = parse_csv(out)
        for row in rows:
            assert len(row) == len(header)
            for field in row:
                assert math.isfinite(float(field))

    def test_float_round_trip_lossless(self):
        status, out, _ = run_cli(["kl", "--p", "1,2", "--q", "3,1"])
        _, rows = parse_csv(out)
        from errexp import kl_divergence, make_distribution

        expected = kl_divergence(make_distribution([1, 2]), make_distribution([3, 1]))
        assert float(rows[0][2]) == expected

    def test_determinism(self):
        argv = ["detect", "--dims", "2", "--amplitudes", "1.5", "--trials", "30000", "--seed", "3"]
        assert run_cli(argv)[1] == run_cli(argv)[1]

    def test_output_file(self, tmp_path):
        path = tmp_path / "out.csv"
        status, out, _ = run_cli(["kl", "--p", "1,1", "--q", "1,1", "--output", str(path)])
        assert status == 0 and out == ""
        header, rows = parse_csv(path.read_text())
        assert header[0] == "entropy_p_bits"

    def test_output_file_matches_stdout_bytes(self, tmp_path):
        path = tmp_path / "out.csv"
        argv = ["boltzmann", "--levels", "0,1,2,3", "--mean", "1.2"]
        _, out, _ = run_cli(argv)
        assert run_cli(argv + ["--output", str(path)])[0] == 0
        assert path.read_bytes() == out.encode()

    def test_seed_accepted_by_deterministic_subcommand(self):
        status, _, _ = run_cli(["kl", "--p", "1,1", "--q", "1,2", "--seed", "99"])
        assert status == 0


class TestExitCodes:
    def test_validation_error_is_2(self):
        status, _, err = run_cli(["kl", "--p", "0,0", "--q", "1,1"])
        assert status == 2
        assert err.strip() != ""

    def test_infeasible_is_3(self):
        status, _, err = run_cli(["boltzmann", "--levels", "0,1", "--mean", "0.9"])
        assert status == 3
        assert err.strip() != ""

    def test_nan_mean_is_2(self):
        # nan fails every comparison: it was reported as an infeasible target
        status, out, err = run_cli(["boltzmann", "--levels", "0,1,2", "--mean", "nan"])
        assert status == 2 and out == ""
        assert "target mean" in err

    def test_resource_cap_is_4(self):
        status, _, err = run_cli(
            ["types", "--n", "200", "--alphabet", "5", "--cap", "100"]
        )
        assert status == 4
        assert err.strip() != ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["kl", "--p", ",", "--q", "1,1"], "empty distribution"),
            (["boltzmann", "--levels", "abc", "--beta", "1"], "cannot parse list 'abc'"),
            (["boltzmann", "--levels", ",", "--beta", "1"], "empty list"),
            (["boltzmann", "--levels", "1", "--beta", "1"], "need at least 2 energy levels"),
            (["boltzmann", "--levels", "1,inf", "--beta", "1"], "energy levels must be finite"),
            (["detect", "--dims", "0", "--amplitudes", "1"], "dim and trials must be positive"),
            (
                ["detect", "--dims", "1", "--amplitudes", "-1"],
                "amplitude must be finite and >= 0",
            ),
            (
                ["detect", "--dims", "1", "--amplitudes", "inf"],
                "amplitude must be finite and >= 0",
            ),
            (
                ["detect", "--dims", "1", "--amplitudes", "1", "--trials", "0"],
                "dim and trials must be positive",
            ),
            (
                ["stein", "--p1", "1,1", "--p2", "1,1,1", "--n", "5", "--delta", "0.1"],
                "hypotheses must share an alphabet",
            ),
            (
                ["sanov", "--p", "1,1", "--n", "5", "--symbol", "-1", "--threshold", "0.5"],
                "symbol index must be nonnegative",
            ),
            (
                ["sanov", "--p", "1,1", "--n", "5", "--symbol", "0", "--threshold", "1.5"],
                "threshold must lie in [0, 1]",
            ),
            (["types", "--n", "0", "--alphabet", "2"], "n and alphabet_size must be positive"),
            (
                # N*m overflowed: empirical_pe 0.4983 and 0.499, exit 0
                ["detect", "--dims", "64", "--amplitudes", "1e307,3e306",
                 "--trials", "10000", "--seed", "1"],
                "dim * amplitude must be finite",
            ),
        ],
    )
    def test_refusals_are_2_before_output(self, argv, message):
        status, out, err = run_cli(argv)
        assert (status, out, err) == (2, "", f"errexp: {message}\n")

    def test_boltzmann_mean_past_the_double_range(self):
        # the levels' sum overflows; the mean is taken above the ground level
        status, out, err = run_cli(["boltzmann", "--levels=1e308,1e308", "--beta", "1"])
        assert status == 0 and err == ""
        _, rows = parse_csv(out)
        assert [float(r[4]) for r in rows] == [1e308, 1e308]

    @pytest.mark.filterwarnings("error")
    def test_boltzmann_solve_where_the_weighted_sum_overflows(self):
        # the levels' weighted sum overflows near beta = 0: the mean of the
        # shortcut and of the solver overflowed with NumPy's warning, exit 5
        status, out, err = run_cli(["boltzmann", "--levels=0,1.6e308,1.6e308", "--mean", "1e308"])
        assert (status, err) == (0, "")
        _, rows = parse_csv(out)
        assert 0.0 < float(rows[0][3]) < 1e-300
        assert [float(r[4]) for r in rows] == [1e308] * 3

    def test_boltzmann_target_above_an_overflowing_uniform_mean_is_3(self):
        # the uniform mean read inf, so this target passed the feasibility check
        status, out, err = run_cli(
            ["boltzmann", "--levels=1e308,1.5e308,1e308", "--mean", "1.2e308"]
        )
        assert status == 3 and out == ""
        assert err == "errexp: target mean 1.2e+308 outside (1e+308, 1.1666666666666667e+308]\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["chernoff", "--p1", "3,7", "--p2", "9,2"],
            ["boltzmann", "--levels", "0,1.3,2.7,4", "--mean", "0.77"],
        ],
    )
    def test_convergence_error_is_5(self, monkeypatch, argv):
        # every mean evaluation pushed 1e-6 off the target (mean 0 for
        # chernoff, the --mean above a ground level of 0 for boltzmann), on its
        # own side: the residual exceeds the solver's certificate, and the
        # message quotes both in the subcommand's units
        push_means_off(monkeypatch, float(argv[-1]) if argv[0] == "boltzmann" else 0.0)
        status, out, err = run_cli(argv)
        assert status == 5
        assert out == ""
        assert err.startswith("errexp: bisection landed ") and "beyond its bound" in err

    @pytest.mark.parametrize(
        "levels, mean",
        [("0,1e6,2e6", "7e5"), ("0,1e9,2e9", "7e8")],
    )
    def test_boltzmann_solve_at_large_energies_is_0(self, levels, mean):
        # the residual is one ulp of the mean, which a fixed tolerance of
        # 1e-10 refused with exit 5
        status, out, err = run_cli(["boltzmann", "--levels", levels, "--mean", mean])
        assert (status, err) == (0, "")
        _, rows = parse_csv(out)
        assert float(rows[0][4]) == pytest.approx(float(mean), rel=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_boltzmann_weights_past_the_double_range_warn_nothing(self):
        # beta * 1e308 overflows to inf, whose weight exp(-inf) = 0 is exact;
        # NumPy's overflow warning went to stderr
        status, out, err = run_cli(["boltzmann", "--levels=0,1e308", "--beta", "2"])
        assert (status, err) == (0, "")
        _, rows = parse_csv(out)
        assert [r[2] for r in rows] == ["1", "0"]

    def test_boltzmann_prob_underflow_is_reported(self):
        # level 1's prob is exp(-1000) / (1 + exp(-1000)), 2^-1442.7: it
        # prints 0, as it did, and stderr gives its log2
        status, out, err = run_cli(["boltzmann", "--levels", "0,1000", "--beta", "1"])
        assert status == 0
        assert out == "level_index,energy,prob,beta,mean_energy\r\n0,0,1,1,0\r\n1,1000,0,1,0\r\n"
        with mpmath.workdps(40):
            want = float(-(1000 + mpmath.log1p(mpmath.exp(-1000))) / mpmath.log(2))
        assert want == -1442.6950408889634
        assert err == (
            "errexp: warning: prob of level 1 (log2 -1442.6950408889634) underflowed to 0 "
            "(below 2^-1074); each log2 is the Gibbs log weight less ln Z, in bits\n"
        )

    def test_np_beta_underflow_is_reported(self):
        # beta < 2^-1074 at n = 8000 still prints 0 (a known defect), but
        # says so on stderr instead of raising numpy's log2(0) warning
        status, out, err = run_cli(
            ["stein", "--p1", "1,1", "--p2", "1,3", "--n", "8000", "--delta", "0.1"]
        )
        assert status == 0
        assert "np_min_beta underflowed" in err

    @pytest.mark.parametrize(
        "delta, underflowed", [(0.1, "np_min_beta"), (0.01, "beta_n, np_min_beta")]
    )
    def test_exponents_stay_finite_below_the_double_range(self, delta, underflowed):
        # the exponent columns come from log2 beta, not from the printed 0
        n = 8000
        status, out, err = run_cli(
            ["stein", "--p1", "1,1", "--p2", "1,3", "--n", str(n), "--delta", str(delta)]
        )
        assert status == 0
        assert f"warning: {underflowed} underflowed" in err
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["np_min_beta"]) == 0.0
        np_exponent = float(row["np_exponent_bits"])
        assert math.isfinite(np_exponent)
        assert np_exponent == pytest.approx(
            -np_log2_beta_binomial(0.5, 0.25, n, 0.05) / n, abs=1e-9
        )
        assert math.isfinite(float(row["stein_exponent_bits"]))

    def test_log2_columns_at_n_8000(self):
        # beta_n and np_min_beta print 0 here; their log2 columns do not
        n, delta, epsilon = 8000, 0.01, 0.05
        status, out, _ = run_cli(
            ["stein", "--p1", "1,1", "--p2", "1,3", "--n", str(n), "--delta", str(delta)]
        )
        assert status == 0
        header, rows = parse_csv(out)
        assert header[8:] == ["log2_alpha_n", "log2_beta_n", "np_log2_beta"]
        row = {k: float(v) for k, v in zip(header, rows[0])}
        h = BinaryHypothesis(make_distribution([1, 1]), make_distribution([1, 3]))
        report = stein_errors(h, n, delta, epsilon, cap=10**7)
        assert (row["beta_n"], row["np_min_beta"]) == (0.0, 0.0)
        assert row["log2_alpha_n"] == report.log2_alpha
        assert row["log2_beta_n"] == report.log2_beta
        assert row["np_log2_beta"] == report.np_log2_beta
        assert all(math.isfinite(row[k]) for k in header[8:])
        assert row["log2_beta_n"] < -1074 and row["np_log2_beta"] < -1074

    def test_alpha_underflow_is_reported(self):
        # the band |LLR - D| <= 0.35 keeps 2234 <= j <= 5766 copies of symbol
        # 0 (its edges are 0.40 from the nearest integers), so alpha is a
        # binomial tail below the double range: it prints 0, and the notice
        # gives its log2
        n = 8000
        status, out, err = run_cli(
            ["stein", "--p1", "1,1", "--p2", "1,3", "--n", str(n), "--delta", "0.35"]
        )
        assert status == 0
        header, rows = parse_csv(out)
        assert float(dict(zip(header, rows[0]))["alpha_n"]) == 0.0
        tail = sum(math.comb(n, j) for j in range(n + 1) if not 2234 <= j <= 5766)
        with mpmath.workdps(30):
            log2_alpha = float(mpmath.log(tail, 2)) - n
        notice = "errexp: warning: alpha_n underflowed to 0 (below 2^-1074); log2 alpha_n = "
        (line,) = [line for line in err.splitlines() if line.startswith(notice)]
        assert float(line[len(notice):]) == pytest.approx(log2_alpha, rel=1e-12)

    def test_sanov_probability_underflow_is_reported(self):
        # P = 2^-2761.4 prints 0 beside its rate; the notice names the column,
        # and stdout is the bytes the run printed without it
        status, out, err = run_cli(
            ["sanov", "--p", "0.5,0.5", "--n", "3000", "--symbol", "0", "--mode", "lower",
             "--threshold", "0.99"]
        )
        assert status == 0
        assert err == (
            "errexp: warning: exact_prob underflowed to 0 (below 2^-1074); "
            "rate_bits holds its -log2 / n\n"
        )
        assert out == (
            "n,symbol,mode,threshold,d_star_bits,minimizer_counts,exact_prob,rate_bits\r\n"
            "3000,0,lower,0.98999999999999999,0.91920686410408869,2970;30,0,0.92046063562026903\r\n"
        )

    def test_detect_error_underflow_is_reported(self):
        # Q(150) = 2^-16238.87 and exp(-N m^2 / 8) = 2^-16230.32 print 0, as
        # they did; the notice names both with their log2, from 40-digit
        # mpmath, and the dim 4 row keeps its bytes and says nothing
        status, out, err = run_cli(
            ["detect", "--dims", "10000,4", "--amplitudes", "3", "--trials", "1000", "--seed", "1"]
        )
        assert status == 0
        assert out == (
            "dim,amplitude,analytic_pe,chernoff_bound,empirical_pe,trials\r\n"
            "10000,3,0,0,0,1000\r\n"
            "4,3,0.0013498980316300957,0.011108996538242306,0,1000\r\n"
        )
        with mpmath.workdps(40):
            log2_q = mpmath.log(mpmath.erfc(150 / mpmath.sqrt(2)) / 2, 2)
            log2_bound = -10000 * 9 / (8 * mpmath.log(2))
        ((q, bound),) = re.findall(
            r"^errexp: warning: analytic_pe \(log2 (\S+)\), chernoff_bound \(log2 (\S+)\) "
            r"underflowed to 0 \(below 2\^-1074\); at dim 10000, amplitude 3\.0$",
            err,
        )
        assert len(err.splitlines()) == 1
        assert float(q) == pytest.approx(float(log2_q), rel=1e-15)
        assert float(bound) == pytest.approx(float(log2_bound), rel=1e-15)

    def test_zero_alpha_is_not_an_underflow(self):
        # only types with mass on the p1 = 0 symbol are rejected, so alpha is
        # exactly 0 and its log2 -inf: nothing underflowed
        status, out, err = run_cli(
            ["stein", "--p1", "1,1,0", "--p2", "1,1,2", "--n", "30", "--delta", "0.1"]
        )
        assert status == 0 and err == ""
        header, rows = parse_csv(out)
        assert float(dict(zip(header, rows[0]))["alpha_n"]) == 0.0

    def test_empty_band_is_not_an_underflow(self):
        # at n = 1 no type has an average LLR within 0.05 of D = 0.2075, so
        # beta_n is exactly 0 and its exponent inf: nothing underflowed
        status, out, err = run_cli(
            ["stein", "--p1", "1,1", "--p2", "1,3", "--n", "1", "--delta", "0.05"]
        )
        assert status == 0 and err == ""
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert (row["alpha_n"], row["beta_n"], row["stein_exponent_bits"]) == ("1", "0", "inf")

    @pytest.mark.parametrize(
        "argv",
        [
            # the band holds every type of positive p2 mass, and the float
            # sum of those masses rounds above 1 (log2 beta was 3e-12)
            ["--p1", "1,8", "--p2", "1,9", "--n", "5000", "--delta", "0.09044571783527118"],
            # one symbol: beta is exactly 1 and log2 beta exactly 0
            ["--p1", "1", "--p2", "1", "--n", "5", "--delta", "0.1"],
        ],
    )
    def test_beta_of_one_prints_a_zero_exponent(self, argv):
        status, out, _ = run_cli(["stein", *argv])
        assert status == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert (row["beta_n"], row["stein_exponent_bits"]) == ("1", "0")
        assert not row["np_exponent_bits"].startswith("-")

    @pytest.mark.parametrize(
        "argv",
        [
            # the event holds every type: P is exactly 1 and log2 P exactly 0
            ["--p", "1,1", "--n", "10", "--symbol", "0", "--threshold", "0", "--mode", "lower"],
            # the same certain event, whose float sum rounds above 1 (log2 P
            # was 1.04e-14)
            ["--p", "2,8", "--n", "130", "--symbol", "0", "--threshold", "0", "--mode", "lower"],
            ["--p", "2,8", "--n", "130", "--symbol", "0", "--threshold", "1", "--mode", "upper"],
        ],
    )
    def test_sanov_certain_event_prints_a_zero_rate(self, argv):
        status, out, _ = run_cli(["sanov", *argv])
        assert status == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert (row["exact_prob"], row["rate_bits"]) == ("1", "0")

    def test_bad_epsilon_is_2_before_enumeration(self):
        # a cap of 1000 is far below the 176,851 types: a bad epsilon must be
        # rejected before the enumeration can hit the cap
        status, out, err = run_cli(
            ["stein", "--p1", "1,2,3,4", "--p2", "4,3,2,1", "--n", "100",
             "--delta", "0.05", "--epsilon", "0.7", "--cap", "1000"]
        )
        assert status == 2 and out == ""
        assert "epsilon" in err

    def test_sanov_symbol_outside_the_alphabet_is_2(self):
        # checked before anything is counted against the cap
        status, out, err = run_cli(
            ["sanov", "--p", "1,2,3,4,5,6,7,8", "--n", "2000", "--symbol", "9",
             "--threshold", "0.2"]
        )
        assert status == 2 and out == ""
        assert "symbol" in err

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_sanov_n_below_1_is_2(self, n):
        # n = 0 was a ZeroDivisionError (exit 1), n = -3 an empty event (exit 3)
        status, out, err = run_cli(
            ["sanov", "--p", "1,2", "--n", n, "--symbol", "0", "--threshold", "0.5"]
        )
        assert status == 2 and out == ""
        assert "n must be positive" in err

    def test_sanov_empty_event_is_3(self):
        # one symbol: the only type (5,) has Q(0) = 1 > 1/2
        status, out, err = run_cli(
            ["sanov", "--p", "1", "--n", "5", "--symbol", "0", "--threshold", "0.5",
             "--mode", "upper"]
        )
        assert status == 3 and out == ""
        assert err.strip() != ""

    def test_sanov_cap_counts_binomial_terms(self):
        argv = ["sanov", "--p", "1", "--n", "5", "--symbol", "0", "--threshold", "0.5"]
        assert run_cli(argv + ["--cap", "6"])[0] == 0
        status, out, err = run_cli(argv + ["--cap", "5"])
        assert status == 4 and out == ""
        assert "binomial terms" in err

    def test_bad_delta_is_2_before_enumeration(self):
        status, out, err = run_cli(
            ["stein", "--p1", "1,2,3,4", "--p2", "4,3,2,1", "--n", "100",
             "--delta", "0", "--cap", "1000"]
        )
        assert status == 2 and out == ""
        assert "delta" in err

    def test_nan_delta_is_2(self):
        # nan <= 0 is False: a nan band printed beta_n 0 and exited 0
        status, out, err = run_cli(
            ["stein", "--p1", "1,2", "--p2", "2,1", "--n", "20", "--delta", "nan"]
        )
        assert status == 2 and out == ""
        assert "delta" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["chernoff", "--p1", "1,2", "--p2", "1,2"],
            ["chernoff", "--p1", "1,2,3", "--p2", "2,1"],
            # D(p2||p1) = inf: the tilted family leaves the support of p1
            ["chernoff", "--p1", "1,0", "--p2", "1,1"],
        ],
    )
    def test_chernoff_bad_input_is_2(self, argv):
        status, out, err = run_cli(argv)
        assert status == 2 and out == ""
        assert err.startswith("errexp: ")

    def test_chernoff_pair_closer_than_its_rounding_is_2(self):
        # D(p1||p2) is below the rounding of the normalized weights, so the
        # computed tilt mean stays positive past lambda = 1
        status, out, err = run_cli(
            ["chernoff",
             "--p1", "0.9764403508229538,0.7767722662779667,0.8701159532064582,0.5703333820488687",
             "--p2", "0.9764403505095443,0.7767722668285244,0.8701159530553381,0.5703333824724192"]
        )
        assert status == 2 and out == ""
        assert "rounding of their normalization" in err

    def test_chernoff_tilt_at_either_end_is_2(self):
        # the computed D(p2||p1) of the first pair is <= 0, so lambda* lands on
        # 0; the mirror pair's lands past 1: both are refused alike
        first, mirror = (
            run_cli(["chernoff", "--p1", p1, "--p2", p2])
            for p1, p2 in (("1,1", "0.9999999999999999,1"), ("0.9999999999999999,1", "1,1"))
        )
        assert first == mirror
        status, out, err = first
        assert status == 2 and out == ""
        assert err.startswith("errexp: ") and "rounding of their normalization" in err

    def test_chernoff_divergences_are_never_negative(self):
        # the float D of a pair this close rounds below 0 (d1 read -8.0e-17)
        status, out, _ = run_cli(["chernoff", "--p1", "1,1", "--p2", "1.000000001,1"])
        assert status == 0
        header, rows = parse_csv(out)
        row = {k: float(v) for k, v in zip(header, rows[0])}
        assert 0.0 < row["lambda_star"] < 1.0
        for name in ("c_info_bits", "d1_bits", "d2_bits"):
            assert row[name] >= 0.0 and not rows[0][header.index(name)].startswith("-")

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["kl", "--p", "1,1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["chernoff", "--p1", "1,2", "--p2", "2,1", "--tol", "1e-10"],
            ["boltzmann", "--levels", "0,1,2", "--mean", "0.7", "--tol", "1e-10"],
        ],
        ids=["chernoff", "boltzmann"],
    )
    def test_tol_flag_is_a_usage_error(self, argv):
        # the solvers certify their answer by their own rounding bound
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-10" in err.getvalue()

    @pytest.mark.parametrize("tol", ["0", "nan"])
    def test_boltzmann_bad_tolerance_is_2(self, tol):
        # a tolerance that was once rejected as invalid is now refused with
        # the flag itself
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(["boltzmann", "--levels", "0,1,2", "--mean", "0.7", "--tol", tol])
        assert exc.value.code == 2 and out.getvalue() == ""
        assert f"unrecognized arguments: --tol {tol}" in err.getvalue()

    @pytest.mark.parametrize("dims", ["inf", "1e400", "nan", "4,-inf"])
    def test_detect_non_finite_dims_is_2(self, dims):
        status, out, err = run_cli(
            ["detect", "--dims", dims, "--amplitudes", "1", "--trials", "10"]
        )
        assert (status, out, err) == (2, "", f"errexp: expected integers in {dims!r}\n")


    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_detect_seed_outside_64_bits_is_2(self, seed):
        status, out, err = run_cli(
            ["detect", "--dims", "1", "--amplitudes", "1", "--trials", "10", "--seed", seed]
        )
        assert (status, out, err) == (2, "", "errexp: seed must fit in 64 unsigned bits\n")

    @pytest.mark.parametrize("target", [["--mean", "0"], ["--beta", "1"]])
    def test_boltzmann_levels_spanning_beyond_the_double_range_are_2(self, target):
        # the span overflowed to inf: --mean exited 3 with a nan bound and
        # --beta 0 after a RuntimeWarning
        status, out, err = run_cli(["boltzmann", "--levels=-1e308,1e308", *target])
        assert (status, out) == (2, "")
        assert err == "errexp: energy levels must span less than the double range\n"

    def test_kl_of_weights_whose_sum_overflows(self):
        # refused with "got np.float64(0.0)" while the sum overflowed
        status, out, _ = run_cli(["kl", "--p", "1e308,1e308", "--q", "1,1"])
        assert status == 0
        assert [float(x) for x in parse_csv(out)[1][0]] == [1.0, 1.0, 0.0, 0.0]

class TestSharedParser:
    # one process, one parser: every call must print what a fresh process,
    # with a freshly built parser, prints, whatever the calls before it parsed
    SEQUENCE = [
        ["kl", "--p", "1,1"],
        ["kl", "--p", "0.5,0.5", "--q", "0.25,0.75"],
        ["boltzmann", "--levels", "0,1,2", "--beta", "0.5"],
        ["boltzmann", "--levels", "0,1,2", "--mean", "0.8"],
        ["detect", "--dims", "1,4", "--amplitudes", "1", "--trials", "2000", "--seed", "3"],
        ["detect", "--dims", "1", "--amplitudes", "1", "--trials", "2000"],
        ["kl", "--p", "0,0", "--q", "1,1"],
        ["stein", "--p1", "1,2,3", "--p2", "3,2,1", "--n", "30", "--delta", "0.1"],
        ["chernoff", "--p1", "1,1", "--p2", "1,3"],
        ["types", "--n", "3", "--alphabet", "2", "--seed", "9"],
        ["boltzmann", "--levels", "0,1,2", "--beta", "1.5"],
    ]

    @staticmethod
    def run_in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
        return status, out.getvalue(), err.getvalue()

    @staticmethod
    def run_fresh(argv):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "errexp.cli", *argv],
            capture_output=True, env=env, timeout=120,
        )
        # bytes, so the CSV's \r\n line ends are compared as written
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()

    def test_reused_parser_matches_fresh_process(self):
        cli._shared_parser.cache_clear()
        reused = [self.run_in_process(argv) for argv in self.SEQUENCE]
        assert cli._shared_parser.cache_info().misses == 1
        assert [r[0] for r in reused] == [2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0]
        for argv, got in zip(self.SEQUENCE, reused):
            assert got == self.run_fresh(argv), argv


def test_python_m_errexp_matches_main():
    argv = ["stein", "--p1", "1,2,3,4", "--p2", "4,3,2,1", "--n", "20", "--delta", "0.1"]
    status, out, err = TestSharedParser.run_in_process(argv)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "errexp", *argv], capture_output=True, env=env, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (status, out.encode(), err.encode())
    assert status == 0


def full_parse(argv):
    return cli._shared_parser().parse_args(argv)


def argv_id(argv):
    return " ".join(argv) or "(empty)"


class TestParsePaths:
    """main() parses the tokens after a subcommand's name with that
    subcommand's parser; every argv must give the exit status, stdout and
    stderr of the full parse, errors and help included."""

    VALID = [
        ["kl", "--p", "1,1", "--q", "1,3"],
        ["types", "--n", "3", "--alphabet", "2"],
        ["sanov", "--p", "1,2,3", "--n", "20", "--symbol", "0", "--threshold", "0.4"],
        ["stein", "--p1", "1,2,3", "--p2", "3,2,1", "--n", "30", "--delta", "0.1"],
        ["chernoff", "--p1", "1,2,3", "--p2", "3,1,1"],
        ["boltzmann", "--levels", "0,1,2", "--mean", "0.8"],
        ["detect", "--dims", "1,4", "--amplitudes", "1", "--trials", "2000", "--seed", "3"],
        # an abbreviated flag, --flag=value, and a repeated flag (the last wins)
        ["sanov", "--p", "1,2", "--n", "5", "--symbol", "0", "--thr", "0.5", "--mode", "upper"],
        ["sanov", "--p=1,2", "--n=5", "--symbol=0", "--threshold=0.5"],
        ["sanov", "--p", "1,2", "--n", "5", "--n", "7", "--symbol", "0", "--threshold", "0.5"],
    ]
    INVALID = [
        [],
        ["--help"],
        ["nope", "--p", "1"],
        *([name, "-h"] for name in ("kl", "types", "sanov", "stein", "chernoff", "boltzmann", "detect")),
        # a missing required flag, a bad choice, a bad int
        ["sanov", "--p", "1,2", "--n", "5", "--symbol", "0"],
        ["sanov", "--p", "1,2", "--n", "5", "--symbol", "0", "--threshold", "0.5", "--mode", "mid"],
        ["types", "--n", "three", "--alphabet", "2"],
        # an unknown flag and a trailing positional, which the top-level
        # parser reports
        ["kl", "--p", "1,1", "--q", "1,3", "--bogus", "1"],
        ["kl", "--p", "1,1", "--q", "1,3", "extra"],
        ["kl", "--p", "1,1", "--q", "1,3", "--", "extra"],
    ]

    @staticmethod
    def outcome(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:
                status = ("SystemExit", exc.code)
        return status, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("argv", VALID + INVALID, ids=argv_id)
    def test_matches_the_full_parse(self, argv, monkeypatch):
        got = self.outcome(argv)
        monkeypatch.setattr(cli, "_parse_args", full_parse)
        assert got == self.outcome(argv)

    @pytest.mark.parametrize("argv", VALID, ids=argv_id)
    def test_same_namespace(self, argv):
        assert vars(cli._parse_args(argv)) == vars(full_parse(argv))

    def test_invalid_argv_exit_2_or_print_help(self):
        for argv in self.INVALID:
            status, _, _ = self.outcome(argv)
            assert status == ("SystemExit", 0 if {"-h", "--help"} & set(argv) else 2), argv

    def test_subcommand_argv_skip_the_top_level_parse(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("top-level parse")

        # instance entries shadow the class's methods, and undoing removes them
        parser = cli._shared_parser()
        monkeypatch.setitem(vars(parser), "parse_args", refuse)
        monkeypatch.setitem(vars(parser), "parse_known_args", refuse)
        for argv in self.VALID:
            assert self.outcome(argv)[0] == 0, argv

    def test_one_parser_tree(self):
        cli._shared_parser.cache_clear()
        for argv in self.VALID + self.INVALID:
            self.outcome(argv)
        assert cli._shared_parser.cache_info().misses == 1


class TestSharedTypePass:
    @staticmethod
    def _count_calls(monkeypatch, argv, module=testing):
        calls = {"_walk_types": [], "_rows_walk": []}
        for name in calls:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name].append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        status, _, _ = run_cli(argv)
        assert status == 0
        return calls

    def test_stein_enumerates_and_scores_once(self, monkeypatch):
        # one walk scores every type; no count matrix, no one-row scoring
        calls = self._count_calls(
            monkeypatch, ["stein", "--p1", "1,2,3", "--p2", "3,2,1", "--n", "30", "--delta", "0.1"]
        )
        assert calls == {"_walk_types": [(30, 3, 10**7)], "_rows_walk": []}

    def test_stein_walks_the_prefixes_once_at_k4(self, monkeypatch):
        # from four symbols one walk scores the prefixes, over the alphabet
        # with the last two symbols merged; the runs come from tables
        calls = self._count_calls(
            monkeypatch,
            ["stein", "--p1", "1,2,3,4", "--p2", "4,3,2,1", "--n", "30", "--delta", "0.1"],
        )
        assert calls == {"_walk_types": [(30, 3, 10**7)], "_rows_walk": []}

    def test_types_walks_once(self, monkeypatch):
        # every row of errexp types comes from one walk over the n-types,
        # none from scoring a single type
        calls = self._count_calls(
            monkeypatch, ["types", "--n", "30", "--alphabet", "4"], module=types_method
        )
        assert calls == {"_walk_types": [(30, 4, 10**7)], "_rows_walk": []}

    def test_stein_never_sorts(self, monkeypatch):
        # the NP threshold is found by selection, not from a global order
        def argsort(*args, **kwargs):
            raise AssertionError("np.argsort called")

        monkeypatch.setattr(np, "argsort", argsort)
        status, _, err = run_cli(
            ["stein", "--p1", "5,5,5,5", "--p2", "5,5,2,8", "--n", "40", "--delta", "0.1"]
        )
        assert status == 0 and err == ""

    def test_stein_output_matches_the_public_functions(self):
        h = BinaryHypothesis(make_distribution([1, 2, 3]), make_distribution([3, 2, 1]))
        status, out, _ = run_cli(
            ["stein", "--p1", "1,2,3", "--p2", "3,2,1", "--n", "40",
             "--delta", "0.1", "--epsilon", "0.07"]
        )
        assert status == 0
        header, rows = parse_csv(out)
        row = {k: float(v) for k, v in zip(header, rows[0])}
        report = stein_errors(h, 40, 0.1, 0.07)
        assert (row["alpha_n"], row["beta_n"]) == (2.0**report.log2_alpha, 2.0**report.log2_beta)
        assert row["stein_exponent_bits"] == -report.log2_beta / 40
        assert row["np_min_beta"] == 2.0**report.np_log2_beta


class TestSubnormalProbabilities:
    # p2 = (1e-320, 1): p1/p2 overflows a double, and log2 1e-320 lies far
    # below log2 1e-300

    def test_chernoff_matches_mpmath(self):
        status, out, _ = run_cli(["chernoff", "--p1", "1,1", "--p2", "1e-320,1"])
        assert status == 0
        _, rows = parse_csv(out)
        h = BinaryHypothesis(make_distribution([1, 1]), make_distribution([1e-320, 1]))
        lam, c_info = chernoff_oracle(h)
        assert abs(float(rows[0][0]) - lam) <= 1e-10
        assert float(rows[0][1]) == pytest.approx(c_info, rel=1e-12)

    def test_stein_matches_mpmath(self):
        # symbol 0 carries 1062 bits of LLR per count, so the band
        # |LLR - D| <= 0.5 holds the single type (25, 25)
        status, out, _ = run_cli(
            ["stein", "--p1", "1,1", "--p2", "1e-320,1", "--n", "50", "--delta", "0.5"]
        )
        assert status == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        q0, q1 = (mpmath.mpf(float(x)) for x in make_distribution([1e-320, 1]).probs)
        with mpmath.workdps(50):
            size = mpmath.binomial(50, 25)
            alpha = 1 - size / mpmath.mpf(2) ** 50
            exponent = -mpmath.log(size * q0**25 * q1**25, 2) / 50
        assert float(row["alpha_n"]) == pytest.approx(float(alpha), rel=1e-12)
        assert float(row["stein_exponent_bits"]) == pytest.approx(float(exponent), rel=1e-12)


def _boltzmann_solver_argvs():
    # 30 level sets shaped like a solver benchmark op: 3-8 levels in [0, 5]
    # at three decimals, and a target between the ground and the mean
    rng = np.random.default_rng(20261019)
    argvs = []
    while len(argvs) < 30:
        levels = [round(float(x), 3) for x in rng.uniform(0.0, 5.0, int(rng.integers(3, 9)))]
        lo, mean = min(levels), sum(levels) / len(levels)
        if mean - lo <= 0.05:
            continue
        target = round(lo + (mean - lo) * float(rng.uniform(0.05, 0.95)), 6)
        argvs.append(["boltzmann", "--levels", ",".join(map(repr, levels)), "--mean", repr(target)])
    return argvs


def test_boltzmann_output_bytes_are_pinned():
    # exit codes, stdout and stderr as the direct formula
    # exp(-beta * (levels - ground)) gave them; the shared Gibbs kernel
    # must keep them byte for byte
    digest = hashlib.sha256()
    for argv in _boltzmann_solver_argvs():
        status, out, err = run_cli(argv)
        digest.update(f"{status}\n{out}{err}".encode())
    assert digest.hexdigest() == "ad9bb49f7d300fe72a3c6f633e5c1b4b8a31826da215c03014c9029945f5cd5e"


# the floats of the contract sweep: zeros of both signs, subnormals, values
# near 1 and near the double range's ends, infinities and nan
_SWEEP_FLOATS = [
    "0", "-0", "5e-324", "1e-310", "1e-300", "1e-17", "1e-9", "0.05", "0.5", "1",
    "3", "-1", "-3", "1e17", "1e300", "1.7976931348623157e308", "-1e300", "inf",
    "-inf", "nan",
]


def _sweep_argv(rng):
    """One seeded argv of the contract sweep, every flag as --flag=value so
    that values such as -inf parse. A value is drawn from its flag's
    ordinary range, or a fifth of the time from _SWEEP_FLOATS."""

    def real(lo=0.0, hi=10.0):
        if rng.random() < 0.2:
            return _SWEEP_FLOATS[rng.integers(len(_SWEEP_FLOATS))]
        return repr(float(rng.uniform(lo, hi)))

    def weights(k):
        return ",".join(
            real() if rng.random() < 0.1 else str(int(rng.integers(1, 21))) for _ in range(k)
        )

    def cap():
        return [f"--cap={int(rng.integers(0, 50))}"] if rng.random() < 0.1 else []

    command = ("kl", "types", "sanov", "stein", "chernoff", "boltzmann", "detect")[
        rng.integers(7)
    ]
    k = int(rng.integers(1, 5))
    if command == "kl":
        return [command, f"--p={weights(k)}", f"--q={weights(k)}"]
    if command == "types":
        n, alphabet = int(rng.integers(-1, 16)), int(rng.integers(-1, 5))
        return [command, f"--n={n}", f"--alphabet={alphabet}", *cap()]
    if command == "sanov":
        n = int(rng.choice([-1, 0, 1, 7, 60, 3000]))
        return [
            command, f"--p={weights(k)}", f"--n={n}", f"--symbol={int(rng.integers(-1, k + 1))}",
            f"--threshold={real(0.0, 1.0)}", f"--mode={rng.choice(['lower', 'upper'])}", *cap(),
        ]
    if command == "stein":
        k = int(rng.integers(1, 4))
        n = int(rng.choice([-1, 0, 1, 9, 40, 2000]))
        return [
            command, f"--p1={weights(k)}", f"--p2={weights(k)}", f"--n={n}",
            f"--delta={real(0.0, 1.0)}", f"--epsilon={real(0.0, 0.5)}", *cap(),
        ]
    if command == "chernoff":
        return [command, f"--p1={weights(k)}", f"--p2={weights(k)}"]
    if command == "boltzmann":
        levels = ",".join(real(-5.0, 5.0) for _ in range(k + 1))
        flag = rng.choice(["--beta", "--mean"])
        return [command, f"--levels={levels}", f"{flag}={real(-1.0, 3.0)}"]
    dims = ",".join(str(int(rng.choice([-1, 0, 1, 1, 4, 4, 64, 10000]))) for _ in range(k))
    return [
        command, f"--dims={dims}", f"--amplitudes={real(0.0, 3.0)}",
        f"--trials={int(rng.choice([-1, 0, 1, 50]))}", f"--seed={int(rng.integers(0, 9))}",
    ]


def _detect_x(row):
    # Q's argument sqrt(N) m / 2
    return math.sqrt(int(row["dim"])) * float(row["amplitude"]) / 2.0


# each probability column of stein, sanov and detect, and how to tell from
# its row that a 0 there is exact or has a log2 of -inf; boltzmann's is in
# the test. detect's log2 is -inf where x^2 or N m^2 passes the double range
_ZERO_IS_EXACT = {
    "stein": {
        "alpha_n": lambda row: row["log2_alpha_n"] == "-inf",
        "beta_n": lambda row: row["log2_beta_n"] == "-inf",
        "np_min_beta": lambda row: row["np_log2_beta"] == "-inf",
    },
    "sanov": {"exact_prob": lambda row: row["rate_bits"] == "inf"},
    "detect": {
        "analytic_pe": lambda row: math.isinf(_detect_x(row) * _detect_x(row)),
        "chernoff_bound": lambda row: math.isinf(
            int(row["dim"]) * float(row["amplitude"]) * float(row["amplitude"])
        ),
    },
}


# argv the seeded sweep does not reach: a level 1.8e308 above the ground,
# whose log2 prob is -inf although beta times its height is finite
_SWEEP_FIXED = [
    [
        "boltzmann",
        "--levels=1.7976931348623157e308,-2.2959275027445267,-0.480481337503738,1.212879947840234",
        "--beta=0.9416318301612558",
    ],
]


def test_cli_contract_sweep():
    # seeded argv over all seven subcommands, and the fixed ones, run in
    # process with warnings as errors. The exit code is 0, 2, 3, 4 or 5; a
    # failing exit prints nothing on stdout and one errexp: line on stderr; at
    # exit 0 no cell is nan, stderr holds only warnings, and a probability
    # that prints 0 in stein, sanov, boltzmann or detect is exact or named by
    # a warning.
    rng = np.random.default_rng(20261020)
    statuses = set()
    for argv in [*_SWEEP_FIXED, *(_sweep_argv(rng) for _ in range(1500))]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, out, err = run_cli(argv)
        statuses.add(status)
        assert status in (0, 2, 3, 4, 5), argv
        lines = err.splitlines()
        if status:
            assert out == "" and len(lines) == 1 and lines[0].startswith("errexp: "), argv
            continue
        assert all(line.startswith("errexp: warning: ") for line in lines), argv
        header, cells = parse_csv(out)
        assert all(cell != "nan" for row in cells for cell in row), argv
        rows = [dict(zip(header, row)) for row in cells]
        columns = _ZERO_IS_EXACT.get(argv[0], {})
        if argv[0] == "boltzmann":
            # a level's log2 prob is -inf where beta * (level - ground) / ln 2,
            # its height in bits, passes the double range
            ground = min(float(row["energy"]) for row in rows)
            columns = {
                "prob": lambda row: math.isinf(
                    float(row["beta"]) * (float(row["energy"]) - ground) / math.log(2.0)
                )
            }
        for j, row in enumerate(rows):
            for name, exact in columns.items():
                if float(row[name]) == 0.0 and not exact(row):
                    notices = lines
                    if argv[0] == "boltzmann":
                        label = f"prob of level {j} "
                    elif argv[0] == "detect":
                        label = f"{name} (log2 "
                        cell = f"at dim {row['dim']}, amplitude {float(row['amplitude'])!r}"
                        notices = [line for line in lines if line.endswith(cell)]
                    else:
                        label = name
                    assert any(label in line for line in notices), (argv, name)
    assert statuses >= {0, 2, 3, 4}

# (argv, exit code, sha256 of stdout, sha256 of stderr, each its first 16 hex
# digits) of chernoff and boltzmann on both sides of the 8-symbol cut where
# the float branches end: identical pairs, zero and 1e-310 masses, pairs
# 1e-7 apart, the beta = 0 shortcut, levels near +-1e308, underflowing probs,
# -0.0 levels and each refusal. Recorded on the array code before the float
# branches reached past the solver's mean
SOLVER_BYTES = [
    ("chernoff --p1 1,3 --p2 2,1", 0, "6f934d84a7c202a0", "e3b0c44298fc1c14"),
    ("chernoff --p1 1,1 --p2 1,1", 2, "e3b0c44298fc1c14", "6168a0bdc4e01697"),
    ("chernoff --p1 0.5,0.5 --p2 0.5000001,0.4999999", 0, "43a1a0a664997897", "e3b0c44298fc1c14"),
    ("chernoff --p1 0.5,0.5 --p2 0.4999999,0.5000001", 0, "43a1a0a664997897", "e3b0c44298fc1c14"),
    ("chernoff --p1 1,0 --p2 1,1", 2, "e3b0c44298fc1c14", "d00fe68434f64538"),
    ("chernoff --p1 1e-310,1 --p2 1,1", 0, "5fd186d1cad424ad", "e3b0c44298fc1c14"),
    ("chernoff --p1 1,1 --p2 1e-17,1", 0, "710e8326ada20dfa", "e3b0c44298fc1c14"),
    ("chernoff --p1 1,2,3 --p2 3,1,1", 0, "b55ad857d549c073", "e3b0c44298fc1c14"),
    ("chernoff --p1 1,0,3 --p2 2,0,1", 0, "6f934d84a7c202a0", "e3b0c44298fc1c14"),
    ("chernoff --p1 1,1,1 --p2 1e-17,1,1e-9", 0, "4d6bbec1d5ba0c82", "e3b0c44298fc1c14"),
    ("chernoff --p1 3,7,2,9 --p2 5,1,8,2", 0, "8882475f9b4c7cd0", "e3b0c44298fc1c14"),
    ("chernoff --p1 3,7,2,9,1 --p2 5,1,8,2,6", 0, "4f80d50d2a4d90dd", "e3b0c44298fc1c14"),
    ("chernoff --p1 1,2,1e-310,4,5 --p2 5,4,1e-310,2,1", 0, "3c981e141cf39775", "e3b0c44298fc1c14"),
    ("chernoff --p1 1,2,3,4,5,6 --p2 6,5,4,3,2,1", 0, "f1865ed4ee4fc71d", "e3b0c44298fc1c14"),
    ("chernoff --p1 4,4,4,4,4,4,5 --p2 4,4,4,4,4,4,4", 0, "90bf978c621d5938", "e3b0c44298fc1c14"),
    ("chernoff --p1 1,1e-310,2,3,5,8,13 --p2 13,8,5,3,2,1,1", 0, "35528a4fbb6d7a98", "e3b0c44298fc1c14"),
    ("chernoff --p1 9,1,7,3,5,2,8,4 --p2 1,9,2,8,3,7,4,6", 0, "f9f72da8a6b63b2d", "e3b0c44298fc1c14"),
    ("chernoff --p1 1,0,3,4,5,6,7,8 --p2 8,0,6,5,4,3,2,1", 0, "1b55e1a2f03d5c4b", "e3b0c44298fc1c14"),
    ("chernoff --p1 1,2,3,4,5,6,7,8,9 --p2 9,8,7,6,5,4,3,2,1", 0, "0c6f157edfd947dd", "e3b0c44298fc1c14"),
    ("chernoff --p1 5,5,5,5,5,5,5,5,6 --p2 5,5,5,5,5,5,5,5,5", 0, "ebd440e1c051acaa", "e3b0c44298fc1c14"),
    ("chernoff --p1 2,3,5,7,11,13,17,19,23 --p2 23,19,17,13,11,7,5,3,2", 0, "3dd1dbfe126414bb", "e3b0c44298fc1c14"),
    ("boltzmann --levels 0,1 --mean 0.3", 0, "bc7c96a68a38849e", "e3b0c44298fc1c14"),
    ("boltzmann --levels 0,1 --beta 0.7", 0, "9f794c69082b367c", "e3b0c44298fc1c14"),
    ("boltzmann --levels 0,1000 --beta 1", 0, "396ed45803f07164", "2603dc23112f7bef"),
    ("boltzmann --levels 0,1,2 --mean 1", 0, "cd10a774b431425b", "e3b0c44298fc1c14"),
    ("boltzmann --levels 0,1,2 --mean 5", 3, "e3b0c44298fc1c14", "bdd188eeb58f4e6a"),
    ("boltzmann --levels 0,1,2 --mean nan", 2, "e3b0c44298fc1c14", "9aff7193693f44b0"),
    ("boltzmann --levels 0,1e300,2e300 --mean 5e299", 0, "e15dbd11e0db205b", "e3b0c44298fc1c14"),
    ("boltzmann --levels 1e308,1.1e308,1.5e308 --mean 1.1e308", 0, "56e3852cc963d6d1", "e3b0c44298fc1c14"),
    ("boltzmann --levels=-1.5e308,-1.2e308,-1e308 --mean=-1.4e308", 0, "e53e69e06a4cf629", "e3b0c44298fc1c14"),
    ("boltzmann --levels=-2,0.5,3.25,-0.75 --mean=-1.1", 0, "48c3588e27591d79", "e3b0c44298fc1c14"),
    ("boltzmann --levels=-2,0.5,3.25,-0.75 --beta 2.5", 0, "68c664273fafba6d", "e3b0c44298fc1c14"),
    ("boltzmann --levels 0.1,0.7,1.3,2.9,4.4 --mean 0.9", 0, "1d4ad465d4596f52", "e3b0c44298fc1c14"),
    ("boltzmann --levels 0.1,0.7,1.3,2.9,4.4 --beta 0", 0, "e6e7a271a5c99b15", "e3b0c44298fc1c14"),
    ("boltzmann --levels 3.1,0.2,4.7,1.8,2.2,0.9 --mean 1.2", 0, "d1da2de81f33ef58", "e3b0c44298fc1c14"),
    ("boltzmann --levels 0,-0,1,700,750,2 --beta 1", 0, "a89ad08078dfd55f", "b5176830e9536bff"),
    ("boltzmann --levels 1,2,3,4,5,6,7 --mean 1.0001", 0, "7a30e6696ea3111b", "e3b0c44298fc1c14"),
    ("boltzmann --levels 1,2,3,4,5,6,7 --beta 1e6", 0, "dacdbd273f9913f7", "4e9e269b97353a61"),
    ("boltzmann --levels 0.5,1.5,2.5,3.5,4.5,0.25,1.25,2.25 --mean 1.3", 0, "a842c4b409633667", "e3b0c44298fc1c14"),
    ("boltzmann --levels 0.5,1.5,2.5,3.5,4.5,0.25,1.25,2.25 --beta 0.4", 0, "c519f94be98796a7", "e3b0c44298fc1c14"),
    ("boltzmann --levels 1,2,3,4,5,6,7,8,9 --mean 2", 0, "975342f8c5da78b0", "e3b0c44298fc1c14"),
    ("boltzmann --levels 1,2,3,4,5,6,7,8,9 --beta 3", 0, "fac68e19495e1b84", "e3b0c44298fc1c14"),
    ("boltzmann --levels 4 --mean 4", 2, "e3b0c44298fc1c14", "cea60007135e9050"),
    ("boltzmann --levels 0,1,inf --beta 1", 2, "e3b0c44298fc1c14", "f4c831646519e942"),
    ("boltzmann --levels 0,1,2 --beta=-1", 2, "e3b0c44298fc1c14", "63e40253f39eabfc"),
    ("boltzmann --levels=1e308,-1e308 --beta=1", 2, "e3b0c44298fc1c14", "93cbf1b9771a41b0"),
    ("boltzmann --levels=0,-0,1 --mean=5", 3, "e3b0c44298fc1c14", "0092826f47a8d3d0"),
    ("boltzmann --levels=-0,0,1 --mean=5", 3, "e3b0c44298fc1c14", "f1d81cd156c59a2a"),
    ("boltzmann --levels=0,-0,1 --mean=0.2", 0, "3a77dcb3ce609e98", "e3b0c44298fc1c14"),
]


@pytest.mark.parametrize(
    "argv, status, out_sha, err_sha", SOLVER_BYTES, ids=[a for a, *_ in SOLVER_BYTES]
)
def test_solver_output_bytes_are_pinned(argv, status, out_sha, err_sha):
    got, out, err = run_cli(argv.split())
    digest = [hashlib.sha256(text.encode()).hexdigest()[:16] for text in (out, err)]
    assert (got, *digest) == (status, out_sha, err_sha), (out, err)
