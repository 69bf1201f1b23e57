import csv
import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from errexp import ValidationError
from errexp import cli
from errexp.cli import main, parse_distribution


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

    def test_types(self):
        status, out, _ = run_cli(["types", "--n", "3", "--alphabet", "2"])
        assert status == 0
        header, rows = parse_csv(out)
        assert len(rows) == 4
        assert rows[1][0] == "1;2"
        assert int(rows[1][3]) == 3

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

    def test_resource_cap_is_4(self):
        status, _, err = run_cli(
            ["types", "--n", "200", "--alphabet", "5", "--cap", "100"]
        )
        assert status == 4
        assert err.strip() != ""

    def test_np_beta_underflow_is_reported(self):
        # beta < 2^-1074 at n = 8000 still prints 0 (a known defect), but
        # says so on stderr instead of raising numpy's log2(0) warning
        status, out, err = run_cli(
            ["stein", "--p1", "1,1", "--p2", "1,3", "--n", "8000", "--delta", "0.1"]
        )
        assert status == 0
        assert "np_min_beta underflowed" in err

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["kl", "--p", "1,1"])
        assert exc.value.code == 2


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
        ["chernoff", "--p1", "1,1", "--p2", "1,3", "--tol", "1e-6"],
        ["types", "--n", "3", "--alphabet", "2", "--seed", "9"],
        ["boltzmann", "--levels", "0,1,2", "--beta", "1.5", "--tol", "1e-3"],
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
