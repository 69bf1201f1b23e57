"""Command-line front end: every experiment as a subcommand emitting CSV.

Output is CSV with a fixed, documented column order per subcommand; floats
are serialized with 17 significant digits so values round-trip losslessly,
and infinite relative entropy appears as the literal token ``inf``. A single
``--seed`` flag is accepted by every subcommand and ignored by the
deterministic ones, so scripted sweeps can pass it uniformly.

Exit codes: 0 success, 2 usage/validation, 3 infeasible constraint,
4 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys

import numpy as np

from .boltzmann import EnergySystem, boltzmann_distribution, mean_energy, solve_beta
from .detection import sweep
from .dist import DiscreteDistribution, entropy, kl_divergence, make_distribution
from .errors import InfeasibleError, ResourceCapError, ValidationError
from .testing import (
    BinaryHypothesis,
    chernoff_lambda_star,
    neyman_pearson_min_beta,
    stein_errors,
)
from .types_method import (
    ConstraintSet,
    enumerate_types,
    sanov_exact_log2_prob,
    sanov_exponent,
    type_class_size,
    type_class_size_bounds,
)

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_INFEASIBLE = 3
_EXIT_RESOURCE = 4


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def parse_distribution(text: str) -> DiscreteDistribution:
    """Comma-separated nonnegative reals, normalized to a distribution."""
    try:
        weights = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"cannot parse distribution {text!r}") from exc
    if not weights:
        raise ValidationError("empty distribution")
    return make_distribution(np.asarray(weights))


def _parse_floats(text: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"cannot parse list {text!r}") from exc
    if not vals:
        raise ValidationError("empty list")
    return vals


def _parse_ints(text: str) -> list[int]:
    vals = _parse_floats(text)
    out = [int(v) for v in vals]
    if any(i != v for i, v in zip(out, vals)):
        raise ValidationError(f"expected integers in {text!r}")
    return out


def _run_kl(args):
    p = parse_distribution(args.p)
    q = parse_distribution(args.q)
    header = ["entropy_p_bits", "entropy_q_bits", "kl_pq_bits", "kl_qp_bits"]
    rows = [[entropy(p), entropy(q), kl_divergence(p, q), kl_divergence(q, p)]]
    return header, rows


def _run_types(args):
    header = ["counts", "n", "log2_size", "exact_size", "lower_log2", "upper_log2"]
    rows = []
    for t in enumerate_types(args.n, args.alphabet, cap=args.cap):
        log2_size, exact = type_class_size(t)
        lower, upper = type_class_size_bounds(t)
        rows.append(
            [
                ";".join(str(c) for c in t.counts),
                t.n,
                log2_size,
                "" if exact is None else exact,
                lower,
                upper,
            ]
        )
    return header, rows


def _run_sanov(args):
    p = parse_distribution(args.p)
    pi = ConstraintSet(mode=args.mode, symbol=args.symbol, threshold=args.threshold)
    d_star, minimizer = sanov_exponent(pi, p, args.n, cap=args.cap)
    log2_prob = sanov_exact_log2_prob(pi, p, args.n, cap=args.cap)
    header = [
        "n",
        "symbol",
        "mode",
        "threshold",
        "d_star_bits",
        "minimizer_counts",
        "exact_prob",
        "rate_bits",
    ]
    rows = [
        [
            args.n,
            args.symbol,
            args.mode,
            args.threshold,
            d_star,
            ";".join(str(c) for c in minimizer.counts),
            2.0**log2_prob,
            -log2_prob / args.n,
        ]
    ]
    return header, rows


def _run_stein(args):
    h = BinaryHypothesis(parse_distribution(args.p1), parse_distribution(args.p2))
    report = stein_errors(h, args.n, args.delta, cap=args.cap)
    np_beta = neyman_pearson_min_beta(h, args.n, args.epsilon, cap=args.cap)
    if np_beta > 0.0:
        np_exponent = -np.log2(np_beta) / args.n
    else:
        # p1 << p2 keeps the exact beta positive, so 0 is an underflow
        print(
            "errexp: warning: np_min_beta underflowed to 0 (below 2^-1074); "
            "np_exponent_bits is not meaningful",
            file=sys.stderr,
        )
        np_exponent = math.inf
    header = [
        "n",
        "delta",
        "epsilon",
        "alpha_n",
        "beta_n",
        "stein_exponent_bits",
        "np_min_beta",
        "np_exponent_bits",
    ]
    rows = [
        [
            report.n,
            report.delta,
            args.epsilon,
            report.alpha_n,
            report.beta_n,
            report.exponent,
            np_beta,
            np_exponent,
        ]
    ]
    return header, rows


def _run_chernoff(args):
    h = BinaryHypothesis(parse_distribution(args.p1), parse_distribution(args.p2))
    report = chernoff_lambda_star(h, tol=args.tol)
    header = ["lambda_star", "c_info_bits", "d1_bits", "d2_bits"]
    rows = [[report.lambda_star, report.c_info, report.d1, report.d2]]
    return header, rows


def _run_boltzmann(args):
    levels = np.asarray(_parse_floats(args.levels))
    if args.beta is not None:
        beta = args.beta
    else:
        beta = solve_beta(levels, args.mean, tol=args.tol)
    sys_ = EnergySystem(levels, beta)
    probs = boltzmann_distribution(sys_).probs
    mean = mean_energy(sys_)
    header = ["level_index", "energy", "prob", "beta", "mean_energy"]
    rows = [
        [j, float(levels[j]), float(probs[j]), beta, mean] for j in range(levels.size)
    ]
    return header, rows


def _run_detect(args):
    rows_out = sweep(
        _parse_ints(args.dims), _parse_floats(args.amplitudes), args.trials, args.seed
    )
    header = ["dim", "amplitude", "analytic_pe", "chernoff_bound", "empirical_pe", "trials"]
    rows = [
        [r.dim, r.amplitude, r.analytic_pe, r.chernoff_bound, r.empirical_pe, r.trials]
        for r in rows_out
    ]
    return header, rows


def _add_common(sub):
    sub.add_argument("--output", help="write CSV here instead of stdout")
    sub.add_argument(
        "--seed",
        type=int,
        default=0,
        help="64-bit seed for stochastic subcommands (ignored elsewhere)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="errexp",
        description="Error exponents, max-entropy level occupation, and "
        "Gaussian binary detection experiments (CSV output).",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_kl = subs.add_parser("kl", help="entropy and relative entropy of two distributions (bits)")
    p_kl.add_argument("--p", required=True, help="comma-separated weights, normalized")
    p_kl.add_argument("--q", required=True, help="comma-separated weights, normalized")
    p_kl.set_defaults(func=_run_kl)

    p_types = subs.add_parser("types", help="enumerate n-types with class sizes and bounds (log2)")
    p_types.add_argument("--n", type=int, required=True, help="sequence length")
    p_types.add_argument("--alphabet", type=int, required=True, help="alphabet size")
    p_types.add_argument("--cap", type=int, default=10_000_000, help="enumeration cap")
    p_types.set_defaults(func=_run_types)

    p_sanov = subs.add_parser(
        "sanov", help="large-deviation rate and exact probability of a half-space event (bits)"
    )
    p_sanov.add_argument("--p", required=True, help="source distribution weights")
    p_sanov.add_argument("--n", type=int, required=True, help="sample size")
    p_sanov.add_argument("--symbol", type=int, required=True, help="constrained symbol index")
    p_sanov.add_argument("--threshold", type=float, required=True, help="mass threshold in [0,1]")
    p_sanov.add_argument(
        "--mode", choices=["lower", "upper"], default="lower",
        help="keep Q(symbol) >= threshold (lower) or <= threshold (upper)",
    )
    p_sanov.add_argument("--cap", type=int, default=10_000_000, help="enumeration cap")
    p_sanov.set_defaults(func=_run_sanov)

    p_stein = subs.add_parser(
        "stein", help="exact two-sided-region errors and Neyman-Pearson optimum (bits)"
    )
    p_stein.add_argument("--p1", required=True, help="null-hypothesis weights")
    p_stein.add_argument("--p2", required=True, help="alternative weights")
    p_stein.add_argument("--n", type=int, required=True, help="sample size")
    p_stein.add_argument("--delta", type=float, required=True, help="region half-width in bits")
    p_stein.add_argument(
        "--epsilon", type=float, default=0.05, help="alpha constraint for the NP optimum"
    )
    p_stein.add_argument("--cap", type=int, default=10_000_000, help="enumeration cap")
    p_stein.set_defaults(func=_run_stein)

    p_chern = subs.add_parser("chernoff", help="equalizing tilt and Chernoff information (bits)")
    p_chern.add_argument("--p1", required=True)
    p_chern.add_argument("--p2", required=True)
    p_chern.add_argument("--tol", type=float, default=1e-10, help="equalization tolerance, bits")
    p_chern.set_defaults(func=_run_chernoff)

    p_boltz = subs.add_parser(
        "boltzmann",
        help="level occupation at fixed beta, or beta solved from a mean energy (natural log)",
    )
    p_boltz.add_argument("--levels", required=True, help="comma-separated energies")
    group = p_boltz.add_mutually_exclusive_group(required=True)
    group.add_argument("--beta", type=float, help="inverse temperature")
    group.add_argument("--mean", type=float, help="target mean energy to invert for beta")
    p_boltz.add_argument("--tol", type=float, default=1e-10, help="mean-energy tolerance")
    p_boltz.set_defaults(func=_run_boltzmann)

    p_det = subs.add_parser("detect", help="Monte Carlo detection sweep vs analytic error")
    p_det.add_argument("--dims", required=True, help="comma-separated noise dimensions")
    p_det.add_argument("--amplitudes", required=True, help="comma-separated signal amplitudes")
    p_det.add_argument("--trials", type=int, default=1_000_000, help="trials per cell")
    p_det.set_defaults(func=_run_detect)

    for sub in (p_kl, p_types, p_sanov, p_stein, p_chern, p_boltz, p_det):
        _add_common(sub)

    return parser


# building this argparse tree costs more than most subcommands' own work,
# and parsing does not mutate it, so main() builds it once and reuses it
_shared_parser = functools.cache(build_parser)


def _write_csv(header, rows, output_path):
    if output_path:
        with open(output_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        header, rows = args.func(args)
    except ResourceCapError as exc:
        print(f"errexp: {exc}", file=sys.stderr)
        return _EXIT_RESOURCE
    except InfeasibleError as exc:
        print(f"errexp: {exc}", file=sys.stderr)
        return _EXIT_INFEASIBLE
    except (ValidationError, ValueError) as exc:
        print(f"errexp: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    _write_csv(header, rows, args.output)
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
