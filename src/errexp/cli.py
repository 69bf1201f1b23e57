"""Command-line front end: every experiment as a subcommand emitting CSV.

Output is CSV with a fixed, documented column order per subcommand; floats
are serialized with 17 significant digits so values round-trip losslessly,
and infinite relative entropy appears as the literal token ``inf``. A single
``--seed`` flag is accepted by every subcommand and ignored by the
deterministic ones, so scripted sweeps can pass it uniformly.

Exit codes: 0 success, 2 usage/validation, 3 infeasible constraint,
4 resource cap exceeded (types enumerated; binomial terms for sanov),
5 solver failure: a bracket search or the rounding bound certifying an answer
failed (no tolerance is asked for; chernoff reports bits, boltzmann energy).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import math
import sys

from .boltzmann import EnergySystem, _law_and_mean, _log2_law, solve_beta
from .detection import analytic_log2_error, chernoff_log2_error_bound, sweep
from .dist import DiscreteDistribution, entropy, kl_divergence, make_distribution
from .errors import ConvergenceError, InfeasibleError, ResourceCapError, ValidationError
from .testing import BinaryHypothesis, chernoff_lambda_star, stein_errors
from .types_method import (
    ENUMERATION_CAP,
    ConstraintSet,
    sanov_exact_log2_prob,
    sanov_exponent,
    type_classes,
)

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_INFEASIBLE = 3
_EXIT_RESOURCE = 4
_EXIT_CONVERGENCE = 5


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
    return make_distribution(weights)


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
    # is_integer() is False for inf and nan, which int() would raise on
    if not all(v.is_integer() for v in vals):
        raise ValidationError(f"expected integers in {text!r}")
    return [int(v) for v in vals]


def _run_kl(args):
    p = parse_distribution(args.p)
    q = parse_distribution(args.q)
    header = ["entropy_p_bits", "entropy_q_bits", "kl_pq_bits", "kl_qp_bits"]
    rows = [[entropy(p), entropy(q), kl_divergence(p, q), kl_divergence(q, p)]]
    return header, rows


def _run_types(args):
    header = ["counts", "n", "log2_size", "exact_size", "lower_log2", "upper_log2"]
    # the cap is checked by this call; the rows then stream to the writer
    classes = type_classes(args.n, args.alphabet, cap=args.cap)
    rows = (
        [";".join(map(str, c)), args.n, log2_size, "" if exact is None else exact, lower, upper]
        for c, log2_size, exact, lower, upper in classes
    )
    return header, rows


def _warn_underflow(columns, note: str) -> None:
    """Name on stderr the probability columns, given as (name, printed value,
    log2 value), that print as 0 although their log2 is finite."""
    names = [name for name, p, x in columns if p == 0.0 and math.isfinite(x)]
    if names:
        print(
            f"errexp: warning: {', '.join(names)} underflowed to 0 (below 2^-1074); {note}",
            file=sys.stderr,
        )


def _run_sanov(args):
    p = parse_distribution(args.p)
    pi = ConstraintSet(mode=args.mode, symbol=args.symbol, threshold=args.threshold)
    d_star, minimizer = sanov_exponent(pi, p, args.n, cap=args.cap)
    log2_prob = sanov_exact_log2_prob(pi, p, args.n, cap=args.cap)
    prob = 2.0**log2_prob
    _warn_underflow([("exact_prob", prob, log2_prob)], "rate_bits holds its -log2 / n")
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
            prob,
            # + 0.0 prints a rate of 0 (P = 1) as 0, not -0
            -log2_prob / args.n + 0.0,
        ]
    ]
    return header, rows


def _run_stein(args):
    h = BinaryHypothesis(parse_distribution(args.p1), parse_distribution(args.p2))
    r = stein_errors(h, args.n, args.delta, args.epsilon, args.cap)
    # every linear column is 2 ** its log2, every exponent -log2 / n; log2 is
    # at most 0, and + 0.0 prints an exponent of 0 (a probability of 1) as 0,
    # not -0
    alpha, beta, np_beta = (2.0**x for x in (r.log2_alpha, r.log2_beta, r.np_log2_beta))
    stein_exponent, np_exponent = (-x / args.n + 0.0 for x in (r.log2_beta, r.np_log2_beta))
    _warn_underflow(
        [("beta_n", beta, r.log2_beta), ("np_min_beta", np_beta, r.np_log2_beta)],
        "the exponent columns hold their log2 / n",
    )
    _warn_underflow([("alpha_n", alpha, r.log2_alpha)], f"log2 alpha_n = {r.log2_alpha!r}")
    header = [
        "n",
        "delta",
        "epsilon",
        "alpha_n",
        "beta_n",
        "stein_exponent_bits",
        "np_min_beta",
        "np_exponent_bits",
        "log2_alpha_n",
        "log2_beta_n",
        "np_log2_beta",
    ]
    rows = [
        [
            r.n,
            r.delta,
            r.epsilon,
            alpha,
            beta,
            stein_exponent,
            np_beta,
            np_exponent,
            # + 0.0 prints a log2 of 0 (a probability of 1) as 0, not -0
            r.log2_alpha + 0.0,
            r.log2_beta + 0.0,
            r.np_log2_beta + 0.0,
        ]
    ]
    return header, rows


def _run_chernoff(args):
    h = BinaryHypothesis(parse_distribution(args.p1), parse_distribution(args.p2))
    report = chernoff_lambda_star(h)
    header = ["lambda_star", "c_info_bits", "d1_bits", "d2_bits"]
    rows = [[report.lambda_star, report.c_info, report.d1, report.d2]]
    return header, rows


def _run_boltzmann(args):
    levels = _parse_floats(args.levels)
    beta = args.beta if args.beta is not None else solve_beta(levels, args.mean)
    sys_ = EnergySystem(levels, beta)
    probs, mean = _law_and_mean(sys_)
    if not all(probs):
        # the log2 of the law is formed only where a prob prints as 0
        columns = enumerate(zip(probs, _log2_law(sys_).tolist()))
        _warn_underflow(
            [(f"prob of level {j} (log2 {x!r})", p, x) for j, (p, x) in columns],
            "each log2 is the Gibbs log weight less ln Z, in bits",
        )
    header = ["level_index", "energy", "prob", "beta", "mean_energy"]
    rows = [[j, e, p, beta, mean] for j, (e, p) in enumerate(zip(levels, probs))]
    return header, rows


def _run_detect(args):
    rows_out = sweep(
        _parse_ints(args.dims), _parse_floats(args.amplitudes), args.trials, args.seed
    )
    for r in rows_out:
        if not (r.analytic_pe and r.chernoff_bound):
            # each column is 2 ** its log2, formed again only where one prints 0
            columns = [
                ("analytic_pe", r.analytic_pe, analytic_log2_error(r.dim, r.amplitude)),
                ("chernoff_bound", r.chernoff_bound, chernoff_log2_error_bound(r.dim, r.amplitude)),
            ]
            notice = f"at dim {r.dim}, amplitude {r.amplitude!r}"
            _warn_underflow([(f"{name} (log2 {x!r})", p, x) for name, p, x in columns], notice)
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
    p_types.add_argument("--cap", type=int, default=ENUMERATION_CAP, help="types cap (bounds time)")
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
    p_sanov.add_argument(
        "--cap", type=int, default=ENUMERATION_CAP, help="cap on the n + 1 binomial terms"
    )
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
    p_stein.add_argument("--cap", type=int, default=ENUMERATION_CAP, help="enumeration cap")
    p_stein.set_defaults(func=_run_stein)

    p_chern = subs.add_parser("chernoff", help="equalizing tilt and Chernoff information (bits)")
    p_chern.add_argument("--p1", required=True)
    p_chern.add_argument("--p2", required=True)
    p_chern.set_defaults(func=_run_chernoff)

    p_boltz = subs.add_parser(
        "boltzmann",
        help="level occupation at fixed beta, or beta solved from a mean energy (natural log)",
    )
    p_boltz.add_argument("--levels", required=True, help="comma-separated energies")
    group = p_boltz.add_mutually_exclusive_group(required=True)
    group.add_argument("--beta", type=float, help="inverse temperature")
    group.add_argument("--mean", type=float, help="target mean energy to invert for beta")
    p_boltz.set_defaults(func=_run_boltzmann)

    p_det = subs.add_parser("detect", help="Monte Carlo detection sweep vs analytic error")
    p_det.add_argument("--dims", required=True, help="comma-separated noise dimensions")
    p_det.add_argument("--amplitudes", required=True, help="comma-separated signal amplitudes")
    p_det.add_argument("--trials", type=int, default=1_000_000, help="trials per cell")
    p_det.set_defaults(func=_run_detect)

    for sub in (p_kl, p_types, p_sanov, p_stein, p_chern, p_boltz, p_det):
        _add_common(sub)

    # subcommand name -> its parser, for the one-level parse of main()
    parser.subcommands = subs.choices
    return parser


# building this argparse tree costs more than most subcommands' own work,
# and parsing does not mutate it, so main() builds it once and reuses it
_shared_parser = functools.cache(build_parser)


def _parse_args(argv):
    """The namespace ``_shared_parser().parse_args(argv)`` gives.

    The top-level parser hands every token after the subcommand's name to
    that subcommand's parser, so parsing them with it directly gives the
    same namespace, errors and help, without the top-level pass. Anything
    else (no subcommand first, or tokens the subcommand leaves unparsed,
    which the top-level parser reports) takes the full parse.
    """
    parser = _shared_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is not None:
        args, extra = sub.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def _write_csv(header, rows, output_path):
    if output_path:
        target = open(output_path, "w", newline="")
    else:
        target = contextlib.nullcontext(sys.stdout)
    with target as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        header, rows = args.func(args)
    except ResourceCapError as exc:
        print(f"errexp: {exc}", file=sys.stderr)
        return _EXIT_RESOURCE
    except InfeasibleError as exc:
        print(f"errexp: {exc}", file=sys.stderr)
        return _EXIT_INFEASIBLE
    except ConvergenceError as exc:
        print(f"errexp: {exc}", file=sys.stderr)
        return _EXIT_CONVERGENCE
    except (ValidationError, ValueError) as exc:
        print(f"errexp: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    _write_csv(header, rows, args.output)
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
