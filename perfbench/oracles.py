"""Independent oracles for every benchmark operation.

Nothing here calls errexp. Exact quantities are recomputed from the
integer weights the generator wrote into argv:

- single-symbol Sanov events and every k=2 Stein/Neyman-Pearson quantity
  are Binomial(n, p_a) ranges, summed in log space with mpmath;
- k>=3 Stein and Neyman-Pearson quantities are recomputed over a
  brute-force type list (stars and bars via itertools) with exact integer
  numerators n!/prod(c!) * prod(w^c), summed exactly and finished in mpmath;
- Chernoff outputs are re-derived from the printed tilt, Boltzmann outputs
  from the printed beta, and each Monte Carlo error rate must have a Wilson
  interval that contains the analytic error Q(sqrt(N) m / 2).

``check_op`` compares one operation's CSV against these and returns a
:class:`Verdict`. A mismatch on a linear-domain value whose exact log2 lies
below the normal double range (beta printed as 0, or as a subnormal with
the exponent derived from it) is attributed to the known silent-underflow
defect; the operation still counts as failed.
"""

from __future__ import annotations

import bisect
import csv
import io
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np
from mpmath import mpf

_DPS = 40
_LOG2_MIN_NORMAL = -1022
_TINY = 2.0**-1074
WILSON_Z = 6.0

# tolerances: linear probabilities relative, exponents and divergences
# absolute. float64 log-factorials near n = 8000 carry ~1e-11 relative error
# per class, which the NP boundary randomization amplifies to ~1e-9 in beta;
# REL_TOL keeps a 100x margin above that.
REL_TOL = 1e-7
EXP_TOL = 1e-9
ALPHA_TOL = 1e-9
KL_TOL = 1e-10

UNDERFLOW = "underflow"


@dataclass
class Verdict:
    ok: bool = True
    reasons: list = field(default_factory=list)
    # every reason is the known silent-underflow defect
    known_defect: bool = False
    # Monte Carlo cells: (cell key, empirical, exact)
    mc: tuple | None = None

    def fail(self, reason: str, underflow: bool = False) -> None:
        self.ok = False
        self.reasons.append(f"{UNDERFLOW}: {reason}" if underflow else reason)
        self.known_defect = all(r.startswith(UNDERFLOW) for r in self.reasons)


# ---------------------------------------------------------------------------
# log-space binomial ranges
# ---------------------------------------------------------------------------


def log2_binom_range(n: int, p, lo: int, hi: int):
    """log2 of P(lo <= X <= hi) for X ~ Binomial(n, p), as an mpf.

    Sums outward from the largest term of the range; the pmf is log-concave,
    so terms fall monotonically away from it and the walk stops once they are
    2**-200 below the largest.
    """
    lo, hi = max(lo, 0), min(hi, n)
    if lo > hi:
        return mpf("-inf")
    with mpmath.workdps(_DPS):
        p = mpf(p)
        q = 1 - p
        mode = min(max(int(mpmath.floor((n + 1) * p)), lo), hi)
        log_mode = (
            mpmath.loggamma(n + 1) - mpmath.loggamma(mode + 1) - mpmath.loggamma(n - mode + 1)
            + mode * mpmath.log(p) + (n - mode) * mpmath.log(q)
        )
        floor = mpf(2) ** -200
        total = mpf(1)
        up, down = p / q, q / p
        term, c = mpf(1), mode
        while c < hi:
            term *= (n - c) * up / (c + 1)
            c += 1
            total += term
            if term < floor:
                break
        term, c = mpf(1), mode
        while c > lo:
            term *= c * down / (n - c + 1)
            c -= 1
            total += term
            if term < floor:
                break
        return (log_mode + mpmath.log(total)) / mpmath.log(2)


def _bits_kl(p, q) -> mpf:
    return mpmath.fsum(a * mpmath.log(a / b, 2) for a, b in zip(p, q) if a > 0)


def _probs(weights) -> list:
    total = sum(weights)
    return [mpf(w) / total for w in weights]


# ---------------------------------------------------------------------------
# Stein region and Neyman-Pearson optimum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SteinExact:
    alpha: float  # correctly rounded
    log2_beta: mpf  # Stein region
    log2_np_beta: mpf  # randomized NP optimum


def brute_force_types(n: int, k: int) -> np.ndarray:
    """All count vectors of length k summing to n, by stars and bars."""
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n + k - 1), k - 1)),
        dtype=np.int64,
    ).reshape(-1, k - 1)
    edges = np.concatenate(
        [np.full((bars.shape[0], 1), -1), bars, np.full((bars.shape[0], 1), n + k - 1)], axis=1
    )
    return np.diff(edges, axis=1) - 1


def _llr_bits(w1, w2) -> list:
    p1, p2 = _probs(w1), _probs(w2)
    return [mpmath.log(a / b, 2) for a, b in zip(p1, p2)]


def stein_exact(w1, w2, n: int, delta: float, epsilon: float) -> SteinExact:
    with mpmath.workdps(_DPS):
        d = _llr_bits(w1, w2)
        kl = float(_bits_kl(_probs(w1), _probs(w2)))
        if len(w1) == 2:
            return _stein_binomial(w1, w2, n, delta, epsilon, d, kl)
        return _stein_types(w1, w2, n, delta, epsilon, d, kl)


def _stein_binomial(w1, w2, n, delta, epsilon, d, kl) -> SteinExact:
    # type c = count of symbol 0; the average LLR is linear in c
    p1, p2 = mpf(w1[0]) / sum(w1), mpf(w2[0]) / sum(w2)

    def llr(c):
        return float((c * d[0] + (n - c) * d[1]) / n)

    rising = d[0] > d[1]
    lo_edge, hi_edge = kl - delta, kl + delta
    members = _region_counts(n, llr, lo_edge, hi_edge)
    if members:
        c_lo, c_hi = min(members), max(members)
        log2_beta = log2_binom_range(n, p2, c_lo, c_hi)
        in1 = mpf(2) ** log2_binom_range(n, p1, c_lo, c_hi)
        alpha = float(1 - in1)
    else:
        log2_beta, alpha = mpf("-inf"), 1.0

    # NP: accept classes in decreasing LLR order until p1-mass reaches 1-eps
    target = 1 - mpf(epsilon)

    def accepted_before(c):
        """p1-mass of the classes ranked strictly before class c, log2."""
        return log2_binom_range(n, p1, c + 1, n) if rising else log2_binom_range(n, p1, 0, c - 1)

    # the boundary is the first class (in rank order) whose inclusion reaches target
    lo, hi = 0, n
    if rising:
        # mass of [c, n] decreases in c: largest c with mass([c, n]) >= target
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if mpf(2) ** log2_binom_range(n, p1, mid, n) >= target:
                lo = mid
            else:
                hi = mid - 1
    else:
        # mass of [0, c] increases in c: smallest c with mass([0, c]) >= target
        while lo < hi:
            mid = (lo + hi) // 2
            if mpf(2) ** log2_binom_range(n, p1, 0, mid) >= target:
                hi = mid
            else:
                lo = mid + 1
    b = lo
    acc = mpf(2) ** accepted_before(b)
    mass_b = mpf(2) ** log2_binom_range(n, p1, b, b)
    gamma = min(mpf(1), (target - acc) / mass_b)
    before2 = (
        log2_binom_range(n, p2, b + 1, n) if rising else log2_binom_range(n, p2, 0, b - 1)
    )
    beta = mpf(2) ** before2 + gamma * mpf(2) ** log2_binom_range(n, p2, b, b)
    return SteinExact(alpha, log2_beta, mpmath.log(beta, 2) if beta > 0 else mpf("-inf"))


def _region_counts(n, llr, lo_edge, hi_edge):
    """Counts c whose average LLR lies in [lo_edge, hi_edge] (a contiguous run)."""
    # invert the linear LLR to a count interval, then confirm each edge in float
    f0, fn = llr(0), llr(n)
    if f0 == fn:
        return range(0, n + 1) if lo_edge <= f0 <= hi_edge else range(0)
    a = (lo_edge - f0) / (fn - f0) * n
    b = (hi_edge - f0) / (fn - f0) * n
    c_lo = max(0, math.floor(min(a, b)) - 2)
    c_hi = min(n, math.ceil(max(a, b)) + 2)
    return [c for c in range(c_lo, c_hi + 1) if lo_edge <= llr(c) <= hi_edge]


def type_numerators(weights, n: int) -> list[int]:
    """n!/prod(c!) * prod(w^c) for every type c, in ascending lexicographic order.

    Along the innermost row (last two symbols) each numerator follows from the
    previous one by an exact small-integer update.
    """
    k = len(weights)
    wa, wb = weights[k - 2], weights[k - 1]
    out = []

    def rows(pos, m, prefix):
        if pos == k - 2:
            num = prefix * wb**m
            out.append(num)
            for c in range(m):
                num = num * ((m - c) * wa) // ((c + 1) * wb)
                out.append(num)
            return
        for c in range(m + 1):
            rows(pos + 1, m - c, prefix * math.comb(m, c) * weights[pos] ** c)

    rows(0, n, 1)
    return out


def _stein_types(w1, w2, n, delta, epsilon, d, kl) -> SteinExact:
    counts = brute_force_types(n, len(w1))
    llr = counts @ np.array([float(x) for x in d]) / n
    num1 = np.array(type_numerators(w1, n), dtype=object)
    num2 = np.array(type_numerators(w2, n), dtype=object)
    den1, den2 = sum(w1) ** n, sum(w2) ** n

    member = (llr >= kl - delta) & (llr <= kl + delta)
    alpha = float(Fraction(int(num1[~member].sum()), den1))
    log2_beta = _log2_ratio(int(num2[member].sum()), den2)

    # descending LLR, ties broken by ascending counts
    keys = [counts[:, j] for j in range(counts.shape[1] - 1, -1, -1)] + [-llr]
    order = np.lexsort(keys)
    target = (1 - Fraction(epsilon)) * den1
    cum = np.cumsum(num1[order]).tolist()
    b = bisect.bisect_left(
        cum, True, key=lambda s: s * target.denominator >= target.numerator
    )
    acc = cum[b - 1] if b > 0 else 0
    gamma = min(Fraction(1), (target - acc) / num1[order[b]])
    beta_num = (int(num2[order[:b]].sum()) if b > 0 else 0) + gamma * num2[order[b]]
    return SteinExact(alpha, log2_beta, _log2_ratio(beta_num, den2))


def _log2_ratio(num, den) -> mpf:
    num = Fraction(num)
    if num == 0:
        return mpf("-inf")
    return (
        mpmath.log(mpf(num.numerator), 2)
        - mpmath.log(mpf(num.denominator), 2)
        - mpmath.log(mpf(den), 2)
    )


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------


def _rows(stdout: str) -> tuple[list, list]:
    rows = list(csv.reader(io.StringIO(stdout)))
    return rows[0], rows[1:]


def _arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",")]


def _check_linear(v: Verdict, name: str, printed: float, log2_exact) -> None:
    """A linear probability against the exact value known by its log2."""
    with mpmath.workdps(_DPS):
        exact = mpf(2) ** log2_exact if log2_exact != mpf("-inf") else mpf(0)
        tol = REL_TOL * exact + _TINY
        sub_normal = log2_exact < _LOG2_MIN_NORMAL
        if printed == 0.0 and exact > 0:
            v.fail(f"{name}=0 at exit 0, exact log2={float(log2_exact):.6f}", sub_normal)
        elif abs(mpf(printed) - exact) > tol:
            v.fail(f"{name}={printed!r}, exact={mpmath.nstr(exact, 17)}", sub_normal)


def _check_abs(v: Verdict, name: str, printed: float, exact: float, tol: float, underflow=False):
    if math.isinf(exact) and printed == exact:
        return
    if not abs(printed - exact) <= tol:
        v.fail(f"{name}={printed!r}, exact={exact!r}", underflow)


def check_stein(argv, stdout) -> Verdict:
    v = Verdict()
    w1, w2 = _ints(_arg(argv, "--p1")), _ints(_arg(argv, "--p2"))
    n = int(_arg(argv, "--n"))
    delta, epsilon = float(_arg(argv, "--delta")), float(_arg(argv, "--epsilon", "0.05"))
    _, rows = _rows(stdout)
    vals = [float(x) for x in rows[0]]
    alpha_n, beta_n, stein_exp, np_beta, np_exp = vals[3:8]
    ex = stein_exact(w1, w2, n, delta, epsilon)
    _check_abs(v, "alpha_n", alpha_n, ex.alpha, ALPHA_TOL)
    _check_linear(v, "beta_n", beta_n, ex.log2_beta)
    _check_abs(v, "stein_exponent_bits", stein_exp, float(-ex.log2_beta / n), EXP_TOL)
    _check_linear(v, "np_min_beta", np_beta, ex.log2_np_beta)
    _check_abs(
        v, "np_exponent_bits", np_exp, float(-ex.log2_np_beta / n), EXP_TOL,
        underflow=ex.log2_np_beta < _LOG2_MIN_NORMAL,
    )
    return v


def _sanov_range(n: int, mode: str, threshold: float) -> tuple[int, int]:
    """Counts of the constrained symbol inside the event, using the same
    float comparison of c/n with the threshold as the event's definition."""
    inside = [c for c in range(n + 1) if (c / n >= threshold if mode == "lower" else c / n <= threshold)]
    return (min(inside), max(inside)) if inside else (1, 0)


def check_sanov(argv, stdout) -> Verdict:
    v = Verdict()
    w = _ints(_arg(argv, "--p"))
    n, a = int(_arg(argv, "--n")), int(_arg(argv, "--symbol"))
    threshold, mode = float(_arg(argv, "--threshold")), _arg(argv, "--mode", "lower")
    _, rows = _rows(stdout)
    row = rows[0]
    d_star, minimizer = float(row[4]), [int(c) for c in row[5].split(";")]
    exact_prob, rate = float(row[6]), float(row[7])
    lo, hi = _sanov_range(n, mode, threshold)
    with mpmath.workdps(_DPS):
        p = _probs(w)
        log2_prob = log2_binom_range(n, p[a], lo, hi)
        _check_linear(v, "exact_prob", exact_prob, log2_prob)
        _check_abs(v, "rate_bits", rate, float(-log2_prob / n), EXP_TOL)
        if len(minimizer) != len(w) or sum(minimizer) != n or not lo <= minimizer[a] <= hi:
            v.fail(f"minimizer {minimizer} is not an n-type in the event")
            return v
        _check_abs(v, "d_star_bits", d_star, float(_bits_kl([mpf(c) / n for c in minimizer], p)), KL_TOL)

        # data processing: D(Q||p) >= d(Q(a) || p(a)) for the binary merge
        def d_bin(c):
            return _bits_kl([mpf(c) / n, 1 - mpf(c) / n], [p[a], 1 - p[a]])

        # d_bin is convex in c with its minimum at n p(a)
        mode = n * float(p[a])
        near = {min(max(c, lo), hi) for c in (math.floor(mode), math.ceil(mode))}
        lower = min(d_bin(c) for c in near | {lo, hi})
        c_near = min(near, key=d_bin)
        if d_star < float(lower) - KL_TOL:
            v.fail(f"d_star_bits={d_star!r} below the binary lower bound {float(lower)!r}")
        # any feasible type bounds the minimum from above
        feasible = _proportional_type(w, a, c_near, n)
        upper = float(_bits_kl([mpf(c) / n for c in feasible], p))
        if d_star > upper + KL_TOL:
            v.fail(f"d_star_bits={d_star!r} above the feasible type {feasible} at {upper!r}")
    return v


def _proportional_type(w, a, c_a, n) -> list[int]:
    """Type with c_a on symbol a and the rest split like w by largest remainder."""
    rest = [i for i in range(len(w)) if i != a]
    total = sum(w[i] for i in rest)
    share = [Fraction((n - c_a) * w[i], total) for i in rest]
    counts = [int(s) for s in share]
    order = sorted(range(len(rest)), key=lambda j: share[j] - counts[j], reverse=True)
    for j in order[: (n - c_a) - sum(counts)]:
        counts[j] += 1
    out = [0] * len(w)
    out[a] = c_a
    for j, i in enumerate(rest):
        out[i] = counts[j]
    return out


def q_exact(dim: int, amplitude: float) -> mpf:
    with mpmath.workdps(_DPS):
        x = mpmath.sqrt(dim) * mpf(amplitude) / 2
        return mpmath.erfc(x / mpmath.sqrt(2)) / 2


def wilson_interval(errors: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    phat = errors / trials
    denom = 1 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def check_detect(argv, stdout) -> Verdict:
    v = Verdict()
    dims = _ints(_arg(argv, "--dims"))
    amps = [float(x) for x in _arg(argv, "--amplitudes").split(",")]
    trials = int(_arg(argv, "--trials", "1000000"))
    _, rows = _rows(stdout)
    expected = [(d, m) for d in dims for m in amps]
    if len(rows) != len(expected):
        v.fail(f"{len(rows)} rows for {len(expected)} cells")
        return v
    for (d, m), row in zip(expected, rows):
        dim, amp, analytic, bound, empirical, n_trials = row
        if int(dim) != d or float(amp) != m or int(n_trials) != trials:
            v.fail(f"row {row} does not echo cell ({d}, {m}, {trials})")
            continue
        exact = q_exact(d, m)
        if abs(mpf(float(analytic)) - exact) > REL_TOL * exact:
            v.fail(f"analytic_pe={analytic} for Q={mpmath.nstr(exact, 17)}")
        chern = math.exp(-d * m * m / 8.0)
        if abs(float(bound) - chern) > 1e-14 * chern:
            v.fail(f"chernoff_bound={bound}, expected {chern!r}")
        errors = round(float(empirical) * trials)
        lo, hi = wilson_interval(errors, trials)
        if not lo <= float(exact) <= hi:
            v.fail(f"Q={float(exact):.3e} outside Wilson [{lo:.3e}, {hi:.3e}] at dim={d}, m={m}")
        v.mc = ((d, m), float(empirical), float(exact))
    return v


def check_chernoff(argv, stdout) -> Verdict:
    v = Verdict()
    w1, w2 = _ints(_arg(argv, "--p1")), _ints(_arg(argv, "--p2"))
    tol = float(_arg(argv, "--tol", "1e-10"))
    _, rows = _rows(stdout)
    lam, c_info, d1, d2 = (float(x) for x in rows[0])
    if not 0.0 < lam < 1.0:
        v.fail(f"lambda_star={lam!r} outside (0, 1)")
        return v
    with mpmath.workdps(_DPS):
        p1, p2 = _probs(w1), _probs(w2)
        lam_mp = mpf(lam)
        tilt = [a**lam_mp * b ** (1 - lam_mp) for a, b in zip(p1, p2)]
        z = mpmath.fsum(tilt)
        tilt = [t / z for t in tilt]
        e1, e2 = float(_bits_kl(tilt, p1)), float(_bits_kl(tilt, p2))
    _check_abs(v, "d1_bits", d1, e1, KL_TOL)
    _check_abs(v, "d2_bits", d2, e2, KL_TOL)
    if abs(e1 - e2) > tol + KL_TOL:
        v.fail(f"|D1-D2|={abs(e1 - e2)!r} exceeds tol {tol!r}")
    if c_info != max(d1, d2):
        v.fail(f"c_info_bits={c_info!r} is not max(d1, d2)")
    return v


def check_boltzmann(argv, stdout) -> Verdict:
    v = Verdict()
    levels = [float(x) for x in _arg(argv, "--levels").split(",")]
    target = float(_arg(argv, "--mean"))
    tol = float(_arg(argv, "--tol", "1e-10"))
    _, rows = _rows(stdout)
    if len(rows) != len(levels):
        v.fail(f"{len(rows)} rows for {len(levels)} levels")
        return v
    beta = float(rows[0][3])
    with mpmath.workdps(_DPS):
        ground = min(levels)
        w = [mpmath.exp(-mpf(beta) * (mpf(e) - ground)) for e in levels]
        z = mpmath.fsum(w)
        mean = mpmath.fsum(mpf(e) * x for e, x in zip(levels, w)) / z
        probs = [x / z for x in w]
    scale = max(1.0, max(abs(e) for e in levels))
    if abs(float(mean) - target) > tol + 1e-12 * scale:
        v.fail(f"mean_energy(beta={beta!r})={float(mean)!r} misses target {target!r}")
    for j, row in enumerate(rows):
        if int(row[0]) != j or float(row[1]) != levels[j] or float(row[3]) != beta:
            v.fail(f"row {row} does not echo level {j}")
            break
        _check_abs(v, f"prob[{j}]", float(row[2]), float(probs[j]), 1e-14)
        _check_abs(v, "mean_energy", float(row[4]), float(mean), 1e-12 * scale)
    return v


_CHECKS = {
    "stein": check_stein,
    "sanov": check_sanov,
    "detect": check_detect,
    "chernoff": check_chernoff,
    "boltzmann": check_boltzmann,
}


def check_op(argv, rc, stdout) -> Verdict:
    """Verdict on one operation: exit code, CSV shape and oracle agreement."""
    if rc != 0:
        return Verdict(ok=False, reasons=[f"exit code {rc}"])
    try:
        return _CHECKS[argv[0]](argv, stdout)
    except (ValueError, IndexError, KeyError) as exc:
        return Verdict(ok=False, reasons=[f"unparseable output: {exc!r}"])
