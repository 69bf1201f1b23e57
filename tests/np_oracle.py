"""Independent references for the Neyman-Pearson optimum.

Nothing here calls errexp. ``np_log2_beta_binomial`` recomputes the exact
randomized NP optimum for a binary alphabet in mpmath: the type with j
copies of symbol 0 has Binomial(n, p) mass, so the optimum is a walk over
n + 1 binomial terms. ``np_log2_beta_types`` does the same for any
alphabet over the enumerated n-types, with ties decided in exact rational
arithmetic, and ``stein_log2_errors_types`` sums the Stein errors of a given
band exactly over them. ``stein_moments``, ``berry_esseen_gap_bounds`` and
``strassen_gap`` give the finite-n theory that the exponent gap
D + (1/n) log2 beta is checked against:

- converse (any level-epsilon test): beta >= 2^-g * (1 - epsilon - P1[S > g]);
- achievability (the deterministic test S > g): beta <= 2^-g;
- Berry-Esseen bounds P1[S <= nD + sqrt(nV) x] within
  C0 * rho / (V^(3/2) sqrt(n)) of Phi(x), C0 = 0.4748 (Shevtsova 2011);
- Strassen (1962): log2 beta = -nD + sqrt(nV) Q^-1(epsilon) - (1/2) log2 n + O(1).

S is the log2 likelihood ratio of the n-sample, D = E[L], V = Var[L] and
rho = E|L - D|^3 for the per-symbol ratio L under P1, all in bits.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from statistics import NormalDist

import mpmath
import numpy as np

BERRY_ESSEEN_C0 = 0.4748
_DPS = 60
_PHI = NormalDist()


def np_log2_beta_binomial(p1: float, p2: float, n: int, epsilon: float) -> float:
    """log2 of the minimal type-II error over randomized tests, k = 2.

    ``p1`` and ``p2`` are the probabilities of symbol 0 under each
    hypothesis. Types (j, n - j) are admitted in decreasing likelihood-ratio
    order, ties broken by ascending j, until the accepted P1-mass reaches
    1 - epsilon; the boundary type is admitted with the fraction that lands
    exactly on that mass.
    """
    with mpmath.workdps(_DPS):
        a, b = mpmath.mpf(p1), mpmath.mpf(p2)
        lr0, lr1 = mpmath.log(a / b), mpmath.log((1 - a) / (1 - b))
        order = sorted(range(n + 1), key=lambda j: (-(j * lr0 + (n - j) * lr1), j))
        target = 1 - mpmath.mpf(epsilon)
        accepted = mpmath.mpf(0)
        beta = mpmath.mpf(0)
        for j in order:
            size = mpmath.binomial(n, j)
            mass1 = size * a**j * (1 - a) ** (n - j)
            mass2 = size * b**j * (1 - b) ** (n - j)
            if accepted + mass1 < target:
                accepted += mass1
                beta += mass2
                continue
            beta += (target - accepted) / mass1 * mass2
            break
        return float(mpmath.log(beta, 2))


def types(n: int, k: int):
    """Every count vector of n over k symbols, in lexicographic order."""
    # stars and bars: the bar positions fix the counts
    for bars in itertools.combinations(range(n + k - 1), k - 1):
        edges = (-1,) + bars + (n + k - 1,)
        yield tuple(edges[i + 1] - edges[i] - 1 for i in range(k))


def _coprime_base(values):
    """Pairwise coprime integers > 1 of which every value is a product."""
    base, todo = [], [v for v in values if v > 1]
    while todo:
        x = todo.pop()
        for i, b in enumerate(base):
            g = math.gcd(x, b)
            if g > 1:
                # split both; the product of everything pending shrinks by g
                del base[i]
                todo += [v for v in (g, x // g, b // g) if v > 1]
                break
        else:
            base.append(x)
    return base


def _multiplicity(x: int, b: int) -> int:
    e = 0
    while x % b == 0:
        x //= b
        e += 1
    return e


def np_log2_beta_types(p1, p2, n: int, epsilon: float) -> float:
    """log2 of the minimal type-II error over randomized tests, any k.

    ``p1`` and ``p2`` are the probability vectors, and their doubles are
    taken as exact inputs. A type's likelihood ratio is a product of powers
    of the per-symbol ratios, written as integer exponents over a coprime
    base of their numerators and denominators, so a tie class holds exactly
    the types of one ratio. Classes are ordered by their log ratio at
    ``_DPS`` digits, and their masses are summed in mpmath. Classes are
    admitted in decreasing ratio order until the rejected P1-mass falls to
    epsilon (the doubles of p1 need not sum to 1, so accepting 1 - epsilon
    of the mass would be another test), and the boundary class is admitted
    with the fraction that lands alpha exactly on epsilon. Types with counts
    where p1 is 0 have P1-mass 0, so the walk ends before them; they are
    left out.
    """
    support = [i for i, a in enumerate(p1) if a > 0]
    ratios = [Fraction(float(p1[i])) / Fraction(float(p2[i])) for i in support]
    base = _coprime_base([x for r in ratios for x in (r.numerator, r.denominator)])
    exponents = [
        [_multiplicity(r.numerator, b) - _multiplicity(r.denominator, b) for b in base]
        for r in ratios
    ]
    fact = [math.factorial(c) for c in range(n + 1)]
    classes = {}
    with mpmath.workdps(_DPS):
        # powers[h][i][c] = p_h[support[i]] ** c
        powers = [
            [[mpmath.mpf(float(p[i])) ** c for c in range(n + 1)] for i in support]
            for p in (p1, p2)
        ]
        for counts in types(n, len(support)):
            key = tuple(sum(c * e[j] for c, e in zip(counts, exponents)) for j in range(len(base)))
            size = fact[n] // math.prod(fact[c] for c in counts)
            g1, g2 = classes.get(key, (0, 0))
            classes[key] = tuple(
                g + size * math.prod(pw[i][c] for i, c in enumerate(counts))
                for g, pw in zip((g1, g2), powers)
            )
        log_base = [mpmath.log(b) for b in base]
        order = sorted(
            classes, key=lambda key: mpmath.fsum(e * lb for e, lb in zip(key, log_base))
        )
        target = mpmath.fsum(g1 for g1, _ in classes.values()) - mpmath.mpf(epsilon)
        accepted = beta = mpmath.mpf(0)
        for key in reversed(order):
            g1, g2 = classes[key]
            if accepted + g1 >= target:
                beta += (target - accepted) / g1 * g2
                break
            accepted += g1
            beta += g2
        return float(mpmath.log(beta, 2))


def _exact_masses(p, n: int, k: int):
    """Each n-type's probability under ``p`` (its doubles taken as exact), as
    an integer numerator over one power-of-two denominator, in
    :func:`types` order; None for a type with mass where p is 0."""
    fracs = [Fraction(float(x)) for x in p]
    # every denominator is a power of two
    shift = [f.denominator.bit_length() - 1 for f in fracs]
    top = n * max(shift)
    powers = [[f.numerator**c for c in range(n + 1)] for f in fracs]
    fact = [math.factorial(c) for c in range(n + 1)]
    masses = []
    for counts in types(n, k):
        if any(c and not f for c, f in zip(counts, fracs)):
            masses.append(None)
            continue
        num = fact[n] // math.prod(fact[c] for c in counts)
        num *= math.prod(pw[c] for pw, c in zip(powers, counts))
        masses.append(num << (top - sum(c * e for c, e in zip(counts, shift))))
    return masses, top


def _log2_exact(num: int, log2_den: int) -> float:
    if num == 0:
        return -math.inf
    with mpmath.workdps(_DPS):
        return float(mpmath.log(mpmath.mpf(num), 2) - log2_den)


def stein_log2_errors_types(p1, p2, n: int, member) -> tuple[float, float]:
    """(log2 alpha, log2 beta) of the Stein band over the n-types, exactly.

    ``member`` holds, in :func:`types` order, whether each type lies in the
    band; alpha is the p1 mass of the others and beta the p2 mass of those,
    each summed exactly over the doubles of ``p1`` and ``p2`` and rounded
    once.
    """
    k = len(p1)
    (m1, top1), (m2, top2) = _exact_masses(p1, n, k), _exact_masses(p2, n, k)
    alpha = sum(m for m, inside in zip(m1, member) if m is not None and not inside)
    beta = sum(m for m, inside in zip(m2, member) if m is not None and inside)
    return _log2_exact(alpha, top1), _log2_exact(beta, top2)


def stein_moments(p1: np.ndarray, p2: np.ndarray) -> tuple[float, float, float]:
    """(D, V, rho) of the per-symbol log2 likelihood ratio under ``p1``."""
    support = p1 > 0
    w = p1[support]
    llr = np.log2(w / p2[support])
    d = float(np.dot(w, llr))
    v = float(np.dot(w, (llr - d) ** 2))
    rho = float(np.dot(w, np.abs(llr - d) ** 3))
    return d, v, rho


def berry_esseen_gap_bounds(
    v: float, rho: float, n: int, epsilon: float
) -> tuple[float, float]:
    """Rigorous (lower, upper) bounds on D + (1/n) log2 beta_NP.

    Requires the Berry-Esseen term to be below epsilon, so that a
    deterministic test of level epsilon exists in the normal approximation.
    The converse maximum over x is taken on a grid, which can only lower
    the lower bound.
    """
    b = BERRY_ESSEEN_C0 * rho / (v**1.5 * math.sqrt(n))
    if not b < epsilon:
        raise ValueError(f"Berry-Esseen term {b:.4f} is not below epsilon={epsilon}")
    root = math.sqrt(n * v)
    upper = math.sqrt(v / n) * _PHI.inv_cdf(1.0 - epsilon + b)
    x_max = _PHI.inv_cdf(1.0 - epsilon - b)
    lower = max(
        root * x + math.log2(1.0 - epsilon - _PHI.cdf(x) - b)
        for x in np.linspace(x_max - 10.0, x_max, 20001)[:-1]
    ) / n
    return lower, upper


def strassen_gap(v: float, n: int, epsilon: float) -> float:
    """Second-order prediction sqrt(V/n) Q^-1(epsilon) - (1/2) log2(n) / n."""
    return math.sqrt(v / n) * _PHI.inv_cdf(1.0 - epsilon) - 0.5 * math.log2(n) / n
