"""Seeded operation generators for the four benchmark workloads.

Every workload is a list of ``errexp`` argv lists built from the workload
seed alone, with a private splitmix64 stream so that the same seed gives
the same operations on every commit and every Python or NumPy version.
Problem sizes and their order follow a fixed schedule of rounds, so every
run of a workload does the same mix of work; the seed draws the
distributions, symbols, thresholds, tolerances and Monte Carlo seeds. A run
does a fixed number of operations (``run_length``), so that it attempts, and
fails, the same number on every seed.

Why these workloads:

- ``stein_np``: exact Stein region and Neyman-Pearson optimum; the NP
  ordering dominates, and the k=2 large-n operations reach the regime where
  beta is below the double range.
- ``sanov_types``: Sanov exponent and exact probability at 0.3-1.2M types;
  enumeration and the materialized (T, k) matrix dominate, no NP ordering.
- ``detect_mc``: detection Monte Carlo, one cell per operation; the Gaussian
  draw dominates and no exact-type layer runs.
- ``solvers``: Chernoff and Boltzmann bisections, millisecond-scale; the
  command-line layer and the scalar ``dist`` path dominate.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib

import oracles

WORKLOADS = ("stein_np", "sanov_types", "detect_mc", "solvers")

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Tiny deterministic PRNG whose stream never changes across versions."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * ((self.u64() >> 11) / float(1 << 53))

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends included."""
        return lo + self.u64() % (hi - lo + 1)


def _stream(workload: str, seed: int) -> SplitMix64:
    return SplitMix64((seed * 0x9E3779B97F4A7C15) ^ zlib.crc32(workload.encode()))


def _weights(rng: SplitMix64, k: int, hi: int) -> list[int]:
    return [rng.randint(1, hi) for _ in range(k)]


def _csv(vals) -> str:
    return ",".join(str(v) for v in vals)


def _distinct_pair(rng: SplitMix64, k: int, hi: int):
    """Two integer weight vectors that normalize to different distributions."""
    while True:
        w1, w2 = _weights(rng, k, hi), _weights(rng, k, hi)
        s1, s2 = sum(w1), sum(w2)
        if any(a * s2 != b * s1 for a, b in zip(w1, w2)):
            return w1, w2


def _stein_op(rng: SplitMix64, k: int, n: int) -> list[str]:
    w1, w2 = _distinct_pair(rng, k, 9)
    # full-precision delta: a short decimal puts some type's average LLR
    # exactly on a band edge, where membership is decided by rounding
    delta = rng.uniform(0.02, 0.10)
    epsilon = rng.uniform(0.01, 0.20)
    return ["stein", "--p1", _csv(w1), "--p2", _csv(w2), "--n", str(n),
            "--delta", repr(delta), "--epsilon", repr(epsilon)]


# exact log2 of beta that puts a k=2 operation clearly inside, or clearly
# below, the double range (subnormals start at -1022, zero below -1074)
_LOG2_BETA_NORMAL = -900
_LOG2_BETA_UNDERFLOW = -1100


def _kl_bits(w1, w2) -> float:
    s1, s2 = sum(w1), sum(w2)
    return sum(a / s1 * math.log2(a * s2 / (b * s1)) for a, b in zip(w1, w2))


def _k2_stein_op(rng: SplitMix64, n: int, underflow: bool) -> list[str]:
    """A k=2 Stein operation whose exact betas are both normal doubles, or
    both below the double range, so that whether it fails is the same on
    every seed. The float divergence screens candidates (beta is about
    2^(-n D)); the exact oracle decides."""
    while True:
        op = _stein_op(rng, 2, n)
        w1, w2 = [int(x) for x in op[2].split(",")], [int(x) for x in op[4].split(",")]
        # screen: n D well clear of the edge of the double range
        nd = n * _kl_bits(w1, w2)
        if (nd < 1300) if underflow else (nd > 800):
            continue
        ex = oracles.stein_exact(w1, w2, n, float(op[8]), float(op[10]))
        lows = (ex.log2_beta, ex.log2_np_beta)
        if underflow and all(-math.inf < x < _LOG2_BETA_UNDERFLOW for x in lows):
            return op
        if not underflow and all(x > _LOG2_BETA_NORMAL for x in lows):
            return op


# (alphabet size, n) of the operations of one stein_np round, in run order.
# Sorted by time the round is three k=2 operations, the k=3 n=300 one, the
# k=3 n=400 one, then the two k=4 ones, so the median operation time falls
# inside one size class rather than on the edge between two, and so does the
# tail (ten operations from the top) once a run has six rounds or more. The n=8000 operation always has
# beta below the double range, which the program reports as 0 (a known
# defect, so it fails); the other k=2 operations never do.
_STEIN_ROUND = ((4, 90), (2, 2000), (3, 300), (2, 5000), (4, 100), (2, 8000), (3, 400))
_STEIN_UNDERFLOW_N = 8000
# the rounds are cycled, so the oracle runs once per distinct operation
_STEIN_ROUNDS = 4


def _stein_np(rng: SplitMix64) -> list[list[str]]:
    return [
        _k2_stein_op(rng, n, n == _STEIN_UNDERFLOW_N) if k == 2 else _stein_op(rng, k, n)
        for _ in range(_STEIN_ROUNDS) for k, n in _STEIN_ROUND
    ]


# (alphabet size, n, mode) of the operations of one sanov_types round; the
# "upper" events keep up to most types, so they go on the smallest T, where
# they never set the peak memory. The three sizes (T = 0.32, 0.64 and 1.22
# million) take about 0.4, 0.65 and 1.4 s, far enough apart that the median
# operation falls inside the middle size class rather than on the edge
# between two.
_SANOV_ROUND = ((5, 50, "upper"), (5, 60, "lower"), (6, 40, "lower"))
_SANOV_ROUNDS = 12


def _sanov_op(rng: SplitMix64, k: int, n: int, mode: str) -> list[str]:
    w = _weights(rng, k, 9)
    symbol = rng.randint(0, k - 1)
    p_a = w[symbol] / sum(w)
    u = rng.uniform(0.4, 0.6)
    threshold = p_a + (1.0 - p_a) * u if mode == "lower" else p_a * (1.0 - u)
    return ["sanov", "--p", _csv(w), "--n", str(n), "--symbol", str(symbol),
            "--threshold", repr(round(threshold, 3)), "--mode", mode]


def _sanov_types(rng: SplitMix64) -> list[list[str]]:
    return [_sanov_op(rng, *spec) for _ in range(_SANOV_ROUNDS) for spec in _SANOV_ROUND]


DETECT_DIMS = (1, 4, 64)
DETECT_AMPLITUDES = ("0.5", "1", "2", "3")
DETECT_TRIALS = 50_000
_DETECT_ROUNDS = 200


def _detect_mc(rng: SplitMix64) -> list[list[str]]:
    return [
        ["detect", "--dims", str(d), "--amplitudes", a,
         "--trials", str(DETECT_TRIALS), "--seed", str(rng.u64() >> 1)]
        for _ in range(_DETECT_ROUNDS) for d in DETECT_DIMS for a in DETECT_AMPLITUDES
    ]


_SOLVER_OPS = 3_000


def _chernoff_op(rng: SplitMix64) -> list[str]:
    w1, w2 = _distinct_pair(rng, rng.randint(2, 6), 20)
    return ["chernoff", "--p1", _csv(w1), "--p2", _csv(w2)]


def _boltzmann_op(rng: SplitMix64) -> list[str]:
    while True:
        levels = [round(rng.uniform(0.0, 5.0), 3) for _ in range(rng.randint(3, 8))]
        lo, mean = min(levels), sum(levels) / len(levels)
        if mean - lo > 0.05:
            break
    target = round(lo + (mean - lo) * rng.uniform(0.05, 0.95), 6)
    return ["boltzmann", "--levels", _csv(repr(v) for v in levels), "--mean", repr(target)]


def _solvers(rng: SplitMix64) -> list[list[str]]:
    # two Chernoff solves per Boltzmann one: the two kinds take overlapping
    # times, and an even mix would put the median on their boundary
    return [_boltzmann_op(rng) if i % 3 == 2 else _chernoff_op(rng) for i in range(_SOLVER_OPS)]


_GENERATORS = {
    "stein_np": _stein_np,
    "sanov_types": _sanov_types,
    "detect_mc": _detect_mc,
    "solvers": _solvers,
}

# fixed first operation of every process: the same for every seed, so the
# set-up time measures the same work on every run
WARMUP = {
    "stein_np": ["stein", "--p1", "1,2,3", "--p2", "3,2,1", "--n", "200",
                 "--delta", "0.05", "--epsilon", "0.05"],
    "sanov_types": ["sanov", "--p", "1,2,3,4,5", "--n", "30", "--symbol", "0",
                    "--threshold", "0.4", "--mode", "lower"],
    "detect_mc": ["detect", "--dims", "4", "--amplitudes", "1",
                  "--trials", str(DETECT_TRIALS), "--seed", "1"],
    "solvers": ["chernoff", "--p1", "1,2,3", "--p2", "3,1,1"],
}


def generate(workload: str, seed: int) -> list[list[str]]:
    """The workload's operation cycle for ``seed``; runs repeat it in order."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    return _GENERATORS[workload](_stream(workload, seed))


# operations in one round, and a round's time in reference seconds
# (refclock.py), measured on the 2-vCPU Xeon VM the bounds were set on
_ROUND = {
    "stein_np": (len(_STEIN_ROUND), 1.7),
    "sanov_types": (len(_SANOV_ROUND), 2.5),
    "detect_mc": (len(DETECT_DIMS) * len(DETECT_AMPLITUDES), 0.25),
    "solvers": (3, 0.0073),
}


# how much more than the reference loop each workload slows when the host is
# busy: the slope of log operation time against log reference-loop time
# over twenty runs spanning loop slowdowns of 1.1x to 1.8x on that VM. The
# exact workloads' Python sorts and enumerations over megabytes of objects
# slow more than the loop; the vectorized Gaussian draw slows as much.
CONTENTION_EXPONENT = {
    "stein_np": 1.5,
    "sanov_types": 1.25,
    "detect_mc": 1.0,
    "solvers": 1.25,
}


def run_length(workload: str, seconds: float) -> int:
    """Operations in a run: the whole rounds that take about ``seconds``."""
    ops, round_s = _ROUND[workload]
    return ops * max(1, round(seconds / round_s))


def ops_hash(ops: list[list[str]]) -> str:
    return hashlib.sha256(json.dumps(ops, separators=(",", ":")).encode()).hexdigest()


def _arg(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def computed_work(argv: list[str]) -> dict:
    """Work counts from closed forms, never from the program.

    ``types`` is C(n+k-1, k-1), the problem size of one exact operation
    (counted once even if the program enumerates twice), ``bytes`` that of
    its (T, k) int64 count matrix, ``trials`` the Monte Carlo trials drawn.
    """
    cmd = argv[0]
    if cmd in ("stein", "sanov"):
        k = len(_arg(argv, "--p1" if cmd == "stein" else "--p").split(","))
        n = int(_arg(argv, "--n"))
        t = math.comb(n + k - 1, k - 1)
        return {"types": t, "bytes": t * k * 8, "trials": 0}
    if cmd == "detect":
        cells = len(_arg(argv, "--dims").split(",")) * len(_arg(argv, "--amplitudes").split(","))
        return {"types": 0, "bytes": 0, "trials": cells * int(_arg(argv, "--trials"))}
    return {"types": 0, "bytes": 0, "trials": 0}


def label(argv: list[str]) -> str:
    """Size class of an operation, such as ``stein k=2 n=8000``: what sets
    its cost, up to the drawn distributions."""
    if argv[0] in ("stein", "sanov"):
        k = len(_arg(argv, "--p1" if argv[0] == "stein" else "--p").split(","))
        return f"{argv[0]} k={k} n={_arg(argv, '--n')}"
    if argv[0] == "detect":
        return f"detect dims={_arg(argv, '--dims')}"
    return argv[0]


def work_units(workload: str, argv: list[str]) -> int:
    """The unit behind ``work_per_ref_s``: types, trials, or one operation."""
    w = computed_work(argv)
    if workload in ("stein_np", "sanov_types"):
        return w["types"]
    if workload == "detect_mc":
        return w["trials"]
    return 1
