"""Workload benchmark for errexp.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stein_np --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Each run drives one workload (see ``workloads.py``) through the user's entry
point, ``errexp.cli.main(argv)``, in fresh worker processes with one
closed-loop client, BLAS/OpenMP threads pinned to 1 and every process bound
to one CPU. Set-up (fresh interpreter, ``import errexp.cli``, one fixed
warm-up operation) is sampled ``SETUP_REPS`` times; the last sample's process
then runs the workload's fixed number of operations, the whole rounds that
take about ``--seconds`` (``worker.py``). Every operation's CSV is checked
against an independent oracle (``oracles.py``) after the loop, outside the
timed region.

Times are in reference seconds (``refclock.py``): the wall time of each
operation, and of each set-up sample, rescaled by a fixed reference loop
timed right before and after it, so that a virtual CPU whose speed changes
from second to second reads the same. Operation times are rescaled by the
loop's slowdown raised to the workload's ``CONTENTION_EXPONENT``. Raw wall figures are in the report
lines and the results file.

End-to-end metrics: ``setup_s`` (median set-up sample), ``op_ref_s.p50`` and
``op_ref_s.tail`` (per-operation time; the tail is the highest percentile
with at least ten operations beyond it), ``ops_per_ref_s`` and
``work_per_ref_s`` (operations, and computed work units, per second of
operation time, each operation counted at the lower-quartile time of its
size class in the run: types for the exact workloads, trials for ``detect_mc``,
operations for ``solvers``) and ``peak_rss_mb`` (peak RSS of the timed
process). The report lines also give ``fail_frac``, ``types_per_s``,
``trials_per_s`` and, for ``detect_mc``, ``mc_relmse_cpu_s``: the geometric
mean over cells of the relative MSE of the error rate against
Q(sqrt(N) m / 2) times the CPU seconds per replicate (a cell without errors
scores a relative MSE of 1).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every
operation untraced and traced in pairs and reports per-layer metrics
(``tracing.py``) per traced operation, in wall seconds, plus the tracing
overhead. The last stdout line is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record (argv list,
per-operation results, computed work counts, machine) goes to
``perfbench/results/``.

``attempted`` counts operations run and ``failed`` those that exited
non-zero, raised, or missed their oracle. ``correct`` is false if any
failure is of another kind than the known silent underflow of beta below
the double range (which still counts in ``failed``).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import refclock  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 7
# a run that has not ended this long after it started is stopped and fails
RUN_LIMIT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("op_ref_s.p50", "s"),
    ("op_ref_s.tail", "s"),
    ("ops_per_ref_s", "1/s"),
    ("work_per_ref_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# per traced operation
PER_LAYER = (
    ("cli.self_s", "s/op"),
    ("cli.write_csv.self_s", "s/op"),
    ("types_method.enumerate.calls", "calls/op"),
    ("types_method.enumerate.types", "types/op"),
    ("types_method.enumerate.bytes", "B/op"),
    ("types_method.enumerate.self_s", "s/op"),
    ("types_method.mask.self_s", "s/op"),
    ("types_method.kl_rows.self_s", "s/op"),
    ("types_method.sanov.self_s", "s/op"),
    ("types_method.log2_sum_exp2.terms", "terms/op"),
    ("types_method.log2_sum_exp2.self_s", "s/op"),
    ("kernels.type_log_probs.rows", "rows/op"),
    ("kernels.type_log_probs.self_s", "s/op"),
    ("testing.stein.self_s", "s/op"),
    ("testing.np.self_s", "s/op"),
    ("testing.llr_rows.self_s", "s/op"),
    ("testing.chernoff.self_s", "s/op"),
    ("testing.chernoff.g_evals", "evals/op"),
    ("detection.simulate.self_s", "s/op"),
    ("detection.trials", "trials/op"),
    ("kernels.count_detection_errors.trials", "trials/op"),
    ("kernels.count_detection_errors.self_s", "s/op"),
    ("boltzmann.solve_beta.self_s", "s/op"),
    ("boltzmann.distribution.self_s", "s/op"),
    ("dist.kl_divergence.calls", "calls/op"),
    ("dist.kl_divergence.self_s", "s/op"),
    ("dist.tilted.calls", "calls/op"),
    ("dist.tilted.self_s", "s/op"),
    ("dist.log_factorial_table.self_s", "s/op"),
    ("trace.overhead_s", "s/op"),
)


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _spawn(mode: str, warmup: list[str], plan: dict | None, deadline: float):
    """Start a worker; return (set-up wall s, set-up reference s, its JSON report)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, mode, json.dumps(warmup)]
    ref_before = refclock.reference_loop()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=_child_env(), cwd=ROOT, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        setup_ref = refclock.scale(setup, ref_before, refclock.reference_loop())
        try:
            if plan is not None:
                proc.stdin.write(json.dumps(plan))
            proc.stdin.close()
        except BrokenPipeError:
            pass
        out = proc.stdout.read()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker ({mode}) failed with exit code {proc.returncode}")
    return setup, setup_ref, json.loads(out.strip().splitlines()[-1])


def tail_percentile(times: list[float]) -> tuple[int, float]:
    """Highest integer percentile with at least ten operations beyond it
    (nearest rank), and its value; the median when there are too few."""
    xs = sorted(times)
    n = len(xs)
    for q in range(99, 49, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return q, xs[rank - 1]
    return 50, statistics.median(xs)


def mc_relmse_cpu_s(records) -> float | None:
    """Geometric mean over cells of relative MSE x CPU seconds per replicate."""
    cells: dict = {}
    for rec in records:
        if rec.get("mc"):
            key, phat, exact = rec["mc"]
            cells.setdefault(tuple(key), []).append((phat, exact, rec["cpu"]))
    scores = []
    for reps in cells.values():
        rel = statistics.fmean(((phat - exact) / exact) ** 2 for phat, exact, _ in reps)
        cpu = statistics.fmean(c for _, _, c in reps)
        scores.append(rel * cpu)
    if not scores or min(scores) <= 0:
        return None
    return math.exp(statistics.fmean(math.log(s) for s in scores))


def machine_record() -> dict:
    model, l3 = None, None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            l3 = fh.read().strip()
    except OSError:
        pass
    import mpmath

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
    }


class Checker:
    """Oracle verdicts, computed once per distinct argv."""

    def __init__(self):
        self.cache: dict = {}

    def __call__(self, argv, rc, out):
        key = (tuple(argv), rc, out)
        if key not in self.cache:
            self.cache[key] = oracles.check_op(argv, rc, out)
        return self.cache[key]


def _verify(records, ops, checker, workload):
    for rec in records:
        argv = ops[rec["index"]]
        verdict = checker(argv, rec["rc"], rec["out"])
        rec.update(ok=verdict.ok, known_defect=verdict.known_defect,
                   reasons=verdict.reasons, mc=verdict.mc,
                   label=workloads.label(argv),
                   computed=workloads.computed_work(argv),
                   work=workloads.work_units(workload, argv),
                   ref_s=refclock.scale(rec["wall"], rec["ref_before"], rec["ref_after"],
                                        workloads.CONTENTION_EXPONENT[workload]))
        del rec["out"]


def run_workload(workload: str, seed: int, seconds: int, trace: bool, deadline: float,
                 machine: dict) -> dict:
    ops = workloads.generate(workload, seed)
    warmup = workloads.WARMUP[workload]
    # a traced run times every operation twice
    count = workloads.run_length(workload, seconds / 2 if trace else seconds)
    setups, setups_wall, warm_records = [], [], []
    for i in range(SETUP_REPS):
        last = i == SETUP_REPS - 1
        plan = {"ops": ops, "count": count} if last else None
        mode = ("trace" if trace else "run") if last else "setup"
        wall, ref, report = _spawn(mode, warmup, plan, deadline)
        setups_wall.append(wall)
        setups.append(ref)
        warm_records.append(report["warmup"])

    checker = Checker()
    t_check = time.perf_counter()
    records = report["records"]
    _verify(records, ops, checker, workload)
    warm_ok = all(checker(warmup, w["rc"], w["out"]).ok for w in warm_records)
    check_s = time.perf_counter() - t_check

    failed = [r for r in records if not r["ok"]]
    unexplained = [r for r in failed if not r["known_defect"]]
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "ops_hash": workloads.ops_hash(ops),
        "ops": ops,
        "warmup": warmup,
        "machine": machine,
        "correct": warm_ok and not unexplained,
        "attempted": len(records),
        "failed": len(failed),
        "failure_reasons": _reason_summary(failed),
        "check_s": check_s,
        "setup_samples_ref_s": setups,
        "setup_samples_wall_s": setups_wall,
        "records": records,
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
    }
    if trace:
        result.update(_per_layer(report, records))
    else:
        result["metrics"] = _end_to_end(workload, result, records, setups)
    return result


def _reason_summary(failed) -> dict:
    summary: dict = {}
    for rec in failed:
        kind = "known underflow of beta below the double range" if rec["known_defect"] else "other"
        entry = summary.setdefault(kind, {"ops": 0, "by_command": {}, "examples": []})
        entry["ops"] += 1
        entry["by_command"][rec["label"]] = entry["by_command"].get(rec["label"], 0) + 1
        if len(entry["examples"]) < 3:
            entry["examples"].append({"index": rec["index"], "reasons": rec["reasons"]})
    return summary


def typical_busy(records, key="ref_s") -> float:
    """Operation time of a run with each operation's time replaced by the
    lower quartile of its size class in the run.

    Some seconds the host slows the program more than the reference loop
    shows, and how many such seconds a run gets varies; the lower quartile
    of a class is set by the other seconds as long as they are a quarter of
    the run, so throughput over this time repeats where a mean or a median
    does not. Each size class has at least one operation per round.
    """
    classes: dict = {}
    for rec in records:
        classes.setdefault(rec["label"], []).append(rec[key])
    return sum(
        len(ts) * (statistics.quantiles(ts, n=4, method="inclusive")[0] if len(ts) > 1 else ts[0])
        for ts in classes.values()
    )


def _end_to_end(workload, result, records, setups) -> dict:
    times = [r["ref_s"] for r in records]
    busy = typical_busy(records)
    work = sum(r["work"] for r in records)
    q, tail = tail_percentile(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_ref_s.p50": statistics.median(times),
        "op_ref_s.tail": tail,
        "ops_per_ref_s": len(records) / busy,
        "work_per_ref_s": work / busy,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    walls = [r["wall"] for r in records]
    result["wall"] = {
        "setup_s": statistics.median(result["setup_samples_wall_s"]),
        "op_s.p50": statistics.median(walls),
        "op_s.tail": tail_percentile(walls)[1],
        "ops_per_s": len(records) / typical_busy(records, "wall"),
    }
    result["tail_percentile"] = q
    result["ops_timed"] = len(records)
    result["fail_frac"] = result["failed"] / len(records)
    result["computed_totals"] = {
        key: sum(r["computed"][key] for r in records) for key in ("types", "bytes", "trials")
    }
    if workload in ("stein_np", "sanov_types"):
        result["types_per_s"] = work / busy
    if workload == "detect_mc":
        result["trials_per_s"] = work / busy
        result["mc_relmse_cpu_s"] = mc_relmse_cpu_s(records)
    return metrics


def _per_layer(report, records) -> dict:
    layers = report["layers"]
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    n = len(traced)
    traced_wall = sum(r["wall"] for r in traced)
    plain_wall = sum(r["wall"] for r in plain)

    def stat(layer, key):
        st = layers.get(layer)
        if st is None:
            return 0.0
        if key in ("calls", "self_s"):
            return st[key]
        return st["counts"].get(key, 0)

    values = {}
    for name, _ in PER_LAYER:
        if name == "trace.overhead_s":
            values[name] = (traced_wall - plain_wall) / n
        elif name == "testing.chernoff.g_evals":
            # one tilt per g evaluation, plus one final tilt per solve
            tilts = layers.get("dist.tilted", {}).get("inside", {}).get("testing.chernoff", 0)
            values[name] = (tilts - stat("testing.chernoff", "calls")) / n
        elif name == "detection.trials":
            values[name] = stat("detection.simulate", "trials") / n
        else:
            layer, key = name.rsplit(".", 1)
            values[name] = stat(layer, key) / n
    self_times = {layer: st["self_s"] / n for layer, st in layers.items()}
    dominant = max(self_times, key=self_times.get) if self_times else None
    return {
        "metrics": values,
        "absent_layers": report.get("absent", []),
        "ops_traced": n,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": plain_wall,
        "trace_overhead_s": traced_wall - plain_wall,
        "self_s_per_op": self_times,
        "dominant_layer": dominant,
        "dominant_share": self_times[dominant] / (traced_wall / n) if dominant else None,
    }


def _units(trace: bool) -> dict:
    return dict(PER_LAYER if trace else END_TO_END)


def print_report(res: dict) -> None:
    w = res["workload"]
    print(f"== {w} seed={res['seed']} trace={res['trace']} ops_hash={res['ops_hash'][:16]} "
          f"({len(res['ops'])} ops in the cycle)")
    print(f"   attempted={res['attempted']} failed={res['failed']} correct={res['correct']} "
          f"oracle_check_s={res['check_s']:.2f}")
    for kind, entry in res["failure_reasons"].items():
        print(f"   failed ({kind}): {entry['ops']} ops {entry['by_command']}, "
              f"e.g. {entry['examples'][0]['reasons'][:2]}")
    units = _units(bool(res["trace"]))
    if not res["trace"]:
        for name, value in res["metrics"].items():
            extra = ""
            if name == "op_ref_s.tail":
                extra = f"  (p{res['tail_percentile']} of {res['ops_timed']} ops)"
            print(f"   {name} = {value:.6g} {units[name]}{extra}")
        wall = ", ".join(f"{k} = {v:.6g}" for k, v in res["wall"].items())
        print(f"   wall clock: {wall}")
        print(f"   fail_frac = {res['fail_frac']:.6g} fraction")
        if "types_per_s" in res:
            print(f"   types_per_s = {res['types_per_s']:.6g} types/s (computed)")
        if "trials_per_s" in res:
            print(f"   trials_per_s = {res['trials_per_s']:.6g} trials/s (computed)")
        if res.get("mc_relmse_cpu_s") is not None:
            print(f"   mc_relmse_cpu_s = {res['mc_relmse_cpu_s']:.6g} relMSE*s")
        totals = res["computed_totals"]
        print(f"   computed: types={totals['types']} bytes={totals['bytes']} trials={totals['trials']}")
    else:
        for name, value in res["metrics"].items():
            print(f"   {name} = {value:.6g} {units[name]}")
        print(f"   tracing overhead = {res['trace_overhead_s']:.4f} s over {res['ops_traced']} ops "
              f"(traced {res['traced_wall_s']:.3f} s, untraced {res['untraced_wall_s']:.3f} s)")
        if res["absent_layers"]:
            print(f"   absent layers: {', '.join(res['absent_layers'])}")
        if res["dominant_layer"]:
            print(f"   dominant self time: {res['dominant_layer']} "
                  f"({100 * res['dominant_share']:.1f}% of traced op time)")
    print(f"   machine: {res['machine']}")


def _save(res: dict) -> None:
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{res['workload']}-seed{res['seed']}-trace{res['trace']}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(res, fh, indent=1)


def _result_line(results: list[dict], prefix: bool) -> str:
    metrics = {}
    for res in results:
        units = _units(bool(res["trace"]))
        for name, value in res["metrics"].items():
            key = f"{res['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": units[name]}
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "errexp", "cli.py")):
        print(f"perfbench: no errexp source under {ROOT}/src", file=sys.stderr)
        return 2

    if args.workload == "all":
        jobs = [(w, t) for w in workloads.WORKLOADS for t in (False, True)]
    else:
        jobs = [(args.workload, bool(args.trace))]
    machine = machine_record()  # before binding to one CPU
    refclock.pin()
    deadline = time.perf_counter() + RUN_LIMIT_S * len(jobs)
    results = []
    try:
        for workload, trace in jobs:
            res = run_workload(workload, args.seed, args.seconds, trace, deadline, machine)
            _save(res)
            print_report(res)
            results.append(res)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(_result_line(results, prefix=args.workload == "all"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
