"""One benchmark process: import errexp, warm up, then run operations.

Started by ``run.py`` as ``python3 worker.py <root> <mode> <warm-up argv as
JSON>``. It imports ``errexp.cli``, runs the warm-up operation and prints
``READY``; the time until then is one set-up sample. In ``setup`` mode it
then waits for stdin to close, reports and exits. In ``run`` and ``trace``
modes it reads the plan (``{"ops": [...], "count": n}``) from stdin and calls
``errexp.cli.main(argv)`` in a closed loop, cycling through the operations
until ``count`` have run. The reference loop (``refclock.py``) runs before
the first operation, after every ``REF_EVERY_S`` of operation time and
after the last operation, so each operation's wall time can be rescaled by
the loop times on either side of it. ``trace`` mode runs every operation twice, untraced and traced,
alternating which goes first, so the difference of the two totals is the
tracing overhead. The last stdout line is a JSON report.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import refclock  # noqa: E402


def run_op(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an operation that raises is a failed operation
        rc = None
        err.write(traceback.format_exc())
    t1, c1 = time.perf_counter(), time.process_time()
    return {"rc": rc, "wall": t1 - t0, "cpu": c1 - c0, "out": out.getvalue(),
            "err": err.getvalue()[-2000:]}


def _settle() -> None:
    """Free the last operation's garbage cycles, then freeze what survives.

    The recursive enumerator keeps its (T, k) matrix in a reference cycle,
    so each operation starts from the state of a fresh CLI process only
    after a collection. Survivors (the harness's own records) are frozen so
    that the next collection scans just the next operation's objects.
    """
    gc.collect()
    gc.freeze()


# the reference loop runs again once this much wall time has passed since
# it last ran, so that short operations share the loop times around them
REF_EVERY_S = 0.05


def _loop(cli, ops, count, step):
    """Run ``count`` operations, cycling through ``ops`` in order.

    Time spent between operations (reference loop, output capture, garbage
    collection) is the harness's and does not count. Each record gets the
    reference loop times before and after it.
    """
    records = []
    ref = refclock.reference_loop()
    since_ref = 0.0
    pending = []
    for i in range(count):
        index = i % len(ops)
        for rec in step(cli, index, ops[index], i):
            rec["ref_before"] = ref
            since_ref += rec["wall"]
            pending.append(rec)
            if since_ref >= REF_EVERY_S or i == count - 1:
                ref = refclock.reference_loop()
                since_ref = 0.0
                for done in pending:
                    done["ref_after"] = ref
                records.extend(pending)
                pending = []
        _settle()
    return records


def main() -> int:
    root, mode, warmup = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    proto = sys.stdout
    sys.path.insert(0, os.path.join(root, "src"))
    import errexp.cli as cli

    warm = run_op(cli, warmup)
    proto.write("READY\n")
    proto.flush()
    # idle until the parent has timed its reference loop and sent the plan
    # (nothing, in setup mode), so the two do not share the CPU meanwhile
    plan = sys.stdin.read()
    _settle()
    report = {"warmup": warm}
    if mode != "setup":
        plan = json.loads(plan)
        ops, count = plan["ops"], plan["count"]
        if mode == "run":
            def step(cli, index, argv, i):
                return [dict(run_op(cli, argv), index=index, traced=False)]
        else:
            from tracing import Installation, Tracer

            tracer = Tracer()
            installation = Installation(tracer)
            report["absent"] = installation.absent

            def step(cli, index, argv, i):
                recs = []
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    if traced:
                        installation.apply()
                    try:
                        recs.append(dict(run_op(cli, argv), index=index, traced=traced))
                    finally:
                        if traced:
                            installation.remove()
                return recs

        report["records"] = _loop(cli, ops, count, step)
        if mode == "trace":
            report["layers"] = {
                name: {"calls": st.calls, "self_s": st.self_s, "total_s": st.total_s,
                       "counts": st.counts, "inside": st.inside}
                for name, st in tracer.stats.items()
            }
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    proto.write(json.dumps(report) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
