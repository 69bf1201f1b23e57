import contextlib
import io
import math

import pytest

import oracles
import workloads

# the same seed must give the same operations on every commit
PINNED_SEED0 = {
    "stein_np": "e2e6aa69422a9f3f02095ef97aaeb9bcfe7c3b483aad5dcbb4303559ce9c2a96",
    "sanov_types": "45b1725651961f85d102178fb6d5973d9ef164cc56486d3020dca3f294c22b99",
    "detect_mc": "7f0f22c71d248b13ad1114b32e8bb4c0527ce6be3969e700f38ecb4cc3a882d1",
    "solvers": "1a91ba1e612ec68db58a8510f688a0ec81a464b9d9e21ab7b429eeb0600ef106",
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_pinned_and_seeded(workload):
    ops = workloads.generate(workload, 0)
    assert workloads.ops_hash(ops) == PINNED_SEED0[workload]
    assert workloads.generate(workload, 0) == ops
    assert workloads.generate(workload, 1) != ops


def test_splitmix_stream_is_fixed():
    rng = workloads.SplitMix64(0)
    # reference values of splitmix64 from seed 0
    assert rng.u64() == 0xE220A8397B1DCDAF
    assert rng.u64() == 0x6E789E6AA1B965F4


def test_workload_schedules_match_the_stated_sizes():
    stein = workloads.generate("stein_np", 3)
    sizes = {(len(op[2].split(",")), int(op[6])) for op in stein}
    assert max(n for k, n in sizes if k == 4) == 100
    assert max(n for k, n in sizes if k == 2) == 8000
    sanov_t = [workloads.computed_work(op)["types"] for op in workloads.generate("sanov_types", 3)]
    assert 300_000 <= min(sanov_t) and max(sanov_t) <= 1_250_000


def test_computed_work_uses_closed_forms():
    op = ["stein", "--p1", "1,2,3,4", "--p2", "4,3,2,1", "--n", "100", "--delta", "0.05"]
    work = workloads.computed_work(op)
    assert work["types"] == math.comb(103, 3) == 176_851
    assert work["bytes"] == 176_851 * 4 * 8
    detect = ["detect", "--dims", "1,4", "--amplitudes", "1", "--trials", "10", "--seed", "0"]
    assert workloads.computed_work(detect)["trials"] == 20
    assert workloads.work_units("solvers", ["chernoff", "--p1", "1,2", "--p2", "2,1"]) == 1


def test_k2_stein_failures_are_fixed_by_the_schedule():
    """Exactly the n=8000 operations have beta below the double range, so
    every run of the same length fails the same number of operations."""
    import errexp.cli as cli

    ops = [op for op in workloads.generate("stein_np", 2) if len(op[2].split(",")) == 2]
    assert len(ops) == 3 * 4
    for op in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(op)
        verdict = oracles.check_op(op, rc, out.getvalue())
        if op[6] == "8000":
            assert not verdict.ok and verdict.known_defect
        else:
            assert verdict.ok, verdict.reasons


def test_run_length_is_whole_rounds():
    assert workloads.run_length("stein_np", 20) % 7 == 0
    assert workloads.run_length("sanov_types", 20) % 3 == 0
    assert workloads.run_length("detect_mc", 0.01) == 12
    assert workloads.run_length("solvers", 20) == workloads.run_length("solvers", 20.0)
