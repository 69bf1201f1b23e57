import contextlib
import io

import pytest

import refclock
import tracing
from run import mc_relmse_cpu_s, tail_percentile, typical_busy


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_is_span_minus_child_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    leaf_layer = tracing.Layer("leaf", (), {"items": tracing._len0})
    leaf = tracer.wrap(leaf_layer, lambda xs: clock.advance(2.0) or xs)
    mid = tracer.wrap(tracing.Layer("mid", ()), lambda: (clock.advance(1.0), leaf([1, 2, 3]),
                                                        clock.advance(0.5), leaf([4])))
    top = tracer.wrap(tracing.Layer("top", ()), lambda: (clock.advance(3.0), mid(), leaf([]),
                                                        clock.advance(0.25)))
    top()
    st = tracer.stats
    assert st["leaf"].calls == 3 and st["leaf"].self_s == pytest.approx(6.0)
    assert st["leaf"].counts == {"items": 4}
    assert st["mid"].total_s == pytest.approx(5.5) and st["mid"].self_s == pytest.approx(1.5)
    assert st["top"].total_s == pytest.approx(10.75) and st["top"].self_s == pytest.approx(3.25)
    # self times partition the outermost span
    assert sum(s.self_s for s in st.values()) == pytest.approx(st["top"].total_s)
    assert st["leaf"].inside == {"top": 3, "mid": 2}


def test_span_closes_when_the_wrapped_call_raises():
    tracer = tracing.Tracer(FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(tracing.Layer("boom", ()), boom)()
    assert tracer.stats["boom"].calls == 1 and not tracer._stack


def test_installation_wraps_every_binding_and_restores():
    import errexp._kernels as kernels
    import errexp.cli as cli
    import errexp.testing as testing
    import errexp.types_method as types_method

    original = kernels.type_log_probs
    layers = tracing.LAYERS + (tracing.Layer("gone", (("errexp.testing", "_renamed_helper"),)),)
    tracer = tracing.Tracer()
    inst = tracing.Installation(tracer, layers)
    assert inst.absent == ["gone"]
    argv = ["stein", "--p1", "1,2", "--p2", "2,1", "--n", "20", "--delta", "0.1"]
    with inst, contextlib.redirect_stdout(io.StringIO()):
        assert testing.type_log_probs is types_method.type_log_probs is not original
        assert cli.main(argv) == 0
    assert testing.type_log_probs is types_method.type_log_probs is original
    st = tracer.stats
    assert st["types_method.enumerate"].calls == 2
    assert st["types_method.enumerate"].counts["types"] == 2 * 21
    assert st["kernels.type_log_probs"].calls == 4
    assert st["cli"].calls == 1
    # every traced layer ran inside the cli span
    assert st["cli"].total_s == pytest.approx(sum(s.self_s for s in st.values()))


def test_tail_percentile_keeps_ten_operations_beyond():
    q, value = tail_percentile([float(i) for i in range(1, 101)])
    assert (q, value) == (90, 90.0)
    q, value = tail_percentile([float(i) for i in range(1, 16)])
    assert q == 50


def test_reference_scaling_undoes_a_uniform_slowdown():
    nominal = refclock.REF_NOMINAL_S
    # an interval run at nominal speed keeps its wall time
    assert refclock.scale(3.0, nominal, nominal) == pytest.approx(3.0)
    # at half speed the loop and the interval both take twice as long
    assert refclock.scale(6.0, 2 * nominal, 2 * nominal) == pytest.approx(3.0)
    # a speed change during the interval is split between its two sides
    assert refclock.scale(4.5, nominal, 2 * nominal) == pytest.approx(3.0)
    # code that slows as the loop time squared
    assert refclock.scale(12.0, 2 * nominal, 2 * nominal, exponent=2.0) == pytest.approx(3.0)
    assert refclock.reference_loop() > 0


def test_typical_busy_counts_each_class_at_its_lower_quartile():
    records = [{"label": "a", "ref_s": t} for t in (1.0, 2.0, 3.0, 4.0, 5.0)]
    records += [{"label": "b", "ref_s": 10.0}]
    # class a: lower quartile 2.0 for five operations; class b: its only time
    assert typical_busy(records) == pytest.approx(5 * 2.0 + 10.0)


def test_zero_error_cells_score_relative_mse_one():
    records = [{"mc": ((64, 3.0), 0.0, 1e-33), "cpu": 0.5},
               {"mc": ((64, 3.0), 0.0, 1e-33), "cpu": 0.5}]
    assert mc_relmse_cpu_s(records) == pytest.approx(0.5)
