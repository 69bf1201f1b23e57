"""Outside-in per-layer tracing of errexp.

The program is not edited: timing wrappers are installed on the module
attributes through which each layer is called, in every errexp module that
binds the function (``types_method.type_log_probs`` and
``testing.type_log_probs`` are both wrapped), and removed afterwards.
Spans nest like the call stack, so a layer's self time is its span minus
the spans of its direct children. A layer whose function is missing is
reported as absent, not as an error, so private helpers can be renamed
without breaking the benchmark.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable

# already-imported modules scanned for bindings; errexp._backend and the
# *_nb twins are deliberately never imported or wrapped
SCANNED_MODULES = (
    "errexp",
    "errexp.cli",
    "errexp.testing",
    "errexp.types_method",
    "errexp.detection",
    "errexp.boltzmann",
    "errexp.dist",
    "errexp._kernels",
)


def _len0(args, kwargs, result):
    return len(args[0])


@dataclass(frozen=True)
class Layer:
    """One traced layer: the functions that make it and what they count.

    ``targets`` are (module, attribute path) pairs naming the defining
    bindings; ``counters`` map a counter name to f(args, kwargs, result).
    """

    name: str
    targets: tuple
    counters: dict = field(default_factory=dict)


LAYERS = (
    Layer("cli", (("errexp.cli", "main"),)),
    Layer("cli.write_csv", (("errexp.cli", "_write_csv"),)),
    Layer(
        "types_method.enumerate",
        (("errexp.types_method", "_enumerate_counts"),),
        {"types": lambda a, k, r: r.shape[0], "bytes": lambda a, k, r: r.nbytes},
    ),
    Layer("types_method.mask", (("errexp.types_method", "ConstraintSet.mask"),)),
    Layer("types_method.kl_rows", (("errexp.types_method", "_kl_rows"),)),
    Layer(
        "types_method.sanov",
        (
            ("errexp.types_method", "sanov_exponent"),
            ("errexp.types_method", "sanov_exact_log2_prob"),
            ("errexp.types_method", "sanov_exact_prob"),
        ),
    ),
    Layer(
        "types_method.log2_sum_exp2",
        (("errexp.types_method", "_log2_sum_exp2"),),
        {"terms": _len0},
    ),
    Layer("kernels.type_log_probs", (("errexp._kernels", "type_log_probs"),), {"rows": _len0}),
    Layer("testing.stein", (("errexp.testing", "stein_errors"),)),
    Layer("testing.np", (("errexp.testing", "neyman_pearson_min_beta"),)),
    Layer("testing.llr_rows", (("errexp.testing", "_avg_llr_rows"),)),
    Layer("testing.chernoff", (("errexp.testing", "chernoff_lambda_star"),)),
    Layer(
        "detection.simulate",
        (("errexp.detection", "simulate_detection"),),
        {"trials": lambda a, k, r: a[0].trials},
    ),
    Layer(
        "kernels.count_detection_errors",
        (("errexp._kernels", "count_detection_errors"),),
        {"trials": _len0},
    ),
    Layer("boltzmann.solve_beta", (("errexp.boltzmann", "solve_beta"),)),
    Layer("boltzmann.distribution", (("errexp.boltzmann", "boltzmann_distribution"),)),
    Layer("dist.kl_divergence", (("errexp.dist", "kl_divergence"),)),
    Layer("dist.tilted", (("errexp.dist", "tilted"),)),
    Layer("dist.log_factorial_table", (("errexp.dist", "log_factorial_table"),)),
)


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)
    # calls of this layer made while another layer was on the stack
    inside: dict = field(default_factory=dict)


class Tracer:
    """Call-stack spans over wrapped layers, aggregated per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, LayerStats] = {}
        self._stack: list[list] = []  # [layer name, start, child seconds]

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        span = self.clock() - start
        st = self.stats.setdefault(name, LayerStats())
        st.calls += 1
        st.total_s += span
        st.self_s += span - child
        for outer in {frame[0] for frame in self._stack}:
            st.inside[outer] = st.inside.get(outer, 0) + 1
        if self._stack:
            self._stack[-1][2] += span

    def count(self, name: str, key: str, value: int) -> None:
        st = self.stats.setdefault(name, LayerStats())
        st.counts[key] = st.counts.get(key, 0) + int(value)

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            tracer.enter(layer.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            for key, counter in layer.counters.items():
                tracer.count(layer.name, key, counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced


def _resolve(obj, path: str):
    """(owner, attribute name, value) of a dotted path, or None if missing."""
    parts = path.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    if not hasattr(obj, parts[-1]):
        return None
    # class attributes are read from __dict__ so methods stay unbound
    value = vars(obj).get(parts[-1]) if isinstance(obj, type) else getattr(obj, parts[-1])
    return (obj, parts[-1], value) if value is not None else None


class Installation:
    """Wrappers for every binding of every layer; apply() installs them and
    remove() restores the original functions."""

    def __init__(self, tracer: Tracer, layers=LAYERS):
        self.tracer = tracer
        self.absent: list[str] = []
        self._bindings: list[tuple] = []  # (owner, attribute, original, wrapper)
        modules = [sys.modules[name] for name in SCANNED_MODULES if name in sys.modules]
        for layer in layers:
            found = False
            for mod_name, path in layer.targets:
                mod = sys.modules.get(mod_name)
                hit = _resolve(mod, path) if mod is not None else None
                if hit is None:
                    continue
                found = True
                owner, attr, original = hit
                wrapper = tracer.wrap(layer, original)
                if isinstance(owner, type):
                    self._bindings.append((owner, attr, original, wrapper))
                    continue
                for other in modules:
                    for key, value in vars(other).items():
                        if value is original:
                            self._bindings.append((other, key, original, wrapper))
            if not found:
                self.absent.append(layer.name)

    def apply(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in reversed(self._bindings):
            setattr(owner, attr, original)

    def __enter__(self):
        self.apply()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False
