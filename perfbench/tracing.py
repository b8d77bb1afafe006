"""Span tracing of bcsym's layers from outside the library.

The tracer replaces each layer's public functions in the namespace of the
module that calls them (``estimation.log_pdf``, ``families.reg_inc_beta`` and
so on), so only calls that cross a layer boundary become spans.  Three
same-layer lookups are wrapped as well: ``loglik``, ``score`` and ``hessian``
as the optimizer in ``estimation.fit`` finds them, which separates optimizer
overhead from kernel time.  Spans (name, start, end, parent) are kept in
memory and folded into per-name totals after every op.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("special", "families", "distribution", "rng", "estimation", "gof", "simulate", "cli")
KERNEL = ("estimation.loglik", "estimation.score", "estimation.hessian")


def _layer_of(func) -> str | None:
    package, _, layer = getattr(func, "__module__", "").rpartition(".")
    return layer if package == "bcsym" and layer in LAYERS else None


def _count_special(counts, args, result) -> None:
    x = args[-1]
    counts["special.elements"] += int(np.size(x))
    if np.ndim(x) == 0:
        counts["special.scalar_calls"] += 1


def _count_survival(counts, args, result) -> None:
    if np.ndim(args[1]) == 0:
        counts["families.survival_scalar_calls"] += 1


def _count_fit(counts, args, result) -> None:
    counts["estimation.iterations"] += result.iterations
    counts["estimation.converged"] += bool(result.converged)


class Tracer:
    """Wraps layer entry points, records spans, and derives per-layer metrics."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = Counter()
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = Counter()  # (parent name, child name) -> calls
        self._stack = []
        self._patches = []

    def install(self) -> None:
        modules = {layer: sys.modules[f"bcsym.{layer}"] for layer in LAYERS}
        for consumer, module in modules.items():
            for attr, value in list(vars(module).items()):
                layer = _layer_of(value) if inspect.isfunction(value) else None
                if layer is not None and layer != consumer:
                    self._patch(module, attr, f"{layer}.{value.__name__}")
        for attr in ("loglik", "score", "hessian"):
            self._patch(modules["estimation"], attr, f"estimation.{attr}")
        # the sampler draws through a method of the stream it is handed
        self._patch(modules["rng"].RngStream, "uniforms", "rng.uniforms")
        # entry points the benchmark itself calls
        self._patch(modules["simulate"], "run_type1_study", "simulate.run_type1_study")
        self._patch(modules["simulate"], "run_recovery_study", "simulate.run_recovery_study")
        self._patch(modules["cli"], "main", "cli.main")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        layer = name.partition(".")[0]
        if layer == "special":
            observe = _count_special
        elif name in ("families.symmetric_survival", "families.symmetric_cdf"):
            observe = _count_survival
        elif name == "estimation.fit":
            observe = _count_fit
        else:
            observe = None
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def fold(self) -> None:
        """Fold the finished spans into per-name totals and drop them."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, parent), child in zip(spans, covered):
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_time[name] += end - start - child
            self.edges[(spans[parent][0] if parent >= 0 else None, name)] += 1
        spans.clear()

    def _sum(self, table, names) -> float:
        return sum(table[n] for n in names)

    def _layer_names(self, layer: str) -> list[str]:
        return [n for n in self.calls if n.partition(".")[0] == layer]

    def metrics(self, ops: int, time_scale: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per op unless the unit says otherwise.

        Span times are multiplied by ``time_scale``, the traced ops' scaled
        time over their wall time, to put them on the end-to-end scale.
        """
        calls, counts = self.calls, self.counts
        ms = 1e3 * time_scale

        def per_op(x):
            return x / ops

        def self_ms(names):
            return per_op(ms * self._sum(self.self_time, names))

        special = self._layer_names("special")
        fits = calls["estimation.fit"]
        objective = self.edges[("estimation.fit", "estimation.loglik")]
        iterations = counts["estimation.iterations"]
        out = {
            "special.calls": (per_op(self._sum(calls, special)), "count/op"),
            "special.scalar_calls": (per_op(counts["special.scalar_calls"]), "count/op"),
            "special.elements": (per_op(counts["special.elements"]), "count/op"),
            "special.self_ms": (self_ms(special), "ms/op"),
            "families.generator_calls": (per_op(calls["families.eval_generator"]), "count/op"),
            "families.survival_calls": (
                per_op(calls["families.symmetric_survival"] + calls["families.symmetric_cdf"]),
                "count/op",
            ),
            "families.survival_scalar_calls": (
                per_op(counts["families.survival_scalar_calls"]), "count/op"
            ),
            "families.quantile_calls": (per_op(calls["families.symmetric_quantile"]), "count/op"),
            "families.weight_calls": (
                per_op(calls["families.weight_function"] + calls["families.weight_derivative"]),
                "count/op",
            ),
            "families.self_ms": (self_ms(self._layer_names("families")), "ms/op"),
            "distribution.log_pdf_calls": (per_op(calls["distribution.log_pdf"]), "count/op"),
            "distribution.truncation_calls": (per_op(calls["distribution.truncation"]), "count/op"),
            "distribution.sample_ms": (per_op(ms * self.total["distribution.sample"]), "ms/op"),
            "distribution.self_ms": (self_ms(self._layer_names("distribution")), "ms/op"),
            "rng.uniforms_calls": (per_op(calls["rng.uniforms"]), "count/op"),
            "rng.self_ms": (self_ms(self._layer_names("rng")), "ms/op"),
            "estimation.fits": (per_op(fits), "count/op"),
            "estimation.iterations": (per_op(iterations), "count/op"),
            "estimation.objective_evals": (per_op(objective), "count/op"),
            "estimation.score_evals": (
                per_op(self.edges[("estimation.fit", "estimation.score")]), "count/op"
            ),
            "estimation.hessian_evals": (
                per_op(self.edges[("estimation.fit", "estimation.hessian")]), "count/op"
            ),
            "estimation.accepted_step_ratio": (
                iterations / objective if objective else 0.0, "ratio"
            ),
            "estimation.converged_ratio": (
                counts["estimation.converged"] / fits if fits else 0.0, "ratio"
            ),
            "estimation.fit_ms": (
                ms * self.total["estimation.fit"] / fits if fits else 0.0, "ms/fit"
            ),
            "estimation.fit_self_ms": (self_ms(["estimation.fit"]), "ms/op"),
            "estimation.kernel_self_ms": (self_ms(KERNEL), "ms/op"),
            "gof.lr_tests": (per_op(calls["gof.lr_test_lambda_zero"]), "count/op"),
            "gof.reports": (per_op(calls["gof.gof_report"]), "count/op"),
            "gof.self_ms": (self_ms(self._layer_names("gof")), "ms/op"),
            "simulate.self_ms": (self_ms(self._layer_names("simulate")), "ms/op"),
            "cli.self_ms": (self_ms(self._layer_names("cli")), "ms/op"),
        }
        return out
