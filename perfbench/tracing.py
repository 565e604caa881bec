"""Spans around the public functions of each semiflow module.

The tracer replaces each traced function under the name its caller looks
it up by (``semiflow.network.trace_transport``, ``GridFunction.__post_init__``,
the ``apply`` of the semigroups and generators that the benchmark or the
CLI builds) with a wrapper that records a span: name, start, end, parent
span and op id.  Nothing in the package changes.  Spans are recorded only
while an op runs, so oracle work is never traced.

Counts are taken at the same boundaries (points a kernel touches, bytes a
grid function copies, warnings raised inside a layer).  Per-layer metrics
are derived from the spans when the run ends; a span's self time is its
duration minus the durations of its children.
"""

from __future__ import annotations

import dataclasses
import functools
import time
import warnings
from collections import defaultdict

import numpy as np

from semiflow import (_kernels, cli, generation, grid, network, operators,
                      samples, semigroups, seminorms)

# (span name, metrics derived from its spans); "self_ms" needs child spans
SPAN_METRICS = {
    "kernels.damped.panel": ("calls", "ms"),
    "kernels.damped.scalar": ("calls", "ms"),
    "kernels.trace": ("calls", "ms"),
    "kernels.upwind": ("calls", "ms"),
    "semigroups.laplace": ("calls", "ms", "self_ms"),
    "semigroups.euler": ("calls", "ms", "self_ms"),
    "semigroups.apply": ("calls", "ms"),
    "seminorms.eval_pn": ("calls", "ms"),
    "operators.resolve": ("calls", "ms", "self_ms"),
    "operators.apply": ("calls", "ms", "self_ms"),
    "generation.verdict": ("calls", "ms", "self_ms"),
    "cli.main": ("calls", "ms", "self_ms"),
    "samples": ("calls", "ms"),
    "network.weighted_bc": ("calls", "ms"),
    "network.resolvent": ("calls", "ms", "self_ms"),
    "network.verdict": ("calls", "ms", "self_ms"),
    "network.step_characteristics": ("calls", "ms", "self_ms"),
    "network.simulate_flow": ("calls", "ms", "self_ms"),
}

# work counts per kernel, and the per-unit cost derived from them
KERNEL_WORK = {
    "kernels.damped.panel": ("points", "ns_per_point"),
    "kernels.damped.scalar": ("points", "ns_per_point"),
    "kernels.trace": ("points", "ns_per_point"),
    "kernels.upwind": ("cell_steps", "ns_per_cell_step"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index, op id, raised)
        self.counts: dict = defaultdict(float)
        self._open: list[tuple[int, str]] = []
        self._op = None
        self._patches: list = []

    def begin_op(self, op_id: int) -> None:
        self._op = op_id

    def end_op(self) -> None:
        self._op = None

    def span(self, name, fn, count=None):
        """Wrap ``fn`` so each call made during an op records a span named
        ``name`` (or ``name(args)``); ``count(name, args, result)`` adds
        counters at the same boundary."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            idx = len(self.spans)
            parent = self._open[-1][0] if self._open else -1
            self.spans.append(None)
            self._open.append((idx, label))
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[idx] = (label, start, end, parent, self._op, raised)
            if count is not None:
                count(label, args, result)
            return result

        return wrapper

    def _showwarning(self, message, category, filename, lineno, file=None, line=None):
        layer = self._open[-1][1] if self._open else "outside"
        self.counts[f"{layer}.warnings"] += 1

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        c = self.counts

        def damped_label(args):
            return "kernels.damped." + ("scalar" if np.ndim(args[2]) == 0 else "panel")

        def damped_count(label, args, result):
            c[label + ".points"] += len(args[0])

        def trace_count(label, args, result):
            # bound on the paths the tracer may follow: walks of up to `cap`
            # crossings in the coupling pattern, from every node
            values, coupling, cap = args[0], args[1], args[6]
            n_edges, n_nodes = np.shape(values)
            pattern = (np.asarray(coupling) != 0).astype(float)
            walks, level = 0.0, np.ones(n_edges)
            for _ in range(int(cap) + 1):
                walks += float(level.sum())
                level = pattern @ level
            c[label + ".points"] += n_edges * n_nodes
            c[label + ".paths"] += walks * n_nodes

        def upwind_count(label, args, result):
            c[label + ".cell_steps"] += np.size(args[0]) * int(args[4])

        def grid_count(label, args, result):
            c["grid.bytes_copied"] += args[0].values.nbytes

        def witness_count(label, args, result):
            stack = [result]
            while stack:
                report = stack.pop()
                c[label + ".witnesses"] += len(report.witnesses)
                stack.extend(report.sub_reports)

        damped = self.span(damped_label, _kernels.damped_cumulative_integral, damped_count)
        self._patch(operators, "damped_cumulative_integral", damped)
        self._patch(network, "damped_cumulative_integral", damped)
        self._patch(network, "trace_transport",
                    self.span("kernels.trace", _kernels.trace_transport, trace_count))
        self._patch(network, "upwind_sweep",
                    self.span("kernels.upwind", _kernels.upwind_sweep, upwind_count))

        self._patch(grid.GridFunction, "__post_init__",
                    self.span("grid.construct", grid.GridFunction.__post_init__, grid_count))
        self._patch(network.EdgeState, "__post_init__",
                    self.span("network.states.construct", network.EdgeState.__post_init__))
        self._patch(operators.Generator, "resolve",
                    self.span("operators.resolve", operators.Generator.resolve))

        for mod in (seminorms, generation, cli):
            self._patch(mod, "eval_pn", self.span("seminorms.eval_pn", seminorms.eval_pn))
        for mod, attr in ((cli, "sample_functions"), (cli, "smooth_bump"),
                          (cli, "plateau_ramp"), (network, "sample_functions"),
                          (generation, "probe_functions")):
            self._patch(mod, attr, self.span("samples", getattr(samples, attr)))

        for mod in (cli, semigroups):
            self._patch(mod, "laplace_resolvent",
                        self.span("semigroups.laplace", semigroups.laplace_resolvent))
        self._patch(cli, "euler_apply", self.span("semigroups.euler", semigroups.euler_apply))
        self._patch(cli, "lumer_phillips_verdict",
                    self.span("generation.verdict", generation.lumer_phillips_verdict,
                              witness_count))

        def traced_apply(factory, label):
            def make(*args, **kwargs):
                built = factory(*args, **kwargs)
                return dataclasses.replace(built, apply=self.span(label, built.apply))
            return make

        for attr in ("shift_semigroup", "right_translation_semigroup"):
            self._patch(cli, attr, traced_apply(getattr(semigroups, attr), "semigroups.apply"))
        self._patch(network, "network_semigroup",
                    traced_apply(network.network_semigroup, "semigroups.apply"))
        for attr in ("left_shift_generator", "right_translation_generator",
                     "laplacian_generator"):
            self._patch(cli, attr, traced_apply(getattr(operators, attr), "operators.apply"))

        for attr, label in (("weighted_bc", "network.weighted_bc"),
                            ("network_resolvent", "network.resolvent"),
                            ("network_generation_verdict", "network.verdict"),
                            ("step_characteristics", "network.step_characteristics"),
                            ("simulate_flow", "network.simulate_flow")):
            self._patch(network, attr, self.span(label, getattr(network, attr)))
        self._patch(cli, "main", self.span("cli.main", cli.main))
        self._patch(warnings, "showwarning", self._showwarning)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per pass of the workload's op list."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = [0.0] * len(self.spans)
        nested = defaultdict(int)  # (parent name, child name) -> calls
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
                nested[(self.spans[parent][0], name)] += 1
        self_time = defaultdict(float)
        errors = defaultdict(int)
        for k, (name, start, end, _, _, raised) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child[k]
            errors[name] += raised

        out = {}
        for name, kinds in SPAN_METRICS.items():
            values = {"calls": calls[name], "ms": 1e3 * total[name],
                      "self_ms": 1e3 * self_time[name]}
            for kind in kinds:
                out[f"{name}.{kind}"] = values[kind] / passes
        for name, (work, unit_cost) in KERNEL_WORK.items():
            amount = self.counts[f"{name}.{work}"]
            out[f"{name}.{work}"] = amount / passes
            out[f"{name}.{unit_cost}"] = 1e9 * total[name] / amount if amount else 0.0
        out["kernels.trace.paths"] = self.counts["kernels.trace.paths"] / passes
        out["semigroups.laplace.orbit_evals"] = (
            nested[("semigroups.laplace", "semigroups.apply")] / passes)
        out["semigroups.euler.resolves"] = (
            nested[("semigroups.euler", "operators.resolve")] / passes)
        out["grid.constructs"] = calls["grid.construct"] / passes
        out["grid.construct_ms"] = 1e3 * total["grid.construct"] / passes
        out["grid.bytes_copied"] = self.counts["grid.bytes_copied"] / passes
        out["network.states.constructs"] = calls["network.states.construct"] / passes
        out["generation.verdict.witnesses"] = (
            self.counts["generation.verdict.witnesses"] / passes)
        out["network.resolvent.warnings"] = (
            self.counts["network.resolvent.warnings"] / passes)
        out["network.resolvent.errors"] = errors["network.resolvent"] / passes
        return out
