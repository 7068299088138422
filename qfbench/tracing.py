"""Span tracing from outside the program.

The traced run replaces selected public functions of quiverflow with timing
wrappers in every quiverflow module that binds them, so calls made inside the
package (for example strata calling integrate_flow) are seen as well as the
benchmark's own calls. Spans (op, name, start, end, parent) are kept in
memory and written out when the run ends; self time and call counts are
accumulated as the spans close.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, function) pairs the per-layer metrics need
TRACED = {
    "quiver": ("enumerate_hn_types", "codimension"),
    "repspace": ("moment", "shifted_moment", "f_value", "neg_gradient", "grad_norm", "act"),
    "flow": ("integrate_flow", "paired_flow_sigma"),
    "strata": (
        "make_hn_example",
        "sample_semistable",
        "hn_type_by_flow",
        "flow_to_critical",
        "classify_critical",
        "refine_critical",
        "graded_object",
        "hom_space",
        "is_isomorphic",
    ),
    "series": ("poincare_semistable", "poincare_BG"),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []  # span index of each open span
        self._child_ns: list[int] = []  # time covered by children of each open span

    def span(self, name, fn, *args, on_result=None, **kwargs):
        """Call fn inside a span named `name`; on_result(result) runs after the
        span closes, so counting results costs no traced time."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._child_ns.append(0)
        t0 = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            child = self._child_ns.pop()
            if self._child_ns:
                self._child_ns[-1] += t1 - t0
            self.spans[idx] = (self.op, name, t0, t1, parent)
            self.calls[name] += 1
            self.self_ns[name] += (t1 - t0) - child
        if on_result is not None:
            on_result(out)
        return out

    def install(self):
        """Wrap every TRACED function in every loaded package module that binds
        it. The wrappers stay for the life of the process."""
        hooks = {
            "flow.integrate_flow": self._count_steps,
            "strata.flow_to_critical": self._count_dip,
            "flow.paired_flow_sigma": self._count_sigma_samples,
        }
        for layer, names in TRACED.items():
            home = sys.modules[f"quiverflow.{layer}"]
            for fname in names:
                fn = getattr(home, fname)
                name = f"{layer}.{fname}"
                wrapper = self._wrapper(name, fn, hooks.get(name))
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("quiverflow.") and getattr(mod, fname, None) is fn:
                        setattr(mod, fname, wrapper)

    def _wrapper(self, name, fn, on_result):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, on_result=on_result, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _count_steps(self, res):
        self.counts["flow.accepted_steps"] += res.n_steps

    def _count_dip(self, out):
        if out[2].dip_state is not None:
            self.counts["strata.dip_path"] += 1

    def _count_sigma_samples(self, trace):
        self.counts["flow.paired_flow_sigma.samples"] += len(trace.samples)

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of spans named child_name whose direct parent is named
        parent_name."""
        parents = {i for i, s in enumerate(self.spans) if s[1] == parent_name}
        return sum(1 for s in self.spans if s[1] == child_name and s[4] in parents)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("op,name,start_ns,end_ns,parent\n")
            for op, name, t0, t1, parent in self.spans:
                fh.write(f"{op},{name},{t0},{t1},{parent}\n")

    def layer_metrics(self, n_ops: int) -> dict:
        """The per-layer metrics, each given per attempted op."""
        ms = lambda name: self.self_ns[name] / 1e6 / n_ops  # noqa: E731
        per_op = lambda x: x / n_ops  # noqa: E731
        steps = self.counts["flow.accepted_steps"]
        samples = self.calls["strata.sample_semistable"]
        repspace_ns = sum(v for k, v in self.self_ns.items() if k.startswith("repspace."))
        m = {
            "flow.integrate_flow.calls": (per_op(self.calls["flow.integrate_flow"]), "count/op"),
            "flow.integrate_flow.self_ms": (ms("flow.integrate_flow"), "ms/op"),
            "flow.accepted_steps": (per_op(steps), "count/op"),
            "flow.ms_per_step": (
                self.self_ns["flow.integrate_flow"] / 1e6 / steps if steps else 0.0,
                "ms/step",
            ),
            "flow.paired_flow_sigma.calls": (
                per_op(self.calls["flow.paired_flow_sigma"]), "count/op"),
            "flow.paired_flow_sigma.self_ms": (ms("flow.paired_flow_sigma"), "ms/op"),
            "flow.paired_flow_sigma.samples": (
                per_op(self.counts["flow.paired_flow_sigma.samples"]), "count/op"),
            "strata.sample_semistable.calls": (per_op(samples), "count/op"),
            "strata.sample_semistable.flows_per_sample": (
                self.children_of("strata.sample_semistable", "strata.hn_type_by_flow") / samples
                if samples else 0.0,
                "count",
            ),
            "strata.make_hn_example.self_ms": (ms("strata.make_hn_example"), "ms/op"),
            "strata.flow_to_critical.calls": (
                per_op(self.calls["strata.flow_to_critical"]), "count/op"),
            "strata.flow_to_critical.self_ms": (ms("strata.flow_to_critical"), "ms/op"),
            "strata.dip_path.calls": (per_op(self.counts["strata.dip_path"]), "count/op"),
            "strata.classify_critical.calls": (
                per_op(self.calls["strata.classify_critical"]), "count/op"),
            "strata.classify_critical.self_ms": (ms("strata.classify_critical"), "ms/op"),
            "strata.refine_critical.calls": (
                per_op(self.calls["strata.refine_critical"]), "count/op"),
            "strata.refine_critical.self_ms": (ms("strata.refine_critical"), "ms/op"),
            "strata.hom_space.self_ms": (ms("strata.hom_space"), "ms/op"),
            "strata.is_isomorphic.self_ms": (ms("strata.is_isomorphic"), "ms/op"),
            "strata.graded_object.self_ms": (ms("strata.graded_object"), "ms/op"),
            "repspace.grad_norm.calls": (per_op(self.calls["repspace.grad_norm"]), "count/op"),
            "repspace.shifted_moment.calls": (
                per_op(self.calls["repspace.shifted_moment"]), "count/op"),
            "repspace.self_ms": (repspace_ns / 1e6 / n_ops, "ms/op"),
            "quiver.enumerate_hn_types.calls": (
                per_op(self.calls["quiver.enumerate_hn_types"]), "count/op"),
            "quiver.enumerate_hn_types.self_ms": (ms("quiver.enumerate_hn_types"), "ms/op"),
            "quiver.codimension.calls": (per_op(self.calls["quiver.codimension"]), "count/op"),
            "quiver.codimension.self_ms": (ms("quiver.codimension"), "ms/op"),
            "series.poincare_semistable.self_ms": (ms("series.poincare_semistable"), "ms/op"),
            "series.poincare_BG.calls": (per_op(self.calls["series.poincare_BG"]), "count/op"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
