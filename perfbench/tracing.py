"""Span tracing of grenfun from outside the library.

Every public function of every loaded ``grenfun`` module, and every public
method and ``__init__`` of its public classes, is replaced by a wrapper
that records one span: (operation, name, start, end, parent, counts).
A function is rebound at every module attribute that holds it, so
``grenfun.harness.fit`` and ``grenfun.cli.fit`` record the same
``grenander.fit`` span as ``grenfun.grenander.fit``.  Private helpers are
left alone; their time is part of their caller's self time.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter


def _lcm_counts(args, kwargs, result):
    xs = args[0] if args else kwargs["xs"]
    return {"points_in": len(xs), "vertices_out": len(result.knots)}


def _fit_counts(args, kwargs, result):
    return {"pieces": len(result.levels)}


def _apply_counts(args, kwargs, result):
    return {"rows": len(result)}


#: per-span work counts, summed per span name like the span times
COUNTS = {
    "majorant.lcm": _lcm_counts,
    "grenander.fit": _fit_counts,
    "limitlaw.YPlan.apply": _apply_counts,
}

#: the per-layer metrics of BENCHMARK.json: "<span>.s" is busy time,
#: "<span>.self_s" busy time minus traced children, "<span>.calls" the call
#: count and any other suffix a count from COUNTS; all per CLI call
PER_LAYER = (
    "majorant.lcm.s", "majorant.lcm.calls", "majorant.lcm.points_in",
    "majorant.lcm.vertices_out",
    "limitlaw.YPlan.apply.s", "limitlaw.YPlan.apply.rows",
    "limitlaw.draw_y_samples.self_s", "limitlaw.emit_y_csv.s", "limitlaw.YPlan.init.s",
    "samples.draw.s", "samples.draw.calls", "samples.ecdf.s",
    "samples.read_observations.self_s", "samples.ingest.s",
    "grenander.fit.self_s", "grenander.fit.calls", "grenander.fit.pieces",
    "functionals.tau_plugin.s", "functionals.mu_plugin.s",
    "inference.ci_mu.self_s", "inference.sigma_eff_mu.s", "inference.sigma_eff_tau.s",
    "harness.run_study.self_s", "harness.ks_distance.s", "harness.SimulationReport.write.s",
    "cli.main.self_s",
)


def unit(metric: str) -> str:
    return "s/op" if metric.endswith((".s", ".self_s")) else "count/op"


class Tracer:
    """Collects spans; ``op`` is the index of the CLI call under way."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, count = self.spans, self._stack, COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.op, name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if count is not None:
                try:
                    span[5] = count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature loses the count, not the run
            return result

        return traced

    def install(self):
        """Wrap every grenfun module loaded so far."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "grenfun" or name.startswith("grenfun.")]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.split(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_methods(layer, obj)
                elif callable(obj):
                    wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])

    def _wrap_methods(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if inspect.isfunction(obj) and (attr == "__init__" or not attr.startswith("_")):
                label = "init" if attr == "__init__" else attr
                setattr(cls, attr, self.wrap(f"{layer}.{cls.__name__}.{label}", obj))


def layer_metrics(spans, slowness) -> dict:
    """PER_LAYER values per CLI call from spans [op, name, start, end,
    parent, counts]; a layer the workload never entered reads 0.  Times
    are in nominal seconds like the end-to-end ones: each span's wall time
    over ``slowness[op]``, the host's slowness around its CLI call."""
    child_time = [0.0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = defaultdict(float)
    for i, (op, name, start, end, _, counts) in enumerate(spans):
        totals[f"{name}.s"] += (end - start) / slowness[op]
        totals[f"{name}.self_s"] += (end - start - child_time[i]) / slowness[op]
        totals[f"{name}.calls"] += 1
        for key, value in (counts or {}).items():
            totals[f"{name}.{key}"] += value
    return {m: {"value": totals[m] / len(slowness), "unit": unit(m)} for m in PER_LAYER}
