"""Span tracing of curvlab's public functions, installed from outside the package.

``Tracer.install`` wraps every public function and public method of each
layer module and puts the wrapper at every binding site: the defining module
and every ``curvlab`` module that imported the function with ``from ... import``.
Each wrapper records a span (label, start, end, parent span, CLI call) and
adds to its label's call count, total time and self time (span time minus
the time its child spans cover).  ``uninstall`` puts the originals back, so
untraced runs execute the package untouched.

Labels are ``<layer>.<function>`` or ``<layer>.<Class>.<method>``.  A label
whose function a later change deletes is simply never wrapped; the metrics
built on it are then reported as absent instead of failing the run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYER_MODULES = {
    "cli": ("curvlab.cli",),
    "metric_model": (
        "curvlab.metric_model.expr",
        "curvlab.metric_model.jets",
        "curvlab.metric_model.model",
        "curvlab.metric_model.builtins",
    ),
    "chern": ("curvlab.chern",),
    "tensor_core": ("curvlab.tensor_core",),
    "functionals": ("curvlab.functionals",),
    "gauduchon": ("curvlab.gauduchon",),
    "schwarz": ("curvlab.schwarz",),
    "flow": ("curvlab.flow",),
}

# Recursive walkers of expression trees.  A wrapper on them would sit on
# every tree node; their time lands in the calling span instead, and
# metric_model.entry_evals counts the metric-entry evaluations they serve.
UNWRAPPED = {
    "metric_model.eval_expr",
    "metric_model.substitute",
    "metric_model.is_holomorphic",
    "metric_model.max_var_index",
    "metric_model.holomorphic_derivative",
}

METRIC_JET = "metric_model.metric_jet"
# Spans kept in memory for the dump; later spans are counted as dropped.
SPAN_CAP = 20000
ENTRY_FIELD = "metric_model.MetricSpec.entry_field"
EXTREMIZERS = ("functionals.extremize_hsc", "functionals.extremize_rbc")


def _calls_and_self(*labels: str) -> list[str]:
    return [f"{label}.{part}" for label in labels for part in ("calls", "self_s")]


# Per-layer metrics, in the order BENCHMARK.json lists them.  The comments
# name the end-to-end metric each group should move, and on which workload.
PER_LAYER = (
    # cli: argparse, point parsing, payload building, json.dumps.
    # work_per_s on bulk_points; call_p50_s on single_points.
    ["cli.main.calls", "cli.main.self_s", "cli.report_bytes"]
    # exact jets: work_per_s on bulk_points.
    + _calls_and_self("metric_model.metric_jet.exact")
    # stencil jets and expression evaluation: call_p50_s, call_p90_s and
    # work_per_s on single_points, close to nothing elsewhere.  The metric
    # entries are evaluated inside real_jet2 and field_first, so their time
    # is self time of those two; total_s covers a stencil jet with its children.
    + _calls_and_self(
        "metric_model.metric_jet.stencil",
        "metric_model.complex_jet2",
        "metric_model.real_jet2",
        "metric_model.field_first",
    )
    + ["metric_model.metric_jet.stencil.total_s"]
    # metric files: setup_s, and call_p50_s on single_points.
    + _calls_and_self("metric_model.load_metric")
    # the per-node init_flow loop: work_per_s on flow.
    + _calls_and_self("metric_model.metric_value")
    + ["metric_model.entry_evals", "metric_model.entry_evals_per_stencil_jet"]
    # Chern assembly, frame and family transforms: work_per_s on bulk_points;
    # the Bianchi check: call_p90_s on single_points; psd_project:
    # work_per_s on extremize (rbc).
    + _calls_and_self(
        "chern.ChernPoint.from_jet",
        "chern.ricci_traces",
        "chern.pluriclosed_residuals",
        "chern.first_bianchi_residual",
        "tensor_core.UnitaryFrame.to_frame",
        "tensor_core.psd_project",
        "gauduchon.gauduchon_family",
        "gauduchon.chern_from_family",
    )
    # Schwarz reports: call_p50_s on single_points.
    + _calls_and_self("schwarz.laplacian_identity_report")
    + ["schwarz.assemble_map.self_s", "schwarz.scalar_laplacian.self_s"]
    # extremizers and their objective evaluations: work_per_s on extremize,
    # close to nothing elsewhere.
    + _calls_and_self(
        "functionals.extremize_hsc",
        "functionals.extremize_rbc",
        "functionals.hsc",
        "functionals.rbc",
    )
    + ["functionals.accepted_steps", "functionals.accept_ratio"]
    # grid velocity, guard retries, field builds: work_per_s on flow.
    + _calls_and_self("flow.init_flow", "flow.flow_step")
    + ["flow.GridMetricField.jets.calls", "flow.velocity_evals_per_step", "flow.field_builds"]
    # attribution of cli.main time to the layers, and the cost of tracing.
    + [f"{layer}.{part}" for layer in LAYER_MODULES for part in ("self_s", "share")]
    + ["trace.overhead"]
)


def unit_of(metric: str) -> str:
    if metric.endswith(("self_s", "total_s")):
        return "s"
    if metric.endswith(("share", "overhead", "ratio", "per_step", "per_stencil_jet")):
        return "1"
    return "count"


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [label, start, child seconds, id]
        self.stats: dict[str, list] = {}  # label -> [calls, total s, self s]
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []  # (id, parent id, call, label, start, end)
        self.dropped = 0
        self.call = 0
        self.labels: set[str] = set()  # every label that has a wrapper
        self._next_id = 0
        self._installed: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "curvlab"]
        sites: dict[int, list] = defaultdict(list)
        for module in modules:
            for attr, value in vars(module).items():
                if inspect.isfunction(value):
                    sites[id(value)].append((module, attr))
        for layer, names in LAYER_MODULES.items():
            for name in names:
                module = importlib.import_module(name)
                for public in getattr(module, "__all__", ()):
                    obj = getattr(module, public, None)
                    if getattr(obj, "__module__", None) != module.__name__:
                        continue
                    if inspect.isfunction(obj):
                        label = f"{layer}.{public}"
                        if label in UNWRAPPED:
                            continue
                        wrapper = self._wrap(label, obj)
                        for owner, attr in sites[id(obj)]:
                            self._set(owner, attr, wrapper)
                    elif inspect.isclass(obj):
                        self._install_methods(f"{layer}.{public}", obj)

    def _install_methods(self, prefix: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            if attr == "__init__" and dataclasses.is_dataclass(cls):
                continue  # generated field assignment, not work of the layer
            label = f"{prefix}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(self._wrap(label, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(label, raw))

    def _set(self, owner, attr: str, value) -> None:
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, label: str, fn):
        self.labels.add(label)
        tracer = self
        if label == METRIC_JET:
            def route(jet):
                exact = getattr(jet, "exact", None)
                return label if exact is None else f"{label}.{'exact' if exact else 'stencil'}"
        else:
            route = None

        def wrapper(*args, **kwargs):
            frame = tracer._open(label)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, route(result) if route and result is not None else label)
            return tracer._after(label, result)

        return functools.update_wrapper(wrapper, fn)

    def _open(self, label: str) -> list:
        self._next_id += 1
        frame = [label, 0.0, 0.0, self._next_id]
        self.stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _close(self, frame: list, label: str) -> None:
        end = perf_counter()
        self.stack.pop()
        duration = end - frame[1]
        stat = self.stats.get(label)
        if stat is None:
            stat = self.stats[label] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[2]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (frame[3], parent[3] if parent else None, self.call, label, frame[1], end)
            )
        else:
            self.dropped += 1

    def _after(self, label: str, result):
        if label in EXTREMIZERS:
            self.counts["functionals.accepted_steps"] += getattr(result, "ascent_iterations", 0)
        elif label == ENTRY_FIELD and callable(result):
            return self._counting_field(result)
        return result

    def _counting_field(self, field):
        tracer = self

        def counted(z):
            tracer.counts["metric_model.entry_evals"] += 1
            if any(frame[0] == METRIC_JET for frame in tracer.stack):
                tracer.counts["metric_model.entry_evals_in_jets"] += 1
            return field(z)

        return counted

    # -- results -----------------------------------------------------------

    def metrics(self, cycles: int, overhead: float) -> tuple[dict, list[str]]:
        """Per-layer metrics per traced cycle, and the names that are absent."""
        absent = []

        def stat(label: str, index: int) -> float:
            return self.stats.get(label, (0, 0.0, 0.0))[index]

        def wrapped(label: str) -> bool:
            return label.removesuffix(".exact").removesuffix(".stencil") in self.labels

        layer_self = {
            layer: sum(s[2] for name, s in self.stats.items() if name.split(".")[0] == layer)
            for layer in LAYER_MODULES
        }
        main_total = stat("cli.main", 1)
        stencil_jets = stat(f"{METRIC_JET}.stencil", 0)
        objective_calls = stat("functionals.hsc", 0) + stat("functionals.rbc", 0)
        derived = {
            "cli.report_bytes": (self.counts["cli.report_bytes"] / cycles, ["cli.main"]),
            "metric_model.entry_evals": (
                self.counts["metric_model.entry_evals"] / cycles, [ENTRY_FIELD]),
            "metric_model.entry_evals_per_stencil_jet": (
                self.counts["metric_model.entry_evals_in_jets"] / stencil_jets
                if stencil_jets else 0.0, [ENTRY_FIELD, METRIC_JET]),
            "functionals.accepted_steps": (
                self.counts["functionals.accepted_steps"] / cycles, list(EXTREMIZERS)),
            "functionals.accept_ratio": (
                self.counts["functionals.accepted_steps"] / objective_calls
                if objective_calls else 0.0,
                [*EXTREMIZERS, "functionals.hsc", "functionals.rbc"]),
            "flow.velocity_evals_per_step": (
                stat("flow.GridMetricField.jets", 0) / stat("flow.flow_step", 0)
                if stat("flow.flow_step", 0) else 0.0,
                ["flow.GridMetricField.jets", "flow.flow_step"]),
            "flow.field_builds": (
                stat("flow.GridMetricField.__init__", 0) / cycles,
                ["flow.GridMetricField.__init__"]),
            "trace.overhead": (overhead, []),
        }
        for layer in LAYER_MODULES:
            derived[f"{layer}.self_s"] = (layer_self[layer] / cycles, [])
            derived[f"{layer}.share"] = (
                layer_self[layer] / main_total if main_total else 0.0, [])
        out = {}
        for metric in PER_LAYER:
            if metric in derived:
                value, needs = derived[metric]
            else:
                label, part = metric.rsplit(".", 1)
                value = stat(label, {"calls": 0, "total_s": 1, "self_s": 2}[part]) / cycles
                needs = [label]
            if not all(wrapped(label) for label in needs):
                absent.append(metric)
            out[metric] = value
        return out, absent

    def dump(self) -> dict:
        return {
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.stats.items())},
            "counts": dict(self.counts),
            "spans": {"fields": ["id", "parent", "call", "label", "start", "end"],
                      "rows": self.spans, "dropped": self.dropped},
        }
