"""Spans around the public functions of each risbench layer, from outside.

``Tracer.install()`` replaces each target with a wrapper that records a
span (name, start, end, parent) in memory, and ``uninstall()`` puts the
originals back.  A function is replaced in every ``risbench`` module that
bound it at import (``benchmarks`` holds its own ``read_field_csv``, the
package holds everything); methods are replaced on their class.  The CLI
imports inside its handlers, so patching the defining module covers it.

``layer_metrics`` turns the spans of the traced ops into the per-layer
metrics listed in ``PER_LAYER_UNITS``; every value is per traced op.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float = 0.0
    end: float = 0.0
    parent: int | None = None  # index of the enclosing span
    op: int = -1               # op the span belongs to
    attrs: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        lo = hi = None
        for a, b in sorted((max(k.start, s.start), min(k.end, s.end)) for k in kids):
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(s.end - s.start - covered)
    return out


def _cli_attrs(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0] if argv else None}


def _csv_attrs(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _ga_attrs(args, kwargs, result):
    from risbench.ga import GAParams

    surface = args[0] if args else kwargs["surface"]
    target = args[2] if len(args) > 2 else kwargs["target"]
    params = (args[3] if len(args) > 3 else kwargs.get("params")) or GAParams()
    grid = target.grid
    n_front = int((grid.theta_deg() <= 90.0).sum())
    return {
        "m": surface.rows_m, "n": surface.cols_n,
        "lf": n_front * grid.phi_deg().size,
        "population": params.population, "generations": params.generations,
        "elitism": params.elitism, "evaluations": result.evaluations,
    }


# (span name, defining module, attribute, hook adding attributes after the call)
TARGETS = (
    ("cli.main", "risbench.cli", "main", _cli_attrs),
    ("surface.build_surface", "risbench.surface", "build_surface", None),
    ("surface.expand_groups", "risbench.surface", "expand_groups", None),
    ("field.evaluator_init", "risbench.field", "FieldEvaluator.__init__", None),
    ("field.field", "risbench.field", "FieldEvaluator.field", None),
    ("field.write_csv", "risbench.field", "write_field_csv", _csv_attrs),
    ("field.read_csv", "risbench.field", "read_field_csv", None),
    ("field.steering_config", "risbench.field", "steering_config", None),
    ("benchmarks.reference", "risbench.benchmarks", "reference_pattern", None),
    ("benchmarks.target", "risbench.benchmarks", "ideal_target_field", None),
    ("benchmarks.load_benchmark", "risbench.benchmarks", "load_benchmark", None),
    ("metrics.evaluate_all", "risbench.metrics", "evaluate_all", None),
    ("ga.run_ga", "risbench.ga", "run_ga", _ga_attrs),
    ("control.complexity_report", "risbench.control", "complexity_report", None),
)


class Tracer:
    """Records spans while installed; spans stay in memory until read."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, parent=stack[-1] if stack else None, op=self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                span.attrs.update(hook(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name, module_name, attr, hook in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, hook))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "risbench"
                                       or mod_name.startswith("risbench.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)
        self._stack.clear()


PER_LAYER_UNITS = {
    "cli.main_s": "s", "cli.self_s": "s", "cli.main_calls": "count",
    "cli.evaluate_calls": "count",
    "surface.build_surface_s": "s", "surface.expand_groups_calls": "count",
    "field.evaluator_init_s": "s", "field.evaluator_init_calls": "count",
    "field.field_s": "s", "field.field_calls": "count",
    "field.write_csv_s": "s", "field.write_csv_calls": "count",
    "field.write_csv_bytes": "B",
    "field.read_csv_s": "s", "field.read_csv_calls": "count",
    "field.steering_config_s": "s",
    "benchmarks.reference_self_s": "s", "benchmarks.reference_hits": "count",
    "benchmarks.reference_misses": "count", "benchmarks.target_s": "s",
    "benchmarks.load_benchmark_s": "s",
    "metrics.evaluate_all_s": "s", "metrics.evaluate_all_calls": "count",
    "ga.run_ga_self_s": "s", "ga.evaluations": "count", "ga.ms_per_eval": "ms",
    "ga.evals_per_s": "1/s", "ga.distinct_ratio": "ratio",
    "ga.effective_gflops": "GFLOP/s",
    "control.complexity_report_s": "s", "control.complexity_report_calls": "count",
}


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-layer metrics per traced op, from the spans of ``n_ops`` ops."""
    selfs = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for s, st in zip(spans, selfs):
        total[s.name] += s.end - s.start
        own[s.name] += st
        calls[s.name] += 1

    ref_ids = {i for i, s in enumerate(spans) if s.name == "benchmarks.reference"}
    misses = {s.parent for s in spans if s.name == "ga.run_ga" and s.parent in ref_ids}
    runs = [s.attrs for s in spans if s.name == "ga.run_ga"]
    evals = sum(a["evaluations"] for a in runs)
    budget = sum(a["population"] + a["generations"] * (a["population"] - a["elitism"])
                 for a in runs)
    flops = sum(8.0 * a["m"] * a["n"] * a["lf"] * a["evaluations"] for a in runs)
    ga_self = own["ga.run_ga"]
    write_bytes = sum(s.attrs["bytes"] for s in spans if s.name == "field.write_csv")
    evaluate_calls = sum(1 for s in spans
                         if s.name == "cli.main" and s.attrs.get("command") == "evaluate")

    values = {
        "cli.main_s": total["cli.main"], "cli.self_s": own["cli.main"],
        "cli.main_calls": calls["cli.main"], "cli.evaluate_calls": evaluate_calls,
        "surface.build_surface_s": total["surface.build_surface"],
        "surface.expand_groups_calls": calls["surface.expand_groups"],
        "field.evaluator_init_s": total["field.evaluator_init"],
        "field.evaluator_init_calls": calls["field.evaluator_init"],
        "field.field_s": total["field.field"], "field.field_calls": calls["field.field"],
        "field.write_csv_s": total["field.write_csv"],
        "field.write_csv_calls": calls["field.write_csv"],
        "field.write_csv_bytes": write_bytes,
        "field.read_csv_s": total["field.read_csv"],
        "field.read_csv_calls": calls["field.read_csv"],
        "field.steering_config_s": total["field.steering_config"],
        "benchmarks.reference_self_s": own["benchmarks.reference"],
        "benchmarks.reference_hits": len(ref_ids) - len(misses),
        "benchmarks.reference_misses": len(misses),
        "benchmarks.target_s": total["benchmarks.target"],
        "benchmarks.load_benchmark_s": total["benchmarks.load_benchmark"],
        "metrics.evaluate_all_s": total["metrics.evaluate_all"],
        "metrics.evaluate_all_calls": calls["metrics.evaluate_all"],
        "ga.run_ga_self_s": ga_self, "ga.evaluations": evals,
        "control.complexity_report_s": total["control.complexity_report"],
        "control.complexity_report_calls": calls["control.complexity_report"],
    }
    values = {k: v / n_ops for k, v in values.items()}
    # Rates and ratios are taken over all traced ops, not divided per op;
    # they read 0 where the workload runs no GA.
    values["ga.ms_per_eval"] = 1e3 * ga_self / evals if evals else 0.0
    values["ga.evals_per_s"] = evals / ga_self if ga_self else 0.0
    values["ga.distinct_ratio"] = evals / budget if budget else 0.0
    # Dense complex multiply-adds of the (M,N)@(N,Lf) product, as computed
    # from the shapes, over the GA's self time.
    values["ga.effective_gflops"] = flops / ga_self / 1e9 if ga_self else 0.0
    return values
