"""Output checks; an op that fails any of them counts as failed.

Each ``check_*`` method returns a list of problems, empty when the output
passes.  Checks go through risbench's public API only, so they must run with
the tracer uninstalled.  Artifacts that must repeat are compared by digest
against the first op that ran the same input in this run, and the costly
checks (pattern reload, fitness recompute) are done once per distinct file.
"""

from __future__ import annotations

import hashlib
import json
import math
from importlib import resources
from pathlib import Path

import numpy as np

from risbench import (
    ConfigMatrix,
    FieldEvaluator,
    GAParams,
    GridSpec,
    SourceModel,
    build_surface,
    ideal_target_field,
    load_benchmark,
    load_unit_cell,
    nmse,
    read_field_csv,
)

FIT_RTOL = 1e-12
OPTIMIZE_ARTIFACTS = ("best_config.csv", "history.csv", "achieved_pattern.csv")
SIMULATE_ARTIFACTS = ("pattern.csv", "config.ppm")


def grid_of(doc: dict) -> GridSpec:
    g = doc["grid"]
    return GridSpec(theta_step_deg=float(g["theta_step_deg"]),
                    phi_step_deg=float(g["phi_step_deg"]))


def source_of(doc: dict) -> SourceModel:
    s = doc["source"]
    if s["kind"] == "point":
        return SourceModel.point(tuple(s["position_m"]), float(s["amplitude"]))
    inc = s.get("incidence_deg", (0.0, 0.0))
    return SourceModel.planewave(float(s["amplitude"]), float(inc[0]), float(inc[1]))


def ga_of(doc: dict) -> GAParams:
    g = doc["ga"]
    return GAParams(population=int(g["population"]),
                    generations=int(g["generations"]), seed=int(g["seed"]))


def recompute_fitness(doc: dict, best_config: Path) -> float:
    """``-nmse(target, FieldEvaluator.field(best_config))`` via the public API."""
    surface, _ = build_surface(load_unit_cell(doc["surface_ref"]), int(doc["rows"]),
                               int(doc["cols"]), int(doc["group_size"]))
    grid = grid_of(doc)
    target = ideal_target_field(load_benchmark(doc["benchmark_ref"]), grid)
    states = np.loadtxt(best_config, delimiter=",", dtype=np.int64, ndmin=2)
    achieved = FieldEvaluator(surface, source_of(doc), grid).field(
        ConfigMatrix(states=states))
    return -nmse(target, achieved)


def pattern_problems(path: Path, grid: GridSpec) -> list[str]:
    """A pattern CSV must reload onto exactly the full grid that was requested."""
    try:
        loaded = read_field_csv(path)
    except Exception as exc:  # any failure to reload is a failed output
        return [f"{path.name}: does not reload: {exc}"]
    expected = (grid.theta_deg().size, grid.phi_deg().size)
    if loaded.grid != grid or loaded.values.shape != expected:
        return [f"{path.name}: reloads as {loaded.values.shape} on {loaded.grid}, "
                f"requested {expected} on {grid}"]
    return []


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _finite_metrics(m: dict) -> bool:
    return all(isinstance(m.get(k), (int, float)) and math.isfinite(m[k])
               for k in ("de", "nmse", "slr_db"))


class OutputChecker:
    """Checks the ops of one run against each other and the public API."""

    def __init__(self):
        import jsonschema  # here, not at module level: set-up imports this module

        schema = json.loads(resources.files("risbench").joinpath(
            "data", "schemas", "run_record.schema.json").read_text())
        self._record_validator = jsonschema.Draft7Validator(schema)
        self._first: dict[tuple, str] = {}     # (input, artifact) -> digest
        self._checked: dict[tuple, object] = {}  # memoized per-file results

    def _same_as_first(self, key: int, name: str, digest: str) -> list[str]:
        first = self._first.setdefault((key, name), digest)
        return [] if first == digest else [f"{name}: differs from the first op's bytes"]

    def _pattern(self, path: Path, digest: str, grid: GridSpec) -> list[str]:
        memo = ("pattern", digest, grid)
        if memo not in self._checked:
            self._checked[memo] = pattern_problems(path, grid)
        return self._checked[memo]

    def check_optimize(self, key: int, doc: dict, out: Path, rc: int,
                       stdout: str) -> tuple[list[str], dict]:
        """Problems of one ``optimize`` op, and its fidelity figures."""
        if rc != 0:
            return [f"optimize exited {rc}"], {}
        try:
            result = json.loads(stdout)
            best = float(result["best_fitness"])
            metrics = dict(result["metrics"])
        except (ValueError, KeyError, TypeError) as exc:
            return [f"optimize stdout is not the expected JSON: {exc}"], {}
        problems = [] if _finite_metrics(metrics) else ["non-finite metrics"]
        problems += self._same_as_first(key, "stdout", stdout)
        try:
            record = json.loads((out / "run_record.json").read_text())
        except (OSError, ValueError) as exc:
            problems.append(f"run_record.json: {exc}")
        else:
            problems += [f"run_record.json: {e.message}"
                         for e in self._record_validator.iter_errors(record)]
        digests = {}
        for name in OPTIMIZE_ARTIFACTS:
            try:
                digests[name] = _digest(out / name)
            except OSError as exc:
                problems.append(f"{name}: {exc}")
                continue
            problems += self._same_as_first(key, name, digests[name])
        if "achieved_pattern.csv" in digests:
            problems += self._pattern(out / "achieved_pattern.csv",
                                      digests["achieved_pattern.csv"], grid_of(doc))
        if "best_config.csv" in digests:
            memo = ("fit", digests["best_config.csv"], key)
            if memo not in self._checked:
                try:
                    self._checked[memo] = recompute_fitness(doc, out / "best_config.csv")
                except Exception as exc:  # a config the API rejects fails the op
                    self._checked[memo] = f"best_config.csv does not score: {exc}"
            fit = self._checked[memo]
            if isinstance(fit, str):
                problems.append(fit)
            elif not abs(fit - best) <= FIT_RTOL * abs(fit):
                problems.append(f"best_fitness {best!r} != recomputed {fit!r}")
        figures = {"fit_nmse": -best, "ref_nmse": metrics.get("nmse"),
                   "de": metrics.get("de"), "slr_db": metrics.get("slr_db")}
        return problems, figures

    def check_simulate(self, key: int, doc: dict, out: Path, rc: int) -> list[str]:
        if rc != 0:
            return [f"simulate exited {rc}"]
        problems = []
        for name in SIMULATE_ARTIFACTS:
            try:
                digest = _digest(out / name)
            except OSError as exc:
                problems.append(f"{name}: {exc}")
                continue
            problems += self._same_as_first(key, name, digest)
            if name == "pattern.csv":
                problems += self._pattern(out / name, digest, grid_of(doc))
        ppm = out / "config.ppm"
        if ppm.is_file():
            head = f"P6\n{doc['cols']} {doc['rows']}\n255\n".encode()
            body = ppm.read_bytes()
            if not body.startswith(head) or len(body) != len(head) + 3 * doc["rows"] * doc["cols"]:
                problems.append("config.ppm: wrong header or size")
        return problems

    def check_evaluate(self, key: int, out: Path, rc: int,
                       stdout: str) -> tuple[list[str], dict]:
        if rc != 0:
            return [f"evaluate exited {rc}"], {}
        try:
            metrics = dict(json.loads(stdout))
            written = json.loads((out / "metrics.json").read_text())
        except (OSError, ValueError, TypeError) as exc:
            return [f"evaluate output is not the expected JSON: {exc}"], {}
        if not _finite_metrics(metrics):
            problems = ["non-finite metrics"]
        else:
            problems = ["negative nmse"] if metrics["nmse"] < 0.0 else []
        if written != metrics:
            problems.append("metrics.json differs from stdout")
        problems += self._same_as_first(key, "evaluate", stdout)
        figures = {"ref_nmse": metrics.get("nmse"), "de": metrics.get("de"),
                   "slr_db": metrics.get("slr_db")}
        return problems, figures

    def check_table1(self, rc: int, stdout: str) -> list[str]:
        if rc != 0:
            return [f"table1 exited {rc}"]
        try:
            table = json.loads(stdout)
        except ValueError as exc:
            return [f"table1 stdout is not JSON: {exc}"]
        problems = []
        if not isinstance(table, dict) or sorted(table) != ["S1", "S2", "S3", "S4", "S5"]:
            problems.append("table1 does not list the cells S1..S5")
        return problems + self._same_as_first(-1, "table1", stdout)

    def cache_problems(self, cache: Path, grid: GridSpec) -> list[str]:
        """Every reference pattern in a cache directory reloads onto the grid."""
        problems = []
        for path in sorted((cache / "ref").glob("*.csv")):
            if path.name.endswith(".config.csv"):
                continue
            problems += self._pattern(path, _digest(path), grid)
        return problems
