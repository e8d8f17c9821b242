"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from spans import Span, layer_metrics, self_times  # noqa: E402


def test_self_times_on_a_synthetic_tree():
    tree = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("a.leaf", 1.5, 2.0, parent=1),
        Span("b", 2.5, 5.0, parent=0),   # overlaps a: that part counts once
        Span("c", 9.0, 12.0, parent=0),  # only the part inside root counts
    ]
    # root's children cover [1, 5] and [9, 10].
    assert self_times(tree) == pytest.approx([5.0, 1.5, 0.5, 2.5, 3.0])


def test_layer_metrics_count_a_miss_by_its_run_ga_child():
    ga = {"m": 4, "n": 4, "lf": 10, "population": 4, "generations": 1,
          "elitism": 2, "evaluations": 5}
    tree = [
        Span("cli.main", 0.0, 4.0, attrs={"command": "optimize"}),
        Span("ga.run_ga", 0.5, 1.5, parent=0, attrs=ga),
        Span("benchmarks.reference", 2.0, 3.5, parent=0),
        Span("ga.run_ga", 2.5, 3.0, parent=2, attrs=ga),
        Span("cli.main", 5.0, 6.0, attrs={"command": "evaluate"}),
        Span("benchmarks.reference", 5.5, 5.75, parent=4),
    ]
    m = layer_metrics(tree, n_ops=2)
    assert m["benchmarks.reference_misses"] == 0.5
    assert m["benchmarks.reference_hits"] == 0.5
    assert m["cli.evaluate_calls"] == 0.5
    assert m["ga.evaluations"] == 5.0
    assert m["ga.run_ga_self_s"] == pytest.approx(0.75)
    assert m["benchmarks.reference_self_s"] == pytest.approx((1.0 + 0.25) / 2)
    assert m["cli.self_s"] == pytest.approx((4.0 - 1.0 - 1.5 + 1.0 - 0.25) / 2)
    assert m["ga.distinct_ratio"] == pytest.approx(10 / 12)
    assert m["ga.ms_per_eval"] == pytest.approx(1e3 * 1.5 / 10)


def test_tracer_patches_every_binding_and_restores_them():
    import risbench
    import risbench.benchmarks
    import risbench.field

    read = risbench.field.read_field_csv
    init = risbench.field.FieldEvaluator.__dict__["__init__"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert risbench.field.read_field_csv is not read
        assert risbench.benchmarks.read_field_csv is risbench.field.read_field_csv
        assert risbench.read_field_csv is risbench.field.read_field_csv
        assert risbench.field.FieldEvaluator.__dict__["__init__"] is not init
    finally:
        tracer.uninstall()
    assert risbench.field.read_field_csv is read
    assert risbench.benchmarks.read_field_csv is read
    assert risbench.read_field_csv is read
    assert risbench.field.FieldEvaluator.__dict__["__init__"] is init


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(name):
    first = workloads.make_inputs(name, 7)
    random.seed(12345)  # the global generator must not leak in
    assert workloads.make_inputs(name, 7) == first
    assert workloads.make_inputs(name, 8) != first
    json.dumps(first)  # plain data, written out as run configs


def test_benchmark_json_lists_what_the_worker_emits():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == worker.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == worker.per_layer_units()


SMALL_RUN = {
    "surface_ref": "S4", "rows": 8, "cols": 8, "group_size": 1,
    "benchmark_ref": "B1",
    "source": {"kind": "planewave", "amplitude": 1.0, "incidence_deg": [0.0, 0.0]},
    "grid": {"theta_step_deg": 2.0, "phi_step_deg": 2.0},
    "ga": {"population": 4, "generations": 1, "seed": 3},
}


@pytest.fixture(scope="module")
def optimize_op(tmp_path_factory):
    work = tmp_path_factory.mktemp("op")
    cfg = work / "run.json"
    cfg.write_text(json.dumps(SMALL_RUN))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("RISBENCH_CACHE_DIR", str(work / "cache"))
        rc, stdout = worker.run_cli(["optimize", "--config", str(cfg),
                                     "--out", str(work / "op0")])
    return work, rc, stdout


def _copy_op(work: Path, name: str) -> Path:
    dst = work / name
    shutil.copytree(work / "op0", dst)
    return dst


def test_checks_pass_an_intact_op(optimize_op):
    work, rc, stdout = optimize_op
    checker = checks.OutputChecker()
    problems, figures = checker.check_optimize(0, SMALL_RUN, work / "op0", rc, stdout)
    assert problems == []
    assert figures["fit_nmse"] > 0.0
    assert checker.check_optimize(0, SMALL_RUN, work / "op0", rc, stdout)[0] == []


def test_checks_flag_a_truncated_pattern_csv(optimize_op):
    work, rc, stdout = optimize_op
    op = _copy_op(work, "truncated")
    pattern = op / "achieved_pattern.csv"
    lines = pattern.read_text().splitlines(keepends=True)
    # theta 0..88 only: a complete grid of its own, but not the one requested
    pattern.write_text("".join(lines[: 1 + 45 * 180]))
    grid = checks.grid_of(SMALL_RUN)
    assert checks.pattern_problems(pattern, grid)
    problems, _ = checks.OutputChecker().check_optimize(0, SMALL_RUN, op, rc, stdout)
    assert any("achieved_pattern.csv" in p for p in problems)


def test_checks_flag_a_flipped_byte_in_best_config(optimize_op):
    work, rc, stdout = optimize_op
    checker = checks.OutputChecker()
    assert checker.check_optimize(0, SMALL_RUN, work / "op0", rc, stdout)[0] == []
    op = _copy_op(work, "flipped")
    config = op / "best_config.csv"
    body = bytearray(config.read_bytes())
    body[0] = ord("1") if body[0] != ord("1") else ord("2")
    config.write_bytes(bytes(body))
    problems, _ = checker.check_optimize(0, SMALL_RUN, op, rc, stdout)
    assert any("best_config.csv: differs" in p for p in problems)
    # A checker that never saw the intact op still catches it by rescoring.
    problems, _ = checks.OutputChecker().check_optimize(0, SMALL_RUN, op, rc, stdout)
    assert any("recomputed" in p for p in problems)
