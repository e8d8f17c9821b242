"""One benchmark run in one fresh Python process; started by run.py.

Set-up (importing risbench from the checkout's ``src``, generating the
inputs from the workload seed, filling the reference cache the workload
declares warm) is timed from process start.  Then a closed loop with one
client drives ``risbench.cli.main(argv)`` one op at a time for the given
number of seconds, checks every op's outputs, and prints the metrics.  The
last stdout line is the result JSON; the lines before it are the same
figures for people, plus the machine facts.

With ``--trace 1`` ops alternate between untraced and traced, the traced
ones recording spans (see spans.py); the run reports per-layer metrics, the
tracing overhead, and a small scaling sweep of the GA objective.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"

# Scaling sweep of the traced run: ga.ms_per_eval at each M=N, G and grid
# step, with public run_ga on S4/B1 at this fixed small budget.
SWEEP_SIZES = (20, 40, 80)
SWEEP_GROUPS = (1, 2, 4)
SWEEP_STEPS_DEG = (1, 2)
SWEEP_GA = {"population": 8, "generations": 1}

END_TO_END_UNITS = {
    "setup_s": "s", "op_s_p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB",
}
# Printed for people above the result line but left out of it: see
# README.md for why each cannot carry a regression bound.
REPORT_ONLY_UNITS = {
    "op_s_p90": "s", "ops": "count", "failed_ratio": "ratio",
    "fit_nmse": "ratio", "ref_nmse": "ratio", "de": "ratio", "slr_db": "dB",
}
P90_MIN_OPS = 100


def sweep_names() -> list[str]:
    return [f"ga.ms_per_eval.m{m}_g{g}_s{s}"
            for m in SWEEP_SIZES for g in SWEEP_GROUPS for s in SWEEP_STEPS_DEG]


def machine_facts(seed: int, blas_threads: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    # The checkout the benchmark runs in need not be a git repository, so
    # the sources are also identified by content.
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "risbench").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas.get("name"),
        "blas_version": blas.get("version"), "blas_threads": blas_threads,
        "git_sha": sha, "src_sha256": src.hexdigest()[:16], "seed": seed,
    }


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One ``risbench`` invocation in-process: exit code and captured stdout."""
    import risbench.cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = risbench.cli.main(argv)
    except SystemExit as exc:  # argparse rejects a command line this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error is exit 1 in the real CLI
        traceback.print_exc()
        rc = 1
    return rc, buf.getvalue()


def fill_reference(doc: dict) -> None:
    """Compute the reference the CLI will look up for ``doc`` into the cache."""
    from checks import ga_of, grid_of, source_of
    from risbench import load_benchmark, reference_pattern

    ga = ga_of(doc)
    reference_pattern(load_benchmark(doc["benchmark_ref"]), source_of(doc), ga.seed,
                      ga_params=ga, grid=grid_of(doc))


def set_up(workload: str, seed: int, work: Path) -> dict:
    from workloads import make_inputs

    import risbench.cli  # noqa: F401  (the CLI the ops drive)

    inputs = make_inputs(workload, seed)
    paths = []
    for i, doc in enumerate(inputs["configs"]):
        path = work / f"config{i}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        paths.append(path)
    inputs["paths"] = paths
    os.environ["RISBENCH_CACHE_DIR"] = str(work / "cache")
    for doc in inputs["warm"]:
        fill_reference(doc)
    return inputs


def run_op(inputs: dict, i: int, op_dir: Path) -> tuple[float, list]:
    """Time op ``i``; returns its wall time and each command's (rc, stdout)."""
    k = i % len(inputs["configs"])
    cfg = str(inputs["paths"][k])
    if inputs["kind"] == "optimize":
        argvs = [["optimize", "--config", cfg, "--out", str(op_dir / "opt")]]
    else:
        argvs = [["simulate", "--config", cfg, "--out", str(op_dir / "sim")],
                 ["evaluate", "--config", cfg, "--achieved", str(op_dir / "sim" / "pattern.csv"),
                  "--out", str(op_dir / "eval")],
                 ["table1", "--json"]]
    t = time.perf_counter()
    outs = [run_cli(argv) for argv in argvs]
    return time.perf_counter() - t, outs


def check_op(checker, inputs: dict, i: int, op_dir: Path, outs: list,
             cache: Path, warm_listing) -> tuple[list[str], dict]:
    from checks import grid_of

    k = i % len(inputs["configs"])
    doc = inputs["configs"][k]
    if inputs["kind"] == "optimize":
        (rc, stdout), = outs
        problems, figures = checker.check_optimize(k, doc, op_dir / "opt", rc, stdout)
    else:
        (rc_s, _), (rc_e, out_e), (rc_t, out_t) = outs
        problems = checker.check_simulate(k, doc, op_dir / "sim", rc_s)
        more, figures = checker.check_evaluate(k, op_dir / "eval", rc_e, out_e)
        problems += more + checker.check_table1(rc_t, out_t)
    problems += checker.cache_problems(cache, grid_of(doc))
    if inputs["cold_cache"]:
        if not list((cache / "ref").glob("*.csv")):
            problems.append("cold op left no reference in the cache")
    elif sorted(p.name for p in cache.rglob("*")) != warm_listing:
        problems.append("warm reference cache was not hit")
    return problems, figures


def scaling_sweep(seed: int) -> dict[str, float]:
    from spans import Tracer, self_times

    from risbench import (GAParams, GridSpec, SourceModel, build_surface,
                          ideal_target_field, load_benchmark, load_unit_cell)
    import risbench.ga

    cell = load_unit_cell("S4")
    bm = load_benchmark("B1")
    src = SourceModel.planewave()
    params = GAParams(seed=seed, **SWEEP_GA)
    out = {}
    for m in SWEEP_SIZES:
        for g in SWEEP_GROUPS:
            for s in SWEEP_STEPS_DEG:
                surface, _ = build_surface(cell, m, m, g)
                target = ideal_target_field(bm, GridSpec(s, s))
                tracer = Tracer()
                tracer.install()
                try:
                    result = risbench.ga.run_ga(surface, src, target, params)
                finally:
                    tracer.uninstall()
                ga_self = sum(st for sp, st in zip(tracer.spans, self_times(tracer.spans))
                              if sp.name == "ga.run_ga")
                out[f"ga.ms_per_eval.m{m}_g{g}_s{s}"] = 1e3 * ga_self / result.evaluations
    return out


def main(argv=None) -> int:
    t0 = float(os.environ.get("PERFBENCH_T0", time.monotonic()))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="set up, print the set-up time and exit")
    p.add_argument("--probe-setup", default="",
                   help="comma-separated set-up times of earlier probe processes")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        return _run(args, t0, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it


def _run(args, t0: float, work: Path) -> int:
    inputs = set_up(args.workload, args.seed, work)
    setup_s = time.monotonic() - t0
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from checks import OutputChecker
    from spans import Tracer

    checker = OutputChecker()
    tracer = Tracer() if args.trace else None
    shared_cache = work / "cache"
    shared_cache.mkdir(exist_ok=True)
    warm_listing = sorted(p.name for p in shared_cache.rglob("*"))

    op_times, traced_times, failures, figures = [], [], 0, {}
    deadline = time.monotonic() + args.seconds
    i = 0
    while i < (2 if args.trace else 1) or time.monotonic() < deadline:
        op_dir = work / f"op{i}"
        cache = work / f"cache-op{i}" if inputs["cold_cache"] else shared_cache
        os.environ["RISBENCH_CACHE_DIR"] = str(cache)
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.op = i
            tracer.install()
        try:
            dt, outs = run_op(inputs, i, op_dir)
        finally:
            if traced:
                tracer.uninstall()
        (traced_times if traced else op_times).append(dt)
        problems, figs = check_op(checker, inputs, i, op_dir, outs, cache, warm_listing)
        if problems:
            failures += 1
            print(f"op {i} failed: " + "; ".join(problems), file=sys.stderr)
        else:
            figures.setdefault(i % len(inputs["configs"]), figs)
        shutil.rmtree(op_dir, ignore_errors=True)
        if inputs["cold_cache"]:
            shutil.rmtree(cache, ignore_errors=True)
        i += 1

    print("machine: " + json.dumps(machine_facts(args.seed,
                                                 os.environ.get("OPENBLAS_NUM_THREADS", "unset"))))
    if tracer is None:
        setups = [float(x) for x in args.probe_setup.split(",") if x] + [setup_s]
        metrics, units = _end_to_end(args, setups, op_times, failures, i, list(figures.values()))
    else:
        metrics, units = _per_layer(args, tracer, op_times, traced_times)
    result = {
        "correct": failures == 0, "attempted": i, "failed": failures,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def _end_to_end(args, setups, op_times, failures, attempted, per_input):
    """The gated metrics; prints them and the report-only figures."""
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(op_times),
        "ops_per_s": len(op_times) / sum(op_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = dict(metrics, ops=len(op_times), failed_ratio=failures / attempted)
    if len(op_times) >= P90_MIN_OPS:
        report["op_s_p90"] = statistics.quantiles(op_times, n=10)[-1]
    # Each distinct input counts once, so a partly repeated cycle of inputs
    # does not tilt the mean.
    for key in ("fit_nmse", "ref_nmse", "de", "slr_db"):
        if per_input and all(f.get(key) is not None for f in per_input):
            report[key] = statistics.fmean(f[key] for f in per_input)
    print(f"{args.workload} seed {args.seed}: {attempted} ops, {failures} failed; "
          f"set-ups {', '.join(f'{s:.4f}' for s in setups)} s")
    for name, unit in dict(END_TO_END_UNITS, **REPORT_ONLY_UNITS).items():
        if name in report:
            text = f"{report[name]:.6g} {unit}"
        elif name == "op_s_p90":
            text = f"n/a (fewer than {P90_MIN_OPS} ops)"
        else:
            text = "n/a (no GA in this workload)" if name == "fit_nmse" else "n/a (no passing op)"
        print(f"  {name:<14} {text}")
    return metrics, END_TO_END_UNITS


def _per_layer(args, tracer, op_times, traced_times):
    """Per-layer metrics of the traced ops, tracing overhead and the sweep."""
    from spans import layer_metrics

    metrics = layer_metrics(tracer.spans, len(traced_times))
    metrics["trace.ops"] = len(traced_times)
    metrics["trace.op_s_p50"] = statistics.median(traced_times)
    metrics["trace.op_s_p50_untraced"] = statistics.median(op_times)
    metrics["trace.overhead_ratio"] = (metrics["trace.op_s_p50"]
                                       / metrics["trace.op_s_p50_untraced"] - 1.0)
    metrics.update(scaling_sweep(args.seed))
    spans_path = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps([vars(s) for s in tracer.spans]))
    print(f"spans: {spans_path.relative_to(ROOT)}")
    units = per_layer_units()
    for name, unit in units.items():
        print(f"  {name:<32} {metrics[name]:.6g} {unit}")
    return metrics, units


def per_layer_units() -> dict[str, str]:
    from spans import PER_LAYER_UNITS

    units = {"trace.ops": "count", "trace.op_s_p50": "s",
             "trace.op_s_p50_untraced": "s", "trace.overhead_ratio": "ratio"}
    units.update(PER_LAYER_UNITS)
    units.update({name: "ms" for name in sweep_names()})
    return units


if __name__ == "__main__":
    sys.exit(main())
