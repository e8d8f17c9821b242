"""Command-line front end.

Subcommands: simulate, optimize, evaluate, sweep-grouping, table1.  All
randomness flows from one seed recorded in the run record; plot outputs are
data only (CSV and pixmap), rendering is left to external tools.

Exit codes: 0 success, 2 configuration error, 3 numeric or domain error,
4 I/O error.

Nothing here imports numpy at module level: ``main`` sets the BLAS thread
variables from ``--threads`` before a handler's first import loads it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import __version__ as TOOL_VERSION

CONFIG_KEYS = {
    "surface_ref", "rows", "cols", "group_size", "pitch_mm", "benchmark_ref",
    "source", "grid", "ga", "control", "config_ref", "steer_deg", "output_dir",
}

# Fig-style state palette: states 1..4 are blue, cyan, yellow, red.
STATE_PALETTE = ((0, 0, 255), (0, 255, 255), (255, 255, 0), (255, 0, 0))


def _load_run_config(path: str) -> dict:
    from .errors import ConfigParseError

    p = Path(path)
    if not p.is_file():
        raise ConfigParseError(f"run config not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigParseError(f"cannot parse run config {p}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigParseError(f"run config {p} must be a JSON object")
    unknown = set(doc) - CONFIG_KEYS
    if unknown:
        raise ConfigParseError(f"unknown run-config keys: {sorted(unknown)}")
    return doc


def _resolve_surface(doc: dict):
    """Surface from a bundled cell id, a cell file, or a surface document."""
    from .errors import ConfigParseError
    from .surface import BUNDLED_CELL_IDS, build_surface, load_surface, load_unit_cell

    ref = doc.get("surface_ref")
    if ref is None:
        raise ConfigParseError("run config requires surface_ref")
    rows = int(doc.get("rows", 40))
    cols = int(doc.get("cols", 40))
    group = int(doc.get("group_size", 1))
    pitch_mm = doc.get("pitch_mm")
    pitch_m = None if pitch_mm is None else float(pitch_mm) * 1e-3

    if str(ref).upper() not in BUNDLED_CELL_IDS:
        path = Path(ref)
        if not path.is_file():
            raise ConfigParseError(f"surface_ref not found: {path}")
        keys = set(json.loads(path.read_text()))
        if "cell_id" in keys:
            surface, layout = load_surface(path)
            if "group_size" in doc:  # run-config override
                return build_surface(surface.cell, surface.rows_m, surface.cols_n,
                                     group, surface.pitch_m)
            return surface, layout
    cell = load_unit_cell(ref)
    return build_surface(cell, rows, cols, group, pitch_m)


def _resolve_source(doc: dict):
    from .errors import ConfigParseError
    from .field import SourceModel

    src = doc.get("source", {"kind": "planewave"})
    kind = src.get("kind", "planewave")
    amplitude = float(src.get("amplitude", 1.0))
    if kind == "planewave":
        inc = src.get("incidence_deg", (0.0, 0.0))
        return SourceModel.planewave(amplitude, float(inc[0]), float(inc[1]))
    if kind == "point":
        pos = src.get("position_m")
        if pos is None or len(pos) != 3:
            raise ConfigParseError("point source requires position_m: [x, y, z]")
        return SourceModel.point((float(pos[0]), float(pos[1]), float(pos[2])), amplitude)
    raise ConfigParseError(f"unknown source kind {kind!r}")


def _resolve_grid(doc: dict):
    from .field import GridSpec

    g = doc.get("grid", {})
    return GridSpec(theta_step_deg=float(g.get("theta_step_deg", 1.0)),
                    phi_step_deg=float(g.get("phi_step_deg", 1.0)))


def _resolve_ga(doc: dict, seed_override: int | None):
    from .ga import GAParams

    g = dict(doc.get("ga", {}))
    if seed_override is not None:
        g["seed"] = seed_override
    mut = g.get("mutation_prob_per_gene")
    return GAParams(
        population=int(g.get("population", 100)),
        generations=int(g.get("generations", 350)),
        crossover_prob=float(g.get("crossover_prob", 0.9)),
        mutation_prob_per_gene=None if mut is None else float(mut),
        elitism=int(g.get("elitism", 2)),
        tournament_size=int(g.get("tournament_size", 2)),
        seed=int(g.get("seed", 42)),
    )


def _resolve_control(doc: dict) -> dict:
    from . import control as ctl

    c = doc.get("control", {})
    return {
        "pins_k": int(c.get("pins_k", ctl.DEFAULT_PINS_K)),
        "tau_s": float(c.get("tau_s", ctl.DEFAULT_TAU_S)),
        "diode_power_w": float(c.get("diode_power_w", ctl.DEFAULT_DIODE_POWER_W)),
    }


def _output_dir(doc: dict, out_flag: str | None) -> Path:
    from .errors import IoError

    out = Path(out_flag) if out_flag else Path(doc.get("output_dir", "runs/out"))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out}: {exc}") from exc
    return out


def __getattr__(name: str):
    # The config-CSV codec lives in surface; it is re-exported here on first
    # access so that importing this module does not load numpy.
    if name in ("read_config_csv", "write_config_csv"):
        from . import surface

        return getattr(surface, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def write_config_ppm(config, path: Path) -> None:
    """Binary pixmap of the state grid, one pixel per cell."""
    rows, cols = config.states.shape
    body = bytearray()
    for m in range(rows):
        for n in range(cols):
            s = int(config.states[m, n])
            if s < len(STATE_PALETTE):
                rgb = STATE_PALETTE[s]
            else:  # gray ramp past the named palette
                level = 64 + (s * 37) % 128
                rgb = (level, level, level)
            body.extend(rgb)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{cols} {rows}\n255\n".encode())
        fh.write(bytes(body))


def _run_record(doc, seed, metrics, report, artifacts, wall_s) -> dict:
    return {
        "config": doc,
        "seed": seed,
        "tool_version": TOOL_VERSION,
        "wall_time_s": wall_s,
        "metrics": metrics.to_dict(),
        "control": report.to_dict(),
        "artifacts": {k: str(v) for k, v in artifacts.items()},
    }


def cmd_simulate(args) -> int:
    from .field import FieldEvaluator, steering_config, write_field_csv
    from .surface import read_config_csv, uniform_config

    doc = _load_run_config(args.config)
    surface, _ = _resolve_surface(doc)
    src = _resolve_source(doc)
    grid = _resolve_grid(doc)
    out = _output_dir(doc, args.out)

    if doc.get("config_ref"):
        config = read_config_csv(Path(doc["config_ref"]))
    elif doc.get("steer_deg") is not None:
        config = steering_config(surface, float(doc["steer_deg"]))
    else:
        config = uniform_config(surface)

    gridval = FieldEvaluator(surface, src, grid).field(config)
    pattern_csv = out / "pattern.csv"
    config_ppm = out / "config.ppm"
    write_field_csv(gridval, pattern_csv)
    write_config_ppm(config, config_ppm)
    print(f"wrote {pattern_csv} and {config_ppm}")
    return 0


def cmd_optimize(args) -> int:
    from .benchmarks import ideal_target_field, load_benchmark, reference_pattern
    from .control import complexity_report
    from .field import write_field_csv
    from .ga import run_ga
    from .metrics import evaluate_all
    from .surface import write_config_csv

    t0 = time.perf_counter()
    doc = _load_run_config(args.config)
    surface, _ = _resolve_surface(doc)
    src = _resolve_source(doc)
    grid = _resolve_grid(doc)
    ga = _resolve_ga(doc, args.seed)
    bm = load_benchmark(doc.get("benchmark_ref", "B1"))
    out = _output_dir(doc, args.out)

    target = ideal_target_field(bm, grid)
    result = run_ga(surface, src, target, ga)

    config_csv = out / "best_config.csv"
    history_csv = out / "history.csv"
    pattern_csv = out / "achieved_pattern.csv"
    record_json = out / "run_record.json"

    write_config_csv(result.best_config, config_csv)
    with open(history_csv, "w") as fh:
        fh.write("generation,best_fitness\n")
        for g, f in enumerate(result.history, start=1):
            fh.write(f"{g},{f:.9g}\n")
    write_field_csv(result.best_field, pattern_csv)

    reference, _ = reference_pattern(bm, src, ga.seed, ga_params=ga, grid=grid)
    metrics = evaluate_all(reference, result.best_field, bm)
    ctl = _resolve_control(doc)
    report = complexity_report(surface, **ctl)
    record = _run_record(
        doc, ga.seed, metrics, report,
        {"best_config_csv": config_csv, "history_csv": history_csv,
         "pattern_csv": pattern_csv, "record_json": record_json},
        time.perf_counter() - t0,
    )
    record_json.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"best_fitness": result.best_fitness,
                      "evaluations": result.evaluations,
                      "metrics": metrics.to_dict()}, indent=2))
    return 0


def cmd_evaluate(args) -> int:
    from .benchmarks import load_benchmark, reference_pattern
    from .field import read_field_csv
    from .metrics import evaluate_all

    doc = _load_run_config(args.config)
    src = _resolve_source(doc)
    grid = _resolve_grid(doc)
    ga = _resolve_ga(doc, args.seed)
    bm = load_benchmark(doc.get("benchmark_ref", "B1"))

    achieved = read_field_csv(args.achieved)
    if args.reference:
        reference = read_field_csv(args.reference)
    else:
        reference, _ = reference_pattern(bm, src, ga.seed, ga_params=ga, grid=grid)
    metrics = evaluate_all(reference, achieved, bm)
    text = json.dumps(metrics.to_dict(), indent=2)
    print(text)
    if args.out:
        out = _output_dir(doc, args.out)
        (out / "metrics.json").write_text(text + "\n")
    return 0


def cmd_sweep_grouping(args) -> int:
    from .benchmarks import ideal_target_field, load_benchmark, reference_pattern
    from .control import physical_paths, switching_rate
    from .field import write_field_csv
    from .ga import run_ga
    from .metrics import evaluate_all
    from .surface import build_surface, write_config_csv

    doc = _load_run_config(args.config)
    surface, _ = _resolve_surface(doc)
    src = _resolve_source(doc)
    grid = _resolve_grid(doc)
    ga = _resolve_ga(doc, args.seed)
    bm = load_benchmark(doc.get("benchmark_ref", "B1"))
    ctl = _resolve_control(doc)
    out = _output_dir(doc, args.out)
    groups = [int(g) for g in args.groups.split(",")]

    target = ideal_target_field(bm, grid)
    reference, _ = reference_pattern(bm, src, ga.seed, ga_params=ga, grid=grid)

    rows = []
    for g in groups:
        surf_g, _ = build_surface(surface.cell, surface.rows_m, surface.cols_n,
                                  g, surface.pitch_m)
        result = run_ga(surf_g, src, target, ga)
        metrics = evaluate_all(reference, result.best_field, bm)
        gdir = out / f"g{g}"
        gdir.mkdir(exist_ok=True)
        write_config_csv(result.best_config, gdir / "best_config.csv")
        write_field_csv(result.best_field, gdir / "achieved_pattern.csv")
        rows.append((
            g, metrics.de, metrics.nmse, metrics.slr_db,
            physical_paths(surf_g.rows_m, surf_g.cols_n, surf_g.cell.n_bits, g),
            switching_rate(g, ctl["pins_k"], surf_g.rows_m, surf_g.cols_n,
                           surf_g.cell.n_bits, ctl["tau_s"]),
        ))

    sweep_csv = out / "sweep.csv"
    with open(sweep_csv, "w") as fh:
        fh.write("G,de,nmse,slr_db,physical_paths,switching_rate_hz\n")
        for row in rows:
            fh.write("%d,%.9g,%.9g,%.9g,%d,%.9g\n" % row)
    print(f"wrote {sweep_csv}")
    return 0


def cmd_table1(args) -> int:
    from .control import complexity_report
    from .surface import BUNDLED_CELL_IDS, build_surface, load_unit_cell

    rows_m, cols_n, group = args.rows, args.cols, args.group
    pins = args.pins_k
    tau_s = args.tau_ns * 1e-9
    p_d = args.diode_mw * 1e-3

    reports = {}
    for cid in BUNDLED_CELL_IDS:
        if cid == "S0":
            continue  # the idealized reference has no physical circuit
        cell = load_unit_cell(cid)
        surface, _ = build_surface(cell, rows_m, cols_n, group)
        reports[cid] = complexity_report(surface, pins, tau_s, p_d)

    if args.json:
        print(json.dumps({cid: r.to_dict() for cid, r in reports.items()}, indent=2))
        return 0

    hdr = (f"{'RIS':<4} {'n':>2} {'d':>2} {'paths':>6} {'rate_Hz':>12} "
           f"{'total_W':>9} {'area_m2':>10} {'f_GHz':>6} {'W/m2':>7}")
    print(hdr)
    print("-" * len(hdr))
    for cid, r in reports.items():
        e = r.params_echo
        print(f"{cid:<4} {e['n']:>2} {e['d']:>2} {r.physical_paths:>6} "
              f"{r.switching_rate_hz:>12.4g} {r.total_power_w:>9.4g} "
              f"{r.cell_area_m2:>10.3g} {e['f_hz'] / 1e9:>6.3g} "
              f"{r.power_per_area_w_m2:>7.3g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risbench",
        description="Far-field simulator and benchmark harness for tunable surfaces",
    )
    parser.add_argument("--threads", type=int, default=None,
                        help="cap BLAS worker threads (default: all cores)")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="run-config JSON path")
    common.add_argument("--seed", type=int, default=None, help="override ga.seed")
    common.add_argument("--out", default=None, help="override output_dir")

    sub.add_parser("simulate", parents=[common],
                   help="field pattern and config pixmap for one configuration")
    sub.add_parser("optimize", parents=[common],
                   help="GA synthesis against a benchmark target")

    p_eval = sub.add_parser("evaluate", parents=[common],
                            help="score an achieved pattern CSV")
    p_eval.add_argument("--achieved", required=True, help="achieved pattern CSV")
    p_eval.add_argument("--reference", default=None,
                        help="reference pattern CSV (default: cached reference surface)")

    p_sweep = sub.add_parser("sweep-grouping", parents=[common],
                             help="optimize and score across group sizes")
    p_sweep.add_argument("--groups", default="1,2", help="comma-separated group sizes")

    p_tab = sub.add_parser("table1", help="complexity/power table for bundled cells")
    p_tab.add_argument("--json", action="store_true", help="exact values as JSON")
    p_tab.add_argument("--rows", type=int, default=40)
    p_tab.add_argument("--cols", type=int, default=40)
    p_tab.add_argument("--group", type=int, default=1)
    p_tab.add_argument("--pins-k", type=int, default=40)
    p_tab.add_argument("--tau-ns", type=float, default=20.0)
    p_tab.add_argument("--diode-mw", type=float, default=8.0)
    return parser


_HANDLERS = {
    "simulate": cmd_simulate,
    "optimize": cmd_optimize,
    "evaluate": cmd_evaluate,
    "sweep-grouping": cmd_sweep_grouping,
    "table1": cmd_table1,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        # Must land before numpy loads its BLAS; handlers import lazily.
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    from .errors import RisBenchError

    try:
        return _HANDLERS[args.command](args)
    except RisBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
