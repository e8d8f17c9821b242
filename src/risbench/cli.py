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
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

from . import __version__ as TOOL_VERSION
from .errors import (ConfigParseError, GridMismatch, IoError, RisBenchError, json_integer,
                     json_number)

# Fig-style state palette: states 1..4 are blue, cyan, yellow, red.
STATE_PALETTE = ((0, 0, 255), (0, 255, 255), (255, 255, 0), (255, 0, 0))


def _floats(n: int):
    def convert(value) -> tuple[float, ...]:
        if len(value) != n:
            raise ValueError(f"expected {n} numbers, got {value!r}")
        return tuple(json_number(v) for v in value)
    return convert


def _optional_number(value) -> float | None:
    return None if value is None else json_number(value)


# Every run-config key and how its value converts: None keeps the value as
# written, a dict is a section with keys of its own.  Only the keys a config
# gives are passed on, so each default stays with the code that takes it.
RUN_CONFIG = {
    "surface_ref": None, "benchmark_ref": None, "config_ref": None, "output_dir": None,
    "rows": json_integer, "cols": json_integer, "group_size": json_integer,
    "pitch_mm": _optional_number, "steer_deg": _optional_number,
    "source": {"kind": None, "amplitude": json_number, "incidence_deg": _floats(2),
               "position_m": _floats(3)},
    "grid": {"theta_step_deg": json_number, "phi_step_deg": json_number},
    "ga": {"population": json_integer, "generations": json_integer,
           "crossover_prob": json_number, "mutation_prob_per_gene": _optional_number,
           "elitism": json_integer, "tournament_size": json_integer, "seed": json_integer},
    "control": {"pins_k": json_integer, "tau_s": json_number, "diode_power_w": json_number},
}


def _parse_section(values, schema: dict, where: str) -> dict:
    if not isinstance(values, dict):
        raise ConfigParseError(f"{where} must be a JSON object, got {values!r}")
    unknown = set(values) - set(schema)
    if unknown:
        raise ConfigParseError(f"unknown {where} keys: {sorted(unknown)}")
    parsed = {}
    for key, value in values.items():
        rule = schema[key]
        if isinstance(rule, dict):
            parsed[key] = _parse_section(value, rule, f"{where} {key}")
            continue
        try:
            parsed[key] = value if rule is None else rule(value)
        except (TypeError, ValueError) as exc:
            raise ConfigParseError(f"bad {where} {key} {value!r}: {exc}") from exc
    return parsed


def _load_run_config(args) -> tuple[dict, dict]:
    """The run config as written (for the run record) and as parsed, with
    the ``--seed`` override applied."""
    from .surface import read_json_document

    doc = read_json_document(args.config, "run config")
    cfg = _parse_section(doc, RUN_CONFIG, "run-config")
    if args.seed is not None:
        cfg.setdefault("ga", {})["seed"] = args.seed
    return doc, cfg


def _resolve_surface(cfg: dict):
    """Surface from a bundled cell id, a cell file, or a surface document."""
    from .surface import (CELL_DOCUMENTS, build_surface, cell_from_document,
                          read_json_document, surface_from_document)

    ref = cfg.get("surface_ref")
    if ref is None:
        raise ConfigParseError("run config requires surface_ref")
    spec = read_json_document(ref, "surface_ref", CELL_DOCUMENTS)
    if "cell_id" in spec:  # a surface document: what the run config gives overrides it
        fields = {"rows": "M", "cols": "N", "group_size": "G", "pitch_mm": "pitch_mm"}
        spec.update({fields[key]: cfg[key] for key in fields if key in cfg})
        return surface_from_document(spec, Path(ref))
    layout = {"group_size": cfg["group_size"]} if "group_size" in cfg else {}
    if cfg.get("pitch_mm") is not None:
        layout["pitch_m"] = cfg["pitch_mm"] * 1e-3
    return build_surface(cell_from_document(spec, str(ref)),
                         cfg.get("rows", 40), cfg.get("cols", 40), **layout)[0]


def _resolve_source(cfg: dict):
    from .field import SourceModel

    src = {"kind": "planewave", **cfg.get("source", {})}
    # a planewave has no position and a point source no incidence angle
    src.pop("incidence_deg" if src["kind"] == "point" else "position_m", None)
    return SourceModel(**src)


def _run_inputs(cfg: dict) -> tuple:
    """Source, grid, GA parameters and benchmark of a run config that is
    scored: its grid must hold the principal cut the side-lobe ratio reads
    (``GridMissingPlane`` otherwise), checked before anything is written."""
    from .benchmarks import load_benchmark
    from .field import GridSpec, principal_columns
    from .ga import GAParams

    grid = GridSpec(**cfg.get("grid", {}))
    principal_columns(grid)
    return (_resolve_source(cfg), grid,
            GAParams(**cfg.get("ga", {})), load_benchmark(cfg.get("benchmark_ref", "B1")))


def _output_dir(cfg: dict, out_flag: str | None) -> Path:
    out = Path(out_flag) if out_flag else Path(cfg.get("output_dir", "runs/out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_config_ppm(config, path: Path) -> None:
    """Binary pixmap of the state grid, one pixel per cell."""
    import numpy as np

    states = config.states
    # a gray ramp past the named colours
    gray = 64 + 37 * np.arange(max(len(STATE_PALETTE), int(states.max()) + 1)) % 128
    palette = np.repeat(gray, 3).reshape(-1, 3).astype(np.uint8)
    palette[: len(STATE_PALETTE)] = STATE_PALETTE
    rows, cols = states.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{cols} {rows}\n255\n".encode())
        fh.write(palette[states].tobytes())


def _synthesize(surface, inputs: tuple, target, reference, out: Path):
    """Run the GA against ``target``, the benchmark's ideal target, write
    best_config.csv, history.csv and achieved_pattern.csv under ``out``, and
    score the best field against ``reference``: ``(result, metrics)``."""
    from .field import write_field_csv
    from .ga import run_ga
    from .metrics import evaluate_all
    from .surface import write_config_csv

    src, _, ga, bm = inputs
    result = run_ga(surface, src, target, ga)
    write_config_csv(result.best_config, out / "best_config.csv")
    with open(out / "history.csv", "w") as fh:
        fh.write("generation,best_fitness\n")
        for g, f in enumerate(result.history, start=1):
            fh.write(f"{g},{f:.9g}\n")
    write_field_csv(result.best_field, out / "achieved_pattern.csv")
    return result, evaluate_all(reference, result.best_field, bm)


def cmd_simulate(args) -> int:
    from .field import FieldEvaluator, GridSpec, steering_config, write_field_csv
    from .surface import read_config_csv, uniform_config

    _, cfg = _load_run_config(args)
    surface = _resolve_surface(cfg)
    src = _resolve_source(cfg)
    grid = GridSpec(**cfg.get("grid", {}))
    if cfg.get("config_ref"):
        config = read_config_csv(Path(cfg["config_ref"]))
    elif cfg.get("steer_deg") is not None:
        config = steering_config(surface, cfg["steer_deg"])
    else:
        config = uniform_config(surface)
    gridval = FieldEvaluator(surface, src, grid).field(config)
    out = _output_dir(cfg, args.out)

    pattern_csv = out / "pattern.csv"
    config_ppm = out / "config.ppm"
    write_field_csv(gridval, pattern_csv)
    write_config_ppm(config, config_ppm)
    print(f"wrote {pattern_csv} and {config_ppm}")
    return 0


def cmd_optimize(args) -> int:
    from .benchmarks import ideal_target_field, reference_pattern
    from .control import complexity_report

    t0 = time.perf_counter()
    doc, cfg = _load_run_config(args)
    surface = _resolve_surface(cfg)
    inputs = _run_inputs(cfg)
    src, grid, ga, bm = inputs
    target = ideal_target_field(bm, grid)
    report = complexity_report(surface, **cfg.get("control", {}))
    out = _output_dir(cfg, args.out)

    reference, _ = reference_pattern(bm, src, ga.seed, ga_params=ga, grid=grid)
    result, metrics = _synthesize(surface, inputs, target, reference, out)
    artifacts = {"best_config_csv": "best_config.csv", "history_csv": "history.csv",
                 "pattern_csv": "achieved_pattern.csv", "record_json": "run_record.json"}
    record = {
        "config": doc,
        "seed": ga.seed,
        "tool_version": TOOL_VERSION,
        "wall_time_s": time.perf_counter() - t0,
        "metrics": metrics.to_dict(),
        "control": report.to_dict(),
        "artifacts": {key: str(out / name) for key, name in artifacts.items()},
    }
    (out / "run_record.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"best_fitness": result.best_fitness,
                      "evaluations": result.evaluations,
                      "metrics": metrics.to_dict()}, indent=2))
    return 0


def cmd_evaluate(args) -> int:
    from .benchmarks import reference_pattern
    from .field import read_field_csv
    from .metrics import evaluate_all

    _, cfg = _load_run_config(args)
    src, grid, ga, bm = _run_inputs(cfg)

    achieved = read_field_csv(args.achieved)
    if args.reference:
        reference = read_field_csv(args.reference)
    elif achieved.grid != grid:  # checked before the reference GA runs and is cached
        raise GridMismatch(f"achieved pattern is on {achieved.grid}, the run config on {grid}")
    else:
        reference, _ = reference_pattern(bm, src, ga.seed, ga_params=ga, grid=grid)
    metrics = evaluate_all(reference, achieved, bm)
    text = json.dumps(metrics.to_dict(), indent=2)
    print(text)
    if args.out:
        out = _output_dir(cfg, args.out)
        (out / "metrics.json").write_text(text + "\n")
    return 0


def cmd_sweep_grouping(args) -> int:
    """``optimize`` once per group size, into ``g{G}/``, plus ``sweep.csv``."""
    from .benchmarks import ideal_target_field, reference_pattern
    from .control import complexity_report

    _, cfg = _load_run_config(args)
    surface = _resolve_surface(cfg)
    inputs = _run_inputs(cfg)
    src, grid, ga, bm = inputs
    target = ideal_target_field(bm, grid)
    try:
        groups = [int(g) for g in args.groups.split(",")]
    except ValueError as exc:
        raise ConfigParseError(f"bad --groups {args.groups!r}: {exc}") from exc
    # Every group size and its control figures are checked before anything is written.
    surfaces = [dataclasses.replace(surface, group_size=g) for g in groups]
    reports = [complexity_report(surf_g, **cfg.get("control", {})) for surf_g in surfaces]
    out = _output_dir(cfg, args.out)

    reference, _ = reference_pattern(bm, src, ga.seed, ga_params=ga, grid=grid)
    rows = []
    for g, surf_g, report in zip(groups, surfaces, reports):
        gdir = out / f"g{g}"
        gdir.mkdir(exist_ok=True)
        _, metrics = _synthesize(surf_g, inputs, target, reference, gdir)
        rows.append((g, metrics.de, metrics.nmse, metrics.slr_db,
                     report.physical_paths, report.switching_rate_hz))

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

    # Only the flags given reach complexity_report, which holds the defaults.
    flags = {"pins_k": (args.pins_k, 1), "tau_s": (args.tau_ns, 1e-9),
             "diode_power_w": (args.diode_mw, 1e-3)}
    ctl = {key: value * unit for key, (value, unit) in flags.items() if value is not None}

    reports = {}
    for cid in BUNDLED_CELL_IDS:
        if cid == "S0":
            continue  # the idealized reference has no physical circuit
        cell = load_unit_cell(cid)
        surface, _ = build_surface(cell, args.rows, args.cols, args.group)
        reports[cid] = complexity_report(surface, **ctl)

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
    p_tab.add_argument("--pins-k", type=int, default=None)
    p_tab.add_argument("--tau-ns", type=float, default=None)
    p_tab.add_argument("--diode-mw", type=float, default=None)
    return parser


_HANDLERS = {
    "simulate": cmd_simulate,
    "optimize": cmd_optimize,
    "evaluate": cmd_evaluate,
    "sweep-grouping": cmd_sweep_grouping,
    "table1": cmd_table1,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            parser.error(f"--threads must be at least 1, got {args.threads}")
        # Must land before numpy loads its BLAS; handlers import lazily.
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    try:
        return _HANDLERS[args.command](args)
    except RisBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # an artifact, the output directory or a cache entry
        print(f"error: {exc}", file=sys.stderr)
        return IoError.exit_code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
