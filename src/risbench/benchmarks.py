"""Benchmark radiation patterns and the reference-surface machinery.

Eight bundled patterns exercise single-beam steering (B1, B2), equal-power
multi-beam forming (B3 to B7), and unequal-power multi-beam forming (B8).
Targets are ideal: raised-cosine lobes on the signed principal-cut axis and
zero everywhere else.  Synthesis quality is scored not against these ideals
but against what the idealized reference surface achieves on the same
target, so the reference configurations found here are cached on disk.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConfigMismatch,
    ConfigParseError,
    OverlappingLobes,
    RisBenchError,
    UnknownBenchmark,
    json_number,
)
from .field import (
    PHI_BAND_DEG,
    FieldEvaluator,
    FieldGrid,
    GridSpec,
    SourceModel,
    band_columns,
    phi_distance,
    read_field_csv,  # noqa: F401  kept bound: perfbench's tracer test reads it here
)
from .ga import GAParams, run_ga
from .surface import (
    ConfigMatrix,
    UnitCellSpec,
    build_surface,
    load_unit_cell,
    read_config_csv,
    read_json_document,
    validate_config,
    write_config_csv,
)

BUNDLED_BENCHMARK_IDS = ("B1", "B2", "B3", "B4", "B5", "B6", "B7", "B8")

REFERENCE_SIZE = 40  # reference surface is always 40 x 40, individually controlled


@dataclass(frozen=True)
class BeamSpec:
    """One intended beam: signed elevation, relative amplitude, lobe bounds."""

    signed_theta_deg: float
    rel_amplitude: float
    lobe_start_deg: float
    lobe_end_deg: float

    def __post_init__(self):
        if not self.lobe_start_deg < self.signed_theta_deg < self.lobe_end_deg:
            raise ConfigParseError(
                f"beam at {self.signed_theta_deg} deg outside its lobe bounds "
                f"[{self.lobe_start_deg}, {self.lobe_end_deg}]"
            )
        if not 0.0 < self.rel_amplitude <= 1.0:
            raise ConfigParseError(f"beam amplitude {self.rel_amplitude} outside (0, 1]")
        if self.lobe_start_deg < -90.0 or self.lobe_end_deg > 90.0:
            raise ConfigParseError("lobe bounds must stay within [-90, 90] degrees")


@dataclass(frozen=True)
class BenchmarkPattern:
    """A named list of intended beams with pairwise disjoint lobe regions."""

    id: str
    beams: tuple[BeamSpec, ...]

    def __post_init__(self):
        if not re.fullmatch(r"[A-Za-z0-9_-]+", self.id):
            # the id names reference-cache files, so it must stay one plain name
            raise ConfigParseError(f"benchmark id {self.id!r} must match [A-Za-z0-9_-]+")
        if not self.beams:
            raise ConfigParseError(f"benchmark {self.id} has no beams")
        spans = sorted((b.lobe_start_deg, b.lobe_end_deg) for b in self.beams)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            if s2 < e1:
                raise OverlappingLobes(
                    f"benchmark {self.id}: lobes [{s1}, {e1}] and [{s2}, {e2}] overlap"
                )


def load_benchmark(id_or_path: str | Path) -> BenchmarkPattern:
    """Load a bundled pattern (B1..B8) or a custom JSON file."""
    doc = read_json_document(id_or_path, "benchmark", ("benchmarks", BUNDLED_BENCHMARK_IDS),
                             missing=UnknownBenchmark)
    try:
        beams = tuple(
            BeamSpec(
                signed_theta_deg=json_number(b["theta_deg"]),
                rel_amplitude=json_number(b["amplitude"]),
                lobe_start_deg=json_number(b["start_deg"]),
                lobe_end_deg=json_number(b["end_deg"]),
            )
            for b in doc["beams"]
        )
        return BenchmarkPattern(id=str(doc["id"]), beams=beams)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigParseError(f"malformed benchmark document {id_or_path}: {exc}") from exc


def ideal_target_field(bm: BenchmarkPattern, grid: GridSpec | None = None) -> FieldGrid:
    """Ideal magnitude grid: one raised-cosine lobe per beam, zero elsewhere.

    Each beam contributes rel_amplitude * cos(pi * (s - theta_c) / w)**2 over
    its [start, end] span on the signed axis, centered on the phi = 0 column
    for s >= 0 and the phi = 180 column for s < 0, with a matching raised
    cosine tapering to zero across ``PHI_BAND_DEG`` of azimuth on either side
    of the beam's half-plane.  A one-column target is too sparse to steer an
    optimizer on a 1-degree grid (22 of 64 800 samples), the same reason the
    metric integrals use a phi band.  The result is normalized to a peak of
    exactly 1; a grid with no theta sample inside any lobe raises
    ``ConfigMismatch``, since no search can be scored against a zero target.
    """
    grid = grid or GridSpec()
    theta = grid.theta_deg()
    phi = grid.phi_deg()
    values = np.zeros((theta.size, phi.size))

    front = theta[: grid.front_rows]
    phi_off = {plane: phi_distance(phi, plane) for plane in (0.0, 180.0)}
    for beam in bm.beams:
        width = beam.lobe_end_deg - beam.lobe_start_deg
        for signed, plane, row_off in ((front, 0.0, 0), (-front[1:], 180.0, 1)):
            inside = (signed >= beam.lobe_start_deg) & (signed <= beam.lobe_end_deg)
            if not inside.any():
                continue
            s = signed[inside]
            lobe = beam.rel_amplitude * np.cos(
                math.pi * (s - beam.signed_theta_deg) / width) ** 2
            cols = band_columns(grid, plane)
            taper = np.cos(math.pi * phi_off[plane][cols] / (2.0 * PHI_BAND_DEG)) ** 2
            rows = np.nonzero(inside)[0] + row_off
            values[np.ix_(rows, cols)] = lobe[:, None] * taper[None, :]
    peak = values.max()
    if peak == 0.0:
        raise ConfigMismatch(f"benchmark {bm.id}: no lobe contains a theta sample of {grid}")
    return FieldGrid(values=(values / peak).astype(complex), grid=grid)


def _cache_hash(bm: BenchmarkPattern, cell: UnitCellSpec, src: SourceModel,
                grid: GridSpec, ga_params: GAParams) -> str:
    """Digest of everything the cached reference depends on besides the seed."""
    doc = {
        "beams": [dataclasses.astuple(b) for b in bm.beams],
        "cell": dataclasses.asdict(cell),
        "version": __version__,
        "src": dataclasses.astuple(src),
        "grid": dataclasses.astuple(grid),
        "ga": [getattr(ga_params, f.name) for f in dataclasses.fields(ga_params)
               if f.name != "seed"],  # the seed is in the file name
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:12]


def default_cache_dir() -> Path:
    env = os.environ.get("RISBENCH_CACHE_DIR")
    return Path(env) if env else Path("cache")


def reference_pattern(
    bm: BenchmarkPattern,
    src: SourceModel,
    seed: int,
    ga_params: GAParams | None = None,
    grid: GridSpec | None = None,
    cache_dir: str | Path | None = None,
) -> tuple[FieldGrid, ConfigMatrix]:
    """Synthesize (or load) the reference surface's pattern for a benchmark.

    Runs the genetic optimizer on the 40 x 40 reference surface, one control
    line per cell, against the benchmark's ideal target.  Only the winning
    configuration is cached, as the one file ``cache/ref/<stem>.config.csv``
    keyed by (benchmark id, source kind, seed) plus a hash of the beams, the
    reference cell, the tool version, the source, the grid and the GA
    parameters; an entry that does not load is recomputed.  A miss returns
    the GA's own field of the winner, and a hit computes the field from the
    configuration with an evaluator built from the same surface, source and
    grid, so both return the same bits.  A field CSV that an earlier
    version left next to an entry is ignored and can be deleted.  Earlier
    versions scored against that CSV's 9-digit print, so DE and NMSE may
    differ from theirs at about 1e-9 relative.
    """
    grid = grid or GridSpec()
    if ga_params is None:
        ga_params = GAParams(seed=seed)
    elif ga_params.seed != seed:
        raise ConfigParseError("seed argument disagrees with ga_params.seed")

    cell = load_unit_cell("S0")  # the idealized 2-bit cell: lossless, 90-degree-spaced states
    surface, _ = build_surface(cell, REFERENCE_SIZE, REFERENCE_SIZE, 1)
    root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    ref_dir = root / "ref"
    stem = f"{bm.id}_{src.kind}_{seed}_{_cache_hash(bm, cell, src, grid, ga_params)}"
    config_path = ref_dir / f"{stem}.config.csv"

    try:
        config = validate_config(surface, read_config_csv(config_path))
    except RisBenchError:  # missing or unreadable entry: a cache miss
        result = run_ga(surface, src, ideal_target_field(bm, grid), ga_params)
        ref_dir.mkdir(parents=True, exist_ok=True)
        write_config_csv(result.best_config, config_path)
        return result.best_field, result.best_config
    return FieldEvaluator(surface, src, grid).field(config), config
