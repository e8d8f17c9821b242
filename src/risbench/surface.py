"""Unit cells, surfaces, lattice geometry, and grouping.

A surface is a rectangular M x N array of one tunable cell type lying in
the x-y plane, centered at the origin with normal +z.  Cell (m, n) sits at
((n - (N-1)/2) * pitch, (m - (M-1)/2) * pitch, 0).  Diode states are small
integers indexing the cell's reflection-coefficient table; groups of G
cells share one state.

``UnitCellSpec`` and ``SurfaceSpec`` check themselves when built: a cell its
bit and diode counts, state table, envelope exponent and frequency, a
surface its dimensions, pitch and group size.  So no invalid cell or
surface exists, whether it came from a document or from the Python API.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    ConfigMismatch,
    ConfigParseError,
    GroupSizeMismatch,
    InvalidGamma,
    InvalidStateCount,
    InvalidStateIndex,
    IoError,
    LengthMismatch,
    NonPositiveParam,
)
from .errors import check_positive, json_integer, json_number

SPEED_OF_LIGHT = 299_792_458.0  # m/s

BUNDLED_CELL_IDS = ("S0", "S1", "S2", "S3", "S4", "S5")


@dataclass(frozen=True)
class ReflectionState:
    """One diode state of a cell: reflection magnitude and phase (degrees)."""

    gamma_mag: float
    gamma_phase_deg: float


@dataclass(frozen=True)
class UnitCellSpec:
    """One tunable cell type.

    n_bits control bits select among 2**n_bits reflection states; the cell
    may carry more diodes than bits (n_diodes >= n_bits).  The re-radiation
    envelope is cos(theta)**(1/q_exponent).  Phases stay in degrees here and
    are converted to radians at the field-engine boundary.
    """

    id: str
    n_bits: int
    n_diodes: int
    states: tuple[ReflectionState, ...]
    q_exponent: float
    width_m: float
    height_m: float
    design_freq_hz: float

    def __post_init__(self):
        check_positive(self.id, n_bits=self.n_bits, n_diodes=self.n_diodes,
                       q_exponent=self.q_exponent, design_freq_hz=self.design_freq_hz)
        if self.n_diodes < self.n_bits:
            raise NonPositiveParam(
                f"{self.id}: n_diodes ({self.n_diodes}) must be >= n_bits ({self.n_bits})"
            )
        expected = 2 ** self.n_bits
        if len(self.states) != expected:
            raise InvalidStateCount(
                f"{self.id}: expected {expected} states for {self.n_bits} bits, "
                f"got {len(self.states)}"
            )
        for i, st in enumerate(self.states):
            if not 0.0 < st.gamma_mag <= 1.0:
                raise InvalidGamma(f"{self.id} state {i}: magnitude {st.gamma_mag} outside (0, 1]")
            if not 0.0 <= st.gamma_phase_deg < 360.0:
                raise InvalidGamma(
                    f"{self.id} state {i}: phase {st.gamma_phase_deg} deg outside [0, 360)"
                )

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.design_freq_hz


@dataclass(frozen=True)
class SurfaceSpec:
    """An M x N array of one cell type on a square lattice."""

    cell: UnitCellSpec
    rows_m: int
    cols_n: int
    pitch_m: float
    group_size: int

    def __post_init__(self):
        check_positive(rows_m=self.rows_m, cols_n=self.cols_n, pitch_m=self.pitch_m,
                       group_size=self.group_size)
        if self.n_cells % self.group_size != 0:
            raise GroupSizeMismatch(f"group size {self.group_size} does not divide "
                                    f"{self.rows_m}x{self.cols_n} = {self.n_cells} cells")

    @property
    def n_cells(self) -> int:
        return self.rows_m * self.cols_n

    @property
    def n_groups(self) -> int:
        return self.n_cells // self.group_size

    def group_ids(self) -> np.ndarray:
        """(M, N) group id per cell: row-major runs of G cells share one state."""
        return np.arange(self.n_cells).reshape(self.rows_m, self.cols_n) // self.group_size

    def cell_x(self) -> np.ndarray:
        """x coordinate per column index n, meters."""
        n = np.arange(self.cols_n, dtype=float)
        return (n - (self.cols_n - 1) / 2.0) * self.pitch_m

    def cell_y(self) -> np.ndarray:
        """y coordinate per row index m, meters."""
        m = np.arange(self.rows_m, dtype=float)
        return (m - (self.rows_m - 1) / 2.0) * self.pitch_m


@dataclass(frozen=True)
class ConfigMatrix:
    """M x N grid of diode-state indices (one index per cell)."""

    states: np.ndarray

    def __post_init__(self):
        self.states.setflags(write=False)


def default_pitch(cell: UnitCellSpec) -> float:
    """Half-wavelength lattice spacing at the cell's design frequency."""
    return SPEED_OF_LIGHT / (2.0 * cell.design_freq_hz)


def build_surface(
    cell: UnitCellSpec,
    rows_m: int,
    cols_n: int,
    group_size: int = 1,
    pitch_m: float | None = None,
) -> tuple[SurfaceSpec, np.ndarray]:
    """Assemble a surface, returned with its ``group_ids()``; the pitch
    defaults to half a wavelength at the cell's design frequency."""
    if pitch_m is None:
        pitch_m = default_pitch(cell)
    surf = SurfaceSpec(
        cell=cell, rows_m=rows_m, cols_n=cols_n, pitch_m=pitch_m, group_size=group_size
    )
    return surf, surf.group_ids()


def expand_groups(group_states: Sequence[int] | np.ndarray,
                  surface: SurfaceSpec) -> ConfigMatrix:
    """Broadcast one state per group to every cell of that group."""
    gs = np.asarray(group_states, dtype=np.int64)
    if gs.ndim != 1 or gs.size != surface.n_groups:
        raise LengthMismatch(
            f"expected {surface.n_groups} group states, got {gs.size}"
        )
    n_states = surface.cell.n_states
    if gs.size and (gs.min() < 0 or gs.max() >= n_states):
        bad = gs[(gs < 0) | (gs >= n_states)][0]
        raise InvalidStateIndex(f"state index {bad} outside [0, {n_states - 1}]")
    return ConfigMatrix(states=gs[surface.group_ids()])


def validate_config(surface: SurfaceSpec, config: ConfigMatrix) -> ConfigMatrix:
    """Check a configuration against its surface (shape and index range)."""
    expected = (surface.rows_m, surface.cols_n)
    if config.states.shape != expected:
        raise ConfigMismatch(
            f"config shape {config.states.shape} does not match surface {expected}"
        )
    if not np.issubdtype(config.states.dtype, np.integer):
        raise ConfigMismatch("config entries must be integers")
    if config.states.size and (
        config.states.min() < 0 or config.states.max() >= surface.cell.n_states
    ):
        raise InvalidStateIndex(
            f"config holds indices outside [0, {surface.cell.n_states - 1}]"
        )
    return config


def uniform_config(surface: SurfaceSpec) -> ConfigMatrix:
    """Every cell in state 0."""
    return ConfigMatrix(states=np.zeros((surface.rows_m, surface.cols_n), dtype=np.int64))


# -- config CSV ----------------------------------------------------------------
#
# One line per surface row, comma-separated integer state indices, no header.

def write_config_csv(config: ConfigMatrix, path: str | Path) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")  # readers never see a partial file
    try:
        np.savetxt(tmp, config.states, fmt="%d", delimiter=",")
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write config CSV {path}: {exc}") from exc


def load_csv_table(path: str | Path, **kwargs) -> np.ndarray:
    """``np.loadtxt`` of a comma-separated file as a 2-D array.

    A file without data rows raises ``ValueError``, like any other
    malformed file; numpy itself only warns and returns an empty array.
    A missing file raises ``FileNotFoundError`` from ``os.stat`` before numpy
    sees the path: numpy's own check first rules out a URL, which imports
    ``urllib.request``, ``http.client``, ``email``, ``ssl`` and ``socket``
    (about 7 MB resident, once per process), and every cold reference-cache
    lookup is such a miss.  numpy still gets the path, not an open file,
    because only a path takes its chunked C reader; a file handle is read
    line by line.
    """
    os.stat(path)  # a missing file stops here, before numpy's URL check
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        try:
            return np.loadtxt(path, delimiter=",", ndmin=2, **kwargs)
        except UserWarning:
            raise ValueError("no data rows") from None


def read_config_csv(path: str | Path) -> ConfigMatrix:
    """Parse a config CSV; shape and index range are checked against a
    surface by ``validate_config``, not here."""
    try:
        states = load_csv_table(path, dtype=np.int64)
    except (OSError, ValueError) as exc:
        raise ConfigParseError(f"cannot read config CSV {path}: {exc}") from exc
    return ConfigMatrix(states=states)


# -- JSON ingest --------------------------------------------------------------
#
# Cell document:    {id, n_bits, n_diodes, states: [{mag, phase_deg}], q,
#                    width_mm, height_mm, freq_ghz}
# Surface document: {cell_id, M, N, G?, pitch_mm?}
# n_bits, n_diodes, M, N and G are integers (json_integer); the other numeric
# keys are numbers (json_number).  Both reject booleans, strings and NaN.

CELL_DOCUMENTS = ("cells", BUNDLED_CELL_IDS)


def read_json_document(ref: str | Path, what: str,
                       bundled: tuple[str, Sequence[str]] = ("", ()),
                       missing: type[ConfigError] = ConfigParseError) -> dict:
    """Parse the JSON object ``ref`` names: a bundled id or a file path.

    ``bundled`` is (data folder, ids): a ref equal to one of the ids, in any
    case, is read from ``risbench/data/<folder>/<id>.json``.  A ref that is
    neither raises ``missing``; an unreadable or malformed document, or one
    whose top level is not an object, raises ``ConfigParseError``.
    """
    folder, ids = bundled
    name = str(ref)
    if name.upper() in ids:
        source = resources.files("risbench").joinpath("data", folder, f"{name.lower()}.json")
    else:
        source = Path(name)
        if not source.is_file():
            raise missing(f"{what} not found: {name}")
    try:
        doc = json.loads(source.read_text())
    except (OSError, ValueError) as exc:  # ValueError covers decode and JSON errors
        raise ConfigParseError(f"cannot parse {what} {name}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigParseError(f"{what} {name} must be a JSON object")
    return doc


def cell_from_document(doc: dict, origin: str) -> UnitCellSpec:
    """Cell from a parsed cell document; building it validates it."""
    try:
        states = tuple(
            ReflectionState(json_number(s["mag"]), json_number(s["phase_deg"]))
            for s in doc["states"]
        )
        return UnitCellSpec(
            id=str(doc["id"]),
            n_bits=json_integer(doc["n_bits"]),
            n_diodes=json_integer(doc["n_diodes"]),
            states=states,
            q_exponent=json_number(doc["q"]),
            width_m=json_number(doc["width_mm"]) * 1e-3,
            height_m=json_number(doc["height_mm"]) * 1e-3,
            design_freq_hz=json_number(doc["freq_ghz"]) * 1e9,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigParseError(f"malformed cell document {origin}: {exc}") from exc


def surface_from_document(doc: dict, path: Path) -> SurfaceSpec:
    """Surface from a parsed surface document read from ``path``; a cell_id
    naming a file next to the document is read from there."""
    try:
        cell_ref = str(doc["cell_id"])
        rows, cols = json_integer(doc["M"]), json_integer(doc["N"])
        group = json_integer(doc.get("G", 1))
        pitch = doc.get("pitch_mm")
        pitch_m = None if pitch is None else json_number(pitch) * 1e-3
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigParseError(f"malformed surface document {path}: {exc}") from exc
    sibling = path.parent / cell_ref
    if cell_ref.upper() not in BUNDLED_CELL_IDS and sibling.is_file():
        cell_ref = str(sibling)
    return build_surface(load_unit_cell(cell_ref), rows, cols, group, pitch_m)[0]


def load_unit_cell(ref: str | Path) -> UnitCellSpec:
    """Load a cell by bundled id (S0..S5) or from a JSON file."""
    return cell_from_document(read_json_document(ref, "cell spec", CELL_DOCUMENTS), str(ref))

