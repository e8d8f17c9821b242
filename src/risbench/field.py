"""Far-field computation over a (theta, phi) grid.

Both illumination models reduce to a weighted array factor: a per-cell
complex weight (state coefficient times a configuration-independent source
factor) summed against per-grid-point steering phases, then scaled by the
cell's re-radiation envelope.  The weight/steering split keeps the heavy
trigonometry independent of the configuration, so sweeping thousands of
configurations against one surface reuses the precomputed phase tables.

Only the front hemisphere (theta <= 90 deg) is ever computed; the back
hemisphere is identically zero for a reflective surface over a ground
plane.  The kernel folds four symmetries.  Columns phi and 360 - phi
share u = sin(theta) cos(phi) and negate v; on a grid with an even number
of columns, phi and 180 - phi share v and negate u.  So the tables cover
phi up to 90 only (up to 180 on an odd grid, which has no 180 - phi
column), and every other column is a sign flip of the same eight real sums.
The lattice is centred on both axes, x[N-1-n] = -x[n] and y[M-1-m] = -y[m],
so mirrored cell columns enter as the sum and difference of their weights
against cos and sin tables of x, and mirrored rows likewise against cos
and sin tables of y.  The column fold and the phi -> 180 - phi fold leave
one batched real GEMM with an eighth of the multiply-adds of the complex
direct sum; the row fold halves the reduction over rows and the y table.
The result matches the direct sum to 1e-12 of the peak magnitude (tested
on odd and even M and N), not bit for bit; repeated evaluations of one
configuration on one build are identical.

Each grid rule the other modules apply lives here once: the front rows
(``GridSpec.front_rows``), azimuth distance (``phi_distance``), the lobe
band (``PHI_BAND_DEG``, ``band_columns``), the principal-cut columns
(``principal_columns``), peak scaling (``peak_magnitude``) and the aperture
phase shared by planewave incidence and beam steering (``aperture_phase``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    AllZeroField,
    ConfigMismatch,
    DomainError,
    GridMismatch,
    GridMissingPlane,
    IoError,
    SourceBelowSurface,
    check_finite,
    check_positive,
)
from .surface import ConfigMatrix, SurfaceSpec, load_csv_table, validate_config


@dataclass(frozen=True)
class SourceModel:
    """Illumination: a near-field point source or a far-field planewave."""

    kind: str  # "point" | "planewave"
    amplitude: float = 1.0
    position_m: tuple[float, float, float] | None = None
    incidence_deg: tuple[float, float] = (0.0, 0.0)  # (theta_inc, phi_inc)

    def __post_init__(self):
        if self.kind not in ("point", "planewave"):
            raise ConfigMismatch(f"unknown source kind {self.kind!r}")
        check_positive(amplitude=self.amplitude)
        check_finite("incidence angles", self.incidence_deg)
        if self.kind == "point":
            if self.position_m is None:
                raise ConfigMismatch("point source requires a position")
            check_finite("point source position", self.position_m)
            if self.position_m[2] <= 0:
                raise SourceBelowSurface(
                    f"point source must sit above the surface, got z = {self.position_m[2]}"
                )

    @staticmethod
    def planewave(amplitude: float = 1.0, theta_inc_deg: float = 0.0,
                  phi_inc_deg: float = 0.0) -> "SourceModel":
        return SourceModel(kind="planewave", amplitude=amplitude,
                           incidence_deg=(theta_inc_deg, phi_inc_deg))

    @staticmethod
    def point(position_m: tuple[float, float, float], amplitude: float = 1.0) -> "SourceModel":
        return SourceModel(kind="point", amplitude=amplitude, position_m=tuple(position_m))


@dataclass(frozen=True)
class GridSpec:
    """Angular sampling: theta in [0, 180), phi in [0, 360), fixed steps."""

    theta_step_deg: float = 1.0
    phi_step_deg: float = 1.0

    def __post_init__(self):
        for span, step, name in ((180.0, self.theta_step_deg, "theta"),
                                 (360.0, self.phi_step_deg, "phi")):
            check_positive(**{f"{name} step": step})
            count = round(span / step)
            if count < 1 or abs(span / step - count) > 1e-9:
                raise ConfigMismatch(f"{name} step {step} must divide {span} degrees")
            # stored as span / count, so a step typed to fewer digits is the same grid
            object.__setattr__(self, f"{name}_step_deg", span / count)

    def theta_deg(self) -> np.ndarray:
        return np.arange(round(180.0 / self.theta_step_deg)) * self.theta_step_deg

    def phi_deg(self) -> np.ndarray:
        return np.arange(round(360.0 / self.phi_step_deg)) * self.phi_step_deg

    @property
    def shape(self) -> tuple[int, int]:
        return round(180.0 / self.theta_step_deg), round(360.0 / self.phi_step_deg)

    @property
    def n_points(self) -> int:
        return math.prod(self.shape)

    @property
    def front_rows(self) -> int:
        """Leading theta rows of the front hemisphere, theta = 0 up to 90 deg."""
        return self.shape[0] // 2 + 1


@dataclass(frozen=True)
class FieldGrid:
    """Complex E over the grid; values[i, j] at (theta_i, phi_j)."""

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        self.values.setflags(write=False)
        if self.values.shape != self.grid.shape:
            raise GridMismatch(
                f"field values {self.values.shape} do not fill grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise DomainError("field contains non-finite values")

    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)


@dataclass(frozen=True)
class PrincipalCut:
    """|E| along the phi = 0 / phi = 180 cut, on a signed elevation axis."""

    signed_theta_deg: np.ndarray
    magnitude: np.ndarray

    def __post_init__(self):
        self.signed_theta_deg.setflags(write=False)
        self.magnitude.setflags(write=False)


PHI_BAND_DEG = 5.0  # lobes span this much azimuth either side of their phi plane


def phi_distance(phi: np.ndarray | float, center: float) -> np.ndarray | float:
    """Circular azimuth distance in degrees, in [0, 180]."""
    d = np.abs((phi - center) % 360.0)
    return np.minimum(d, 360.0 - d)


def band_columns(grid: GridSpec, plane_deg: float, band_deg: float = PHI_BAND_DEG) -> np.ndarray:
    """Indices of the phi columns within ``band_deg`` of ``plane_deg``, give
    or take 1e-9 degrees of rounding, so a band is symmetric about its plane."""
    return np.nonzero(phi_distance(grid.phi_deg(), plane_deg) <= band_deg + 1e-9)[0]


def principal_columns(grid: GridSpec) -> tuple[int, int]:
    """Indices of the phi = 0 and phi = 180 columns the principal cut reads.

    Raises ``GridMissingPlane`` if the grid lacks either.
    """
    cols = []
    for plane in (0.0, 180.0):
        hits = np.nonzero(phi_distance(grid.phi_deg(), plane) < 1e-9)[0]
        if hits.size == 0:
            raise GridMissingPlane(f"grid has no phi = {plane} column")
        cols.append(int(hits[0]))
    return cols[0], cols[1]


def peak_magnitude(values: np.ndarray) -> float:
    """Largest |value|, the scale every peak-normalized comparison divides by."""
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        raise AllZeroField("cannot normalize an identically zero field")
    return peak


def aperture_phase(surface: SurfaceSpec, theta_deg: float, phi_deg: float) -> np.ndarray:
    """(M, N) phase k (x sin t cos p + y sin t sin p) of a plane wave along (t, p)."""
    k = 2.0 * math.pi / surface.cell.wavelength_m
    t, p = math.radians(theta_deg), math.radians(phi_deg)
    return k * (surface.cell_x()[None, :] * math.sin(t) * math.cos(p)
                + surface.cell_y()[:, None] * math.sin(t) * math.sin(p))


def radiation_factor(q: float, theta_rad) -> np.ndarray | float:
    """Cell envelope cos(theta)**(1/q) on the front hemisphere, 0 behind."""
    check_positive(q=q)
    c = np.cos(theta_rad)
    return np.where(c > 0.0, np.power(np.clip(c, 0.0, None), 1.0 / q), 0.0)


def _fold(n: int) -> np.ndarray:
    """(2 ceil(n/2), n) +-1 matrix pairing index i with its mirror n-1-i.

    Row i < ceil(n/2) sums the pair, and row ceil(n/2) + i subtracts the
    mirror from index i.  An odd n's middle index sums alone, and its
    difference row is zero.
    """
    eye = np.eye(n)
    own, mirror = eye[: n - n // 2], eye[::-1][: n - n // 2]
    return np.concatenate([np.sign(own + mirror), own - mirror])


def _steer(kr: np.ndarray, cosines: np.ndarray) -> np.ndarray:
    """(2, ceil(n/2), L) cos and sin of kr[i] * cosines for the first half of a centred axis.

    An odd n's middle coordinate is 0, so its sin row is zero and meets
    ``_fold``'s zero difference row.
    """
    phase = kr[: kr.size - kr.size // 2, None] * cosines[None, :]
    return np.stack([np.cos(phase), np.sin(phase)])


def state_coefficients(surface: SurfaceSpec) -> np.ndarray:
    """Complex reflection coefficient per diode state (degrees -> radians here)."""
    mags = np.array([s.gamma_mag for s in surface.cell.states])
    phases = np.radians([s.gamma_phase_deg for s in surface.cell.states])
    return mags * np.exp(1j * phases)


class FieldEvaluator:
    """Reusable far-field evaluator for one (surface, source, grid) triple.

    ``front(states)`` is the one array-factor kernel; ``field(config)`` and
    the GA objective both call it.  Everything that does not depend on the
    configuration (steering-phase tables, the source factor per cell, the
    theta envelope) is precomputed once.
    """

    def __init__(self, surface: SurfaceSpec, src: SourceModel, grid: GridSpec):
        self.surface = surface
        self.grid = grid
        k = 2.0 * math.pi / surface.cell.wavelength_m

        th = np.radians(grid.theta_deg()[: grid.front_rows])
        n_phi = grid.shape[1]
        self.front_size = grid.front_rows * n_phi  # leading part of the flat grid

        # Direction cosines of the columns phi_j, j < n_rep, flattened
        # theta-major.  Column n_phi - j has the same u and -v; on an even
        # grid column n_phi/2 - j has -u and the same v, and n_phi/2 + j both
        # negated.  So each column is one of four sign flips of a column
        # j < n_rep, which _columns picks; an odd grid flips v only.
        n_rep = n_phi // 4 + 1 if n_phi % 2 == 0 else n_phi // 2 + 1
        col = np.arange(n_phi)
        half = np.minimum(col, n_phi - col)  # the column of phi <= 180 with the same u and |v|
        flip_u = half >= n_rep
        rep = np.where(flip_u, n_phi // 2 - half, half)
        self._columns = 4 * rep + 2 * flip_u + (col > n_phi // 2)  # into (rows, n_rep, 4 flips)
        phi = np.radians(grid.phi_deg()[:n_rep])
        sin_t = np.sin(th)[:, None]
        u = (sin_t * np.cos(phi)[None, :]).ravel()
        v = (sin_t * np.sin(phi)[None, :]).ravel()

        # The lattice is centred on both axes, x[N-1-n] = -x[n] and
        # y[M-1-m] = -y[m], so mirrored cells pair up as cos +- j sin: each
        # axis needs cos and sin tables over its first half only.
        x = surface.cell_x()
        y = surface.cell_y()
        self._steer_x = _steer(k * x, u)  # (2, ceil(N/2), Lq)
        # The weights fold onto those tables: row sums then row differences,
        # times column sums then j * column differences.
        cols = surface.cols_n
        self._fold_rows = _fold(surface.rows_m).astype(complex)
        self._fold_cols = _fold(cols).T * np.repeat([1.0, 1j], cols - cols // 2)
        # The field at flip (su, sv) weighs the sum over x table c (cos, sin)
        # and y table b by su^c (j sv)^b; _flips is that complex product in
        # real form, from sums ordered (c, b, re/im) to flips ordered (flip, re/im).
        su, sv = np.repeat([1.0, -1.0], 2), np.tile([1.0, -1.0], 2)
        kappa = np.array([[np.ones(4), 1j * sv], [su, 1j * su * sv]])
        self._flips = np.stack([np.stack([kappa.real, kappa.imag], -1),
                                np.stack([-kappa.imag, kappa.real], -1)], axis=2).reshape(8, 8)

        q = surface.cell.q_exponent
        if src.kind == "planewave":
            # Incident phase advance across the aperture; zero at normal incidence.
            self._cell_factor = np.exp(1j * aperture_phase(surface, *src.incidence_deg))
            ti = math.radians(src.incidence_deg[0])
            # Incident-side response at the incidence angle times the
            # re-radiation response toward the observer.  This is the exact
            # far-source limit of the point-source model, which the two
            # engines are required to share.
            env = src.amplitude * float(radiation_factor(q, ti)) * radiation_factor(q, th)
        else:
            px, py, pz = src.position_m
            dx = px - x[None, :]
            dy = py - y[:, None]
            r = np.sqrt(dx * dx + dy * dy + pz * pz)
            cos_inc = pz / r
            f_inc = np.power(np.clip(cos_inc, 0.0, None), 1.0 / q)
            self._cell_factor = (src.amplitude / r) * np.exp(-1j * k * r) * f_inc
            env = radiation_factor(q, th)

        self._steer_y = _steer(k * y, v) * np.repeat(env, n_rep)  # (2, ceil(M/2), Lq)
        self._state_coeffs = state_coefficients(surface)

    def front(self, states: np.ndarray) -> np.ndarray:
        """Complex field over the front hemisphere, flattened theta-major.

        ``states`` is an (M, N) array of valid state indices; it is not
        checked here, so callers validate untrusted input first.
        """
        w = self._state_coeffs[states] * self._cell_factor
        folded = self._fold_rows @ w @ self._fold_cols
        # With s the column sums and d the differences, the n-sum is s.cos +
        # j d.sin at u and s.cos - j d.sin at -u.  One batched GEMM takes Re and
        # Im of s against x's cos table (batch 0) and of j d against its sin table.
        parts = np.concatenate([folded.real, folded.imag])
        p = parts.reshape(parts.shape[0], 2, -1).transpose(1, 0, 2) @ self._steer_x
        # (re + j im) (cos + j sin) summed over m, at v and at -v: row sums
        # against y's cos table, row differences against its sin table.
        sums = np.einsum("cabml,bml->cbal", p.reshape(2, 2, *self._steer_y.shape), self._steer_y)
        flips = (sums.reshape(8, -1).T @ self._flips).view(complex)  # (Lq, 4 flips)
        return flips.reshape(self.grid.front_rows, -1)[:, self._columns].ravel()

    def field(self, config: ConfigMatrix) -> FieldGrid:
        """Complex far-field of one configuration."""
        validate_config(self.surface, config)
        values = np.zeros(self.grid.n_points, dtype=complex)
        values[: self.front_size] = self.front(config.states)
        return FieldGrid(values=values.reshape(self.grid.shape), grid=self.grid)


def principal_cut(gridval: FieldGrid) -> PrincipalCut:
    """Signed elevation cut: +theta from phi = 0, -theta from phi = 180."""
    col0, col180 = principal_columns(gridval.grid)
    step = gridval.grid.theta_step_deg
    k_max = gridval.grid.front_rows - 1
    mags = gridval.magnitude()
    pos = mags[: k_max + 1, col0]
    neg = mags[k_max:0:-1, col180]
    signed = np.concatenate([-np.arange(k_max, 0, -1), np.arange(0, k_max + 1)]) * step
    return PrincipalCut(signed_theta_deg=signed.astype(float),
                        magnitude=np.concatenate([neg, pos]))


def steering_config(surface: SurfaceSpec, theta_deg: float, phi_deg: float = 0.0) -> ConfigMatrix:
    """Quantize the ideal steering phase gradient onto the cell's states.

    Each cell gets the state whose phase is circularly closest to the ideal
    continuous profile for a beam at (theta, phi).
    """
    check_finite("steering angles", (theta_deg, phi_deg))
    desired = -aperture_phase(surface, theta_deg, phi_deg)
    state_ph = np.radians([s.gamma_phase_deg for s in surface.cell.states])
    diff = desired[:, :, None] - state_ph[None, None, :]
    dist = np.abs((diff + math.pi) % (2.0 * math.pi) - math.pi)
    return ConfigMatrix(states=np.argmin(dist, axis=2).astype(np.int64))


# -- CSV serialization ---------------------------------------------------------
#
# Header `theta_deg,phi_deg,re,im,mag`, one row per grid point, theta-major,
# 9 significant digits.  A reader takes the rows in any order, but they must
# hold each point of the full grid exactly once, theta from 0 up to 180 and
# phi from 0 up to 360 at even steps.

FIELD_CSV_HEADER = "theta_deg,phi_deg,re,im,mag"
_CSV_ROW = "%.9g,%.9g,%.9g,%.9g,%.9g\n"
_CSV_CHUNK_ROWS = 1024


def _grid_points(grid: GridSpec) -> np.ndarray:
    """(theta, phi) of every grid point, one row each, theta-major."""
    theta, phi = grid.theta_deg(), grid.phi_deg()
    return np.column_stack([np.repeat(theta, phi.size), np.tile(phi, theta.size)])


def write_field_csv(gridval: FieldGrid, path: str | Path) -> None:
    path = Path(path)
    flat = gridval.values.ravel()
    table = np.column_stack([_grid_points(gridval.grid), flat.real, flat.imag, np.abs(flat)])
    tmp = path.with_name(path.name + ".tmp")  # readers never see a partial file
    try:
        with open(tmp, "w") as out:
            out.write(FIELD_CSV_HEADER + "\n")
            # One % per chunk of rows: the bytes np.savetxt writes one row at a time.
            for chunk in np.split(table, range(_CSV_CHUNK_ROWS, len(table), _CSV_CHUNK_ROWS)):
                out.write(_CSV_ROW * len(chunk) % tuple(chunk.ravel().tolist()))
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write field CSV {path}: {exc}") from exc


def read_field_csv(path: str | Path) -> FieldGrid:
    path = Path(path)
    try:
        raw = load_csv_table(path, skiprows=1)
    except OSError as exc:
        raise IoError(f"cannot read field CSV {path}: {exc}") from exc
    except ValueError as exc:
        raise IoError(f"malformed field CSV {path}: {exc}") from exc
    if raw.shape[1] != 5:
        raise IoError(f"malformed field CSV {path}: expected 5 columns, got {raw.shape[1]}")
    n_theta, n_phi = np.unique(raw[:, 0]).size, np.unique(raw[:, 1]).size
    grid = GridSpec(theta_step_deg=180.0 / n_theta, phi_step_deg=360.0 / n_phi)
    order = np.lexsort((raw[:, 1], raw[:, 0]))
    if not (raw.shape[0] == grid.n_points
            and np.allclose(raw[order, :2], _grid_points(grid), rtol=0.0, atol=1e-6)):
        raise IoError(f"field CSV {path} does not hold each point of an even theta 0..180, "
                      "phi 0..360 grid exactly once")
    values = (raw[order, 2] + 1j * raw[order, 3]).reshape(grid.shape)
    return FieldGrid(values=values, grid=grid)
