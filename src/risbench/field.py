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
The cells are evenly spaced, so ``_steer`` builds the cos and sin tables
by angle addition, re-seeded from libm every 16 rows: 6 libm calls per
direction and axis up to 64 cells, and every field within 1e-13 of its
peak of what entry-by-entry libm tables give.  The result
matches the direct sum to 1e-12 of the peak magnitude (tested on odd and
even M and N, up to 256 x 256), not bit for bit; repeated evaluations of one
configuration on one build are identical.  ``front``'s precision follows
its tables: they are float64 as built, so ``field`` and every artifact are
float64, and ``FieldEvaluator.astype(np.float32)`` gives the same kernel
in float32, which the GA ranks with; its fields agree with float64's to
about 2.5e-7 of the peak.  ``front`` takes the GEMM and the reduction over
rows one block of directions at a time, each block's GEMM output within
2 MiB, so one call's temporaries stay near 2.5 MB at 40x40 on the 1 deg grid
(12.8 MB in one piece).  The float32 result does not depend on the blocks;
the float64 result moves with the block width by about 1e-21 of the peak.

Each grid rule the other modules apply lives here once: the front rows
(``GridSpec.front_rows``), azimuth distance (``phi_distance``), the lobe
band (``PHI_BAND_DEG``, ``band_columns``), the principal-cut columns
(``principal_columns``), peak scaling (``peak_magnitude``) and the aperture
phase shared by planewave incidence and beam steering (``aperture_phase``).
"""

from __future__ import annotations

import copy
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
        elif not 0.0 <= self.incidence_deg[0] < 90.0:
            raise SourceBelowSurface(f"planewave must arrive from above the surface, "
                                     f"0 <= theta < 90, got theta = {self.incidence_deg[0]}")

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


STEER_RESEED = 16  # _steer seeds every this many rows from libm


def _steer(kr: np.ndarray, cosines: np.ndarray) -> np.ndarray:
    """(2, ceil(n/2), L) cos and sin of kr[i] * cosines for the first half of a centred axis.

    The coordinates are evenly spaced, so the rows follow by angle addition
    (Press et al., Numerical Recipes, 3rd ed., section 5.4).  The innermost
    row, and every ``STEER_RESEED``-th row outward from it, is libm's cos
    and sin of kr[i] * cosines; each row in between rotates its inner
    neighbour by one pitch, (c, s) <- (c dc + s ds, s dc - c ds) with
    (dc, ds) the cos and sin of k pitch * cosines.  The rounding of at most
    15 rotations moves a field by at most 1e-13 of its peak (measured up to
    256 x 256).  An odd n's middle coordinate is 0, so its seeded sin row is
    exactly zero and meets ``_fold``'s zero difference row.
    """
    half = kr.size - kr.size // 2
    out = np.empty((2, half, cosines.size))
    cos, sin = out
    if half > 1:
        # The pitch from the whole span: a neighbour difference would carry an ulp of kr.
        step = (kr[-1] - kr[0]) / (kr.size - 1) * cosines
        dc, ds = np.cos(step), np.sin(step)
        term = np.empty_like(step)
    for r in range(half):
        i = half - 1 - r  # rows run outward from the innermost coordinate
        if r % STEER_RESEED == 0:  # the phase passes through the sin row
            np.multiply(kr[i], cosines, out=sin[i])
            np.cos(sin[i], out=cos[i])
            np.sin(sin[i], out=sin[i])
            continue
        np.multiply(cos[i + 1], dc, out=cos[i])
        np.multiply(sin[i + 1], ds, out=term)
        np.add(cos[i], term, out=cos[i])
        np.multiply(sin[i + 1], dc, out=sin[i])
        np.multiply(cos[i + 1], ds, out=term)
        np.subtract(sin[i], term, out=sin[i])
    return out


# FieldEvaluator.front takes its GEMM one block of directions at a time: a
# whole number of _GRANULE directions, as many as keep the block's GEMM
# output within _BLOCK_BYTES, and never fewer than one granule.  Blocks of 1,
# 7 or 100 directions changed float32 bits under OpenBLAS; whole granules
# give the bits of one unblocked GEMM.
_BLOCK_BYTES = 2 << 20
_GRANULE = 512


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

        self._steer_y = _steer(k * y, v)  # (2, ceil(M/2), Lq)
        self._steer_y *= np.repeat(env, n_rep)
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
        dtype = self._flips.dtype
        parts = np.concatenate([folded.real, folded.imag]).astype(dtype, copy=False)
        parts = parts.reshape(parts.shape[0], 2, -1).transpose(1, 0, 2)
        # The GEMM output over every direction would be the call's largest
        # temporary, so it is taken one block of directions at a time.
        n_dir = self._steer_x.shape[-1]
        per_direction = parts[..., 0].nbytes  # of GEMM output
        block = _GRANULE * max(1, _BLOCK_BYTES // (_GRANULE * per_direction))
        sums = np.empty((2, 2, 2, n_dir), dtype)
        for lo in range(0, n_dir, block):
            steer_y = self._steer_y[..., lo:lo + block]
            # (re + j im) (cos + j sin) summed over m, at v and at -v: row sums
            # against y's cos table, row differences against its sin table.
            # The GEMM output is not named, so it is freed before the next
            # block's is allocated.
            sums[..., lo:lo + block] = np.einsum(
                "cabml,bml->cbal",
                (parts @ self._steer_x[..., lo:lo + block]).reshape(2, 2, *steer_y.shape),
                steer_y)
        flips = sums.reshape(8, -1).T @ self._flips
        flips = flips.view(np.result_type(flips.dtype, 1j))  # (Lq, 4 flips)
        return flips.reshape(self.grid.front_rows, -1)[:, self._columns].ravel()

    def astype(self, dtype) -> "FieldEvaluator":
        """This evaluator with its real tables cast to ``dtype``, so that
        ``front`` computes in that precision; ``field`` wants float64."""
        cast = copy.copy(self)
        for name in ("_steer_x", "_steer_y", "_flips"):
            setattr(cast, name, getattr(self, name).astype(dtype))
        return cast

    def field(self, config: ConfigMatrix) -> FieldGrid:
        """Complex far-field of one configuration."""
        validate_config(self.surface, config)
        values = np.zeros(self.grid.n_points, dtype=complex)  # zero behind the surface
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
# 9 significant digits: the bytes of np.savetxt(fmt="%.9g").  A reader takes
# the rows in any order, but they must hold each point of the full grid
# exactly once, theta from 0 up to 180 and phi from 0 up to 360 at even steps,
# each angle within 1e-6 degrees of its point; it places each row by index.
# The writer prints each theta and phi value once per grid and formats one
# theta row per %; a row whose re and im are all +0.0 (the back hemisphere)
# is written from a template with no formatting.  A -0.0 prints as "-0", so
# a row that holds one is formatted like any other.

FIELD_CSV_HEADER = "theta_deg,phi_deg,re,im,mag"
_CSV_ANGLE_TOL_DEG = 1e-6  # how far a field CSV's theta or phi may sit from its grid point


def write_field_csv(gridval: FieldGrid, path: str | Path) -> None:
    path = Path(path)
    values = gridval.values
    phis = ["%.9g" % p for p in gridval.grid.phi_deg().tolist()]
    tails = [f",{p},%.9g,%.9g,%.9g\n" for p in phis]
    zero_tails = [f",{p},0,0,0\n" for p in phis]
    zero_rows = ~((values != 0) | np.signbit(values.real) | np.signbit(values.imag)).any(axis=1)
    table = np.stack([values.real, values.imag, np.abs(values)], axis=-1)  # (theta, phi, 3)
    tmp = path.with_name(path.name + ".tmp")  # readers never see a partial file
    try:
        with open(tmp, "w") as out:
            out.write(FIELD_CSV_HEADER + "\n")
            for theta, zero, row in zip(gridval.grid.theta_deg().tolist(), zero_rows, table):
                th = "%.9g" % theta
                if zero:
                    out.write(th + th.join(zero_tails))
                else:
                    out.write((th + th.join(tails)) % tuple(row.ravel().tolist()))
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
    # The theta = 0 rows count the phi columns and the phi = 0 rows the theta
    # rows; then each row must round onto its own point of that grid.
    off_grid = IoError(f"field CSV {path} does not hold each point of an even theta 0..180, "
                       "phi 0..360 grid exactly once")
    on_axis = np.abs(raw[:, :2]) <= _CSV_ANGLE_TOL_DEG
    n_phi, n_theta = np.count_nonzero(on_axis, axis=0).tolist()
    if n_theta * n_phi != raw.shape[0]:
        raise off_grid
    grid = GridSpec(theta_step_deg=180.0 / n_theta, phi_step_deg=360.0 / n_phi)
    i = _grid_index(raw[:, 0], grid.theta_step_deg, n_theta)
    j = _grid_index(raw[:, 1], grid.phi_step_deg, n_phi)
    index = None if i is None or j is None else i * n_phi + j
    if index is None or np.bincount(index, minlength=grid.n_points).max() != 1:
        raise off_grid
    values = np.empty(grid.n_points, dtype=complex)
    values[index] = raw[:, 2] + 1j * raw[:, 3]
    return FieldGrid(values=values.reshape(grid.shape), grid=grid)


def _grid_index(angles: np.ndarray, step: float, count: int) -> np.ndarray | None:
    """Index of the grid point each angle lies on, or None if one lies
    outside [0, count * step) or off its point by more than the tolerance."""
    nearest = np.rint(angles / step)
    # The range test goes first, so that nan and inf never reach the subtraction.
    if not (np.all((nearest >= 0) & (nearest < count))
            and np.all(np.abs(angles - nearest * step) <= _CSV_ANGLE_TOL_DEG)):
        return None
    return nearest.astype(np.intp)
