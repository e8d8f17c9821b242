"""Pattern-comparison metrics: directivity error, NMSE, and side-lobe ratio.

Directivity integrals treat each grid sample as the center of an angular
cell and integrate sin(theta) exactly over the cell's span clipped to the
requested region (cosine differences).  This keeps disjoint regions exactly
additive and makes a uniform hemisphere integrate to 2*pi to within
floating-point rounding, instead of the ~1% bias a plain rectangle rule
shows at a 1-degree step.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    AllZeroField,
    EmptyRegion,
    GridMismatch,
    ZeroReferenceDirectivity,
)
from .field import (PHI_BAND_DEG, FieldGrid, PrincipalCut, peak_magnitude, phi_distance,
                    principal_cut)

if TYPE_CHECKING:  # annotations only: benchmarks imports the optimizer, which imports this
    from .benchmarks import BenchmarkPattern

NO_SIDE_LOBE_DB = 99.0   # sentinel when no lobe exists outside the intended regions
ZERO_INTENDED_DB = -99.0  # sentinel when the intended region carries no power
LOBE_FLOOR_RATIO = 1e-4   # peaks below peak_power_max * ratio are numerical ripple


@dataclass(frozen=True)
class LobeRegion:
    """A lobe on the signed principal-cut axis, bounded by its nulls."""

    start_deg: float
    end_deg: float
    peak_deg: float
    peak_power: float

    def __post_init__(self):
        if not self.start_deg < self.peak_deg < self.end_deg:
            raise EmptyRegion(
                f"lobe bounds must satisfy start < peak < end, got "
                f"({self.start_deg}, {self.peak_deg}, {self.end_deg})"
            )


@dataclass(frozen=True)
class MetricsReport:
    """The three comparison metrics for one achieved-vs-reference pair."""

    de: float
    nmse: float
    slr_db: float
    per_beam_slr_db: tuple[float, ...]

    def to_dict(self) -> dict:
        return asdict(self)


def directivity_over_region(gridval: FieldGrid, region: LobeRegion,
                            phi_plane_deg: float, phi_band_deg: float = PHI_BAND_DEG) -> float:
    """Integrated power |E|^2 sin(theta) dtheta dphi over one lobe region.

    The region lives on the signed principal-cut axis; ``phi_plane_deg``
    names the half-plane the lobe belongs to (0 for positive angles, 180
    for negative), and the integral spans the phi columns within
    ``phi_band_deg`` of that plane.
    """
    grid = gridval.grid
    if not (-90.0 <= region.start_deg and region.end_deg <= 90.0):
        raise EmptyRegion(f"region [{region.start_deg}, {region.end_deg}] "
                          "extends beyond the +-90 degree cut")
    positive_plane = phi_distance(phi_plane_deg, 0.0) <= 90.0
    if positive_plane:
        lo, hi = region.start_deg, region.end_deg
    else:
        lo, hi = -region.end_deg, -region.start_deg
    lo, hi = max(lo, 0.0), min(hi, 90.0)
    if hi <= lo:
        raise EmptyRegion(
            f"region [{region.start_deg}, {region.end_deg}] has no extent in the "
            f"phi = {phi_plane_deg} half-plane"
        )

    cols = np.nonzero(phi_distance(grid.phi_deg(), phi_plane_deg) <= phi_band_deg + 1e-9)[0]
    if cols.size == 0:
        raise EmptyRegion(f"no phi column within {phi_band_deg} deg of {phi_plane_deg}")

    step = grid.theta_step_deg
    half = step / 2.0
    theta = grid.theta_deg()
    cell_lo = np.maximum(np.maximum(theta - half, 0.0), lo)
    cell_hi = np.minimum(np.minimum(theta + half, 90.0), hi)
    rows = np.nonzero(cell_hi > cell_lo)[0]
    if rows.size == 0:
        raise EmptyRegion(f"no theta sample inside [{lo}, {hi}]")
    weights = np.cos(np.radians(cell_lo[rows])) - np.cos(np.radians(cell_hi[rows]))

    power = np.abs(gridval.values[np.ix_(rows, cols)]) ** 2
    dphi = math.radians(grid.phi_step_deg)
    return float(dphi * np.sum(weights @ power))


def _beam_pieces(start_deg: float, end_deg: float) -> list[tuple[LobeRegion, float]]:
    """Split a signed region at 0 into per-half-plane pieces."""
    pieces = []
    if end_deg > 0.0:
        lo = max(start_deg, 0.0)
        pieces.append((LobeRegion(lo, end_deg, (lo + end_deg) / 2.0, 1.0), 0.0))
    if start_deg < 0.0:
        hi = min(end_deg, 0.0)
        pieces.append((LobeRegion(start_deg, hi, (start_deg + hi) / 2.0, 1.0), 180.0))
    return pieces


def directivity_error(reference: FieldGrid, achieved: FieldGrid,
                      bm: BenchmarkPattern) -> float:
    """(D_r - D_a) / D_r over the union of the benchmark's lobe regions."""
    if reference.grid != achieved.grid:
        raise GridMismatch("reference and achieved grids differ")
    d_ref = 0.0
    d_ach = 0.0
    for beam in bm.beams:
        for region, plane in _beam_pieces(beam.lobe_start_deg, beam.lobe_end_deg):
            d_ref += directivity_over_region(reference, region, plane)
            d_ach += directivity_over_region(achieved, region, plane)
    if d_ref == 0.0:
        raise ZeroReferenceDirectivity("reference has no power in the intended regions")
    return (d_ref - d_ach) / d_ref


def nmse(reference: FieldGrid, achieved: FieldGrid) -> float:
    """Mean squared difference of peak-normalized magnitudes over the grid."""
    if reference.grid != achieved.grid:
        raise GridMismatch("reference and achieved grids differ")
    ref, ach = reference.magnitude(), achieved.magnitude()
    diff = ref / peak_magnitude(ref) - ach / peak_magnitude(ach)
    return float(np.mean(diff * diff))


def detect_lobes(cut: PrincipalCut) -> list[LobeRegion]:
    """Null-bounded lobes of the cut, strongest first.

    Local power maxima below LOBE_FLOOR_RATIO of the strongest peak are
    ignored; each surviving peak is bounded by the nearest non-increase on
    either side.
    """
    power = cut.magnitude.astype(float) ** 2
    peak_max = power.max()
    if peak_max == 0.0:
        raise AllZeroField("cut is identically zero")
    floor = peak_max * LOBE_FLOOR_RATIO

    # Forward-fill zero slopes so plateaus count once, at their last sample.
    slope = np.sign(np.diff(power))
    for i in range(1, slope.size):
        if slope[i] == 0:
            slope[i] = slope[i - 1]

    n = power.size
    peaks = []
    for i in range(n):
        rising = slope[i - 1] > 0 if i > 0 else True
        falling = slope[i] < 0 if i < n - 1 else True
        if rising and falling and power[i] > floor:
            peaks.append(i)

    step = float(cut.signed_theta_deg[1] - cut.signed_theta_deg[0]) if n > 1 else 1.0
    regions = []
    for pk in peaks:
        left = pk
        while left > 0 and power[left - 1] < power[left]:
            left -= 1
        right = pk
        while right < n - 1 and power[right + 1] < power[right]:
            right += 1
        start = float(cut.signed_theta_deg[left])
        end = float(cut.signed_theta_deg[right])
        # A peak pinned to the cut boundary has a degenerate null; widen by
        # half a step so the region stays a valid interval.
        if left == pk:
            start -= step / 2.0
        if right == pk:
            end += step / 2.0
        regions.append(LobeRegion(start_deg=start, end_deg=end,
                                  peak_deg=float(cut.signed_theta_deg[pk]),
                                  peak_power=float(power[pk])))
    regions.sort(key=lambda r: (-r.peak_power, r.peak_deg))
    return regions


def side_lobe_ratio(achieved: FieldGrid, bm: BenchmarkPattern) -> tuple[float, list[float]]:
    """Average and per-beam intended-to-side lobe power ratio in dB.

    The intended power density is the peak |E|^2 inside each benchmark lobe
    region on the principal cut; the side-lobe density is the strongest
    detected lobe whose peak falls outside every intended region.
    """
    cut = principal_cut(achieved)
    power = cut.magnitude.astype(float) ** 2
    lobes = detect_lobes(cut)  # AllZeroField on an all-zero cut

    spans = [(b.lobe_start_deg, b.lobe_end_deg) for b in bm.beams]
    side = next(
        (lb for lb in lobes
         if not any(lo <= lb.peak_deg <= hi for lo, hi in spans)),
        None,
    )

    per_beam = []
    for lo, hi in spans:
        mask = (cut.signed_theta_deg >= lo) & (cut.signed_theta_deg <= hi)
        intended = float(power[mask].max()) if mask.any() else 0.0
        if side is None:
            per_beam.append(NO_SIDE_LOBE_DB)
        elif intended == 0.0:
            per_beam.append(ZERO_INTENDED_DB)
        else:
            per_beam.append(10.0 * math.log10(intended / side.peak_power))
    return float(np.mean(per_beam)), per_beam


def evaluate_all(reference: FieldGrid, achieved: FieldGrid,
                 bm: BenchmarkPattern) -> MetricsReport:
    """Bundle DE, NMSE, and SLR for one achieved-vs-reference pair."""
    if reference.grid != achieved.grid:
        raise GridMismatch("reference and achieved grids differ")
    slr, per_beam = side_lobe_ratio(achieved, bm)
    return MetricsReport(
        de=directivity_error(reference, achieved, bm),
        nmse=nmse(reference, achieved),
        slr_db=slr,
        per_beam_slr_db=tuple(per_beam),
    )
