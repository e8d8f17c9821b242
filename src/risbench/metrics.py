"""Pattern-comparison metrics: directivity error, NMSE, and side-lobe ratio.

Directivity integrals treat each grid sample as the center of an angular
cell and integrate sin(theta) exactly over the cell's span clipped to the
requested region (cosine differences).  This keeps disjoint regions exactly
additive and makes a uniform hemisphere integrate to 2*pi to within
floating-point rounding, instead of the ~1% bias a plain rectangle rule
shows at a 1-degree step.

The side-lobe ratio reads the principal cut: the intended power is the
peak inside each beam's span, taken per beam, and the side lobe is the
strongest peak of the cut outside every span.
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
from .field import (PHI_BAND_DEG, FieldGrid, PrincipalCut, band_columns, peak_magnitude,
                    phi_distance, principal_cut)

if TYPE_CHECKING:  # annotations only: benchmarks imports the optimizer, which imports this
    from .benchmarks import BenchmarkPattern

NO_SIDE_LOBE_DB = 99.0   # sentinel when no lobe exists outside the intended regions
ZERO_INTENDED_DB = -99.0  # sentinel when the intended region carries no power
LOBE_FLOOR_RATIO = 1e-4   # peaks below peak_power_max * ratio are numerical ripple


@dataclass(frozen=True)
class MetricsReport:
    """The three comparison metrics for one achieved-vs-reference pair."""

    de: float
    nmse: float
    slr_db: float
    per_beam_slr_db: tuple[float, ...]

    def to_dict(self) -> dict:
        return asdict(self)


def directivity_over_region(gridval: FieldGrid, start_deg: float, end_deg: float,
                            phi_plane_deg: float, phi_band_deg: float = PHI_BAND_DEG) -> float:
    """Integrated power |E|^2 sin(theta) dtheta dphi over one signed span.

    ``[start_deg, end_deg]`` lives on the signed principal-cut axis;
    ``phi_plane_deg`` names the half-plane the span is read in (0 for
    positive angles, 180 for negative), and the integral spans the phi
    columns within ``phi_band_deg`` of that plane.
    """
    grid = gridval.grid
    if not -90.0 <= start_deg < end_deg <= 90.0:
        raise EmptyRegion(f"region [{start_deg}, {end_deg}] is not an interval "
                          "within the +-90 degree cut")
    if phi_distance(phi_plane_deg, 0.0) <= 90.0:
        lo, hi = max(start_deg, 0.0), end_deg
    else:
        lo, hi = max(-end_deg, 0.0), -start_deg
    if hi <= lo:
        raise EmptyRegion(
            f"region [{start_deg}, {end_deg}] has no extent in the "
            f"phi = {phi_plane_deg} half-plane"
        )

    cols = band_columns(grid, phi_plane_deg, phi_band_deg)
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


def directivity_error(reference: FieldGrid, achieved: FieldGrid,
                      bm: BenchmarkPattern) -> float:
    """(D_r - D_a) / D_r over the union of the benchmark's lobe regions."""
    if reference.grid != achieved.grid:
        raise GridMismatch("reference and achieved grids differ")
    d_ref = 0.0
    d_ach = 0.0
    for beam in bm.beams:
        start, end = beam.lobe_start_deg, beam.lobe_end_deg
        # the beam's piece on each side of 0, in the half-plane that holds it
        for lo, hi, plane in ((max(start, 0.0), end, 0.0), (start, min(end, 0.0), 180.0)):
            if hi > lo:
                d_ref += directivity_over_region(reference, lo, hi, plane)
                d_ach += directivity_over_region(achieved, lo, hi, plane)
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


def lobe_peaks(cut: PrincipalCut) -> list[tuple[float, float]]:
    """``(signed_deg, power)`` of each local power maximum of the cut, strongest first.

    Maxima below LOBE_FLOOR_RATIO of the strongest are ignored, a plateau
    counts once, at its last sample, and equal powers list the lower angle
    first.
    """
    power = cut.magnitude.astype(float) ** 2
    peak_max = power.max()
    if peak_max == 0.0:
        raise AllZeroField("cut is identically zero")

    # Forward-fill zero slopes so plateaus count once, at their last sample.
    slope = np.sign(np.diff(power))
    for i in range(1, slope.size):
        if slope[i] == 0:
            slope[i] = slope[i - 1]
    rising = np.concatenate([[True], slope > 0])
    falling = np.concatenate([slope < 0, [True]])
    peaks = np.nonzero(rising & falling & (power > peak_max * LOBE_FLOOR_RATIO))[0]
    return sorted(((float(cut.signed_theta_deg[i]), float(power[i])) for i in peaks),
                  key=lambda peak: (-peak[1], peak[0]))


def side_lobe_ratio(achieved: FieldGrid, bm: BenchmarkPattern) -> tuple[float, list[float]]:
    """Average and per-beam intended-to-side lobe power ratio in dB.

    The intended power density is the peak |E|^2 inside each benchmark lobe
    region on the principal cut; the side-lobe density is the strongest
    peak that falls outside every intended region.
    """
    cut = principal_cut(achieved)
    power = cut.magnitude.astype(float) ** 2
    peaks = lobe_peaks(cut)  # AllZeroField on an all-zero cut

    spans = [(b.lobe_start_deg, b.lobe_end_deg) for b in bm.beams]
    side = next((p for deg, p in peaks if not any(lo <= deg <= hi for lo, hi in spans)), None)

    per_beam = []
    for lo, hi in spans:
        mask = (cut.signed_theta_deg >= lo) & (cut.signed_theta_deg <= hi)
        intended = float(power[mask].max()) if mask.any() else 0.0
        if side is None:
            per_beam.append(NO_SIDE_LOBE_DB)
        elif intended == 0.0:
            per_beam.append(ZERO_INTENDED_DB)
        else:
            per_beam.append(10.0 * math.log10(intended / side))
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
