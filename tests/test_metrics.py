import math

import numpy as np
import pytest

from risbench.benchmarks import BeamSpec, BenchmarkPattern, load_benchmark
from risbench.errors import (
    AllZeroField,
    EmptyRegion,
    GridMismatch,
    ZeroReferenceDirectivity,
)
from risbench.field import FieldGrid, GridSpec, PrincipalCut, principal_cut
from risbench.metrics import (
    NO_SIDE_LOBE_DB,
    directivity_error,
    directivity_over_region,
    evaluate_all,
    lobe_peaks,
    nmse,
    side_lobe_ratio,
)

GRID = GridSpec()


def grid_of(values) -> FieldGrid:
    return FieldGrid(values=np.asarray(values, dtype=complex), grid=GRID)


def zeros_grid() -> np.ndarray:
    return np.zeros((180, 360))


def cut_of(power_by_signed_deg) -> PrincipalCut:
    """Cut with |E| = sqrt(power) at the given signed angles, zero elsewhere."""
    signed = np.arange(-90, 91).astype(float)
    mags = np.zeros(181)
    for deg, p in power_by_signed_deg.items():
        mags[int(deg) + 90] = math.sqrt(p)
    return PrincipalCut(signed_theta_deg=signed, magnitude=mags)


def single_beam(theta=30.0, start=27.0, end=33.0, amp=1.0) -> BenchmarkPattern:
    return BenchmarkPattern(id="custom", beams=(
        BeamSpec(signed_theta_deg=theta, rel_amplitude=amp,
                 lobe_start_deg=start, lobe_end_deg=end),))


def lobe_field(center_deg=30.0, width=6.0, amp=1.0, phi_col=0):
    """Raised-cosine lobe painted into one phi column."""
    v = zeros_grid()
    theta = np.arange(180.0)
    inside = np.abs(theta - center_deg) <= width / 2
    v[inside, phi_col] = amp * np.cos(np.pi * (theta[inside] - center_deg) / width) ** 2
    return grid_of(v)


class TestDirectivityOverRegion:
    def test_zero_field(self):
        assert directivity_over_region(grid_of(zeros_grid()), 27.0, 33.0, 0.0) == 0.0

    def test_quadratic_scaling(self):
        fg = lobe_field()
        d1 = directivity_over_region(fg, 27.0, 33.0, 0.0)
        d3 = directivity_over_region(grid_of(fg.values * 3.0), 27.0, 33.0, 0.0)
        assert np.isclose(d3, 9.0 * d1, rtol=1e-12)

    def test_uniform_hemisphere_integrates_to_2pi(self):
        v = zeros_grid()
        v[:91, :] = 1.0
        d = directivity_over_region(grid_of(v), -90.0, 90.0, 0.0, phi_band_deg=180.0)
        assert abs(d - 2 * math.pi) / (2 * math.pi) < 1e-3

    def test_additivity_is_exact(self):
        rng = np.random.default_rng(5)
        fg = grid_of(rng.random((180, 360)))
        whole = directivity_over_region(fg, 10.0, 40.0, 0.0)
        left = directivity_over_region(fg, 10.0, 23.0, 0.0)
        right = directivity_over_region(fg, 23.0, 40.0, 0.0)
        assert whole == left + right

    def test_wrong_half_plane_is_empty(self):
        with pytest.raises(EmptyRegion):
            directivity_over_region(lobe_field(), -33.0, -27.0, 0.0)

    @pytest.mark.parametrize("start, end", [(30.0, 30.0), (33.0, 27.0), (-91.0, 0.0),
                                            (0.0, 90.5)])
    def test_span_must_be_an_interval_within_the_cut(self, start, end):
        with pytest.raises(EmptyRegion):
            directivity_over_region(lobe_field(), start, end, 0.0)

    def test_negative_region_uses_180_plane(self):
        fg = lobe_field(center_deg=30.0, phi_col=180)  # lives at signed -30
        assert directivity_over_region(fg, -33.0, -27.0, 180.0) > 0.0


class TestDirectivityError:
    def test_self_is_zero(self):
        fg = lobe_field()
        assert directivity_error(fg, fg, single_beam()) == 0.0

    def test_zero_in_regions_gives_one(self):
        ref = lobe_field()
        ach = lobe_field(center_deg=60.0)  # all power outside [27, 33]
        assert np.isclose(directivity_error(ref, ach, single_beam()), 1.0)

    def test_stronger_achieved_goes_negative(self):
        ref = lobe_field(amp=1.0)
        ach = lobe_field(amp=2.0)
        assert directivity_error(ref, ach, single_beam()) < 0.0

    def test_zero_reference_rejected(self):
        with pytest.raises(ZeroReferenceDirectivity):
            directivity_error(grid_of(zeros_grid()), lobe_field(), single_beam())

    def test_straddling_beam_counts_both_half_planes(self):
        bm = single_beam(theta=0.0, start=-3.0, end=3.0)
        v = zeros_grid()
        v[0:4, 0] = 1.0    # signed 0..3
        v[1:4, 180] = 1.0  # signed -3..-1
        ref = grid_of(v)
        w = zeros_grid()
        w[1:4, 180] = 1.0  # negative side only
        ach = grid_of(w)
        de = directivity_error(ref, ach, bm)
        assert 0.0 < de < 1.0


class TestNmse:
    def test_identity(self):
        fg = lobe_field()
        assert nmse(fg, fg) == 0.0

    def test_scale_invariance(self):
        fg = lobe_field()
        scaled = grid_of(fg.values * 7.3)
        assert nmse(fg, scaled) <= 1e-12

    def test_two_disjoint_points(self):
        a = zeros_grid()
        a[10, 0] = 1.0
        b = zeros_grid()
        b[20, 40] = 1.0
        val = nmse(grid_of(a), grid_of(b))
        assert np.isclose(val, 2.0 / (180 * 360), rtol=1e-12)

    def test_symmetry(self):
        x = lobe_field(center_deg=20.0)
        y = lobe_field(center_deg=50.0)
        assert nmse(x, y) == nmse(y, x)

    def test_grid_mismatch(self):
        fg = lobe_field()
        other = FieldGrid(values=np.zeros((90, 180), dtype=complex),
                          grid=GridSpec(theta_step_deg=2.0, phi_step_deg=2.0))
        with pytest.raises(GridMismatch):
            nmse(fg, other)

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroField):
            nmse(grid_of(zeros_grid()), lobe_field())


class TestDetectLobes:
    def test_single_raised_cosine(self):
        cut = principal_cut(lobe_field())
        peaks = lobe_peaks(cut)
        assert len(peaks) == 1
        assert peaks[0][0] == 30.0

    def test_two_lobes_ordered_by_power(self):
        cut = cut_of({})
        mags = cut.magnitude.copy()
        for center, amp in ((-40, 0.5 ** 0.5), (20, 1.0)):
            for off in range(-3, 4):
                mags[center + 90 + off] = amp * math.cos(math.pi * off / 7) ** 2
        cut = PrincipalCut(signed_theta_deg=cut.signed_theta_deg, magnitude=mags)
        peaks = lobe_peaks(cut)
        assert len(peaks) == 2
        assert peaks[0][0] == 20.0
        assert np.isclose(peaks[0][1], 1.0)
        assert peaks[1][0] == -40.0
        assert np.isclose(peaks[1][1], 0.5)

    def test_floor_suppresses_ripple(self):
        cut = cut_of({0: 1.0, 50: 0.5e-4})  # below the 1e-4 floor
        assert len(lobe_peaks(cut)) == 1

    def test_flat_zero_rejected(self):
        with pytest.raises(AllZeroField):
            lobe_peaks(cut_of({}))


class TestSideLobeRatio:
    def test_equal_peaks_zero_db(self):
        v = zeros_grid()
        v[28:33, 0] = [0.5, 0.9, 1.0, 0.9, 0.5]    # intended lobe at +30
        v[58:63, 0] = [0.5, 0.9, 1.0, 0.9, 0.5]    # side lobe at +60
        slr, per_beam = side_lobe_ratio(grid_of(v), single_beam())
        assert abs(slr) < 1e-12
        assert per_beam == [slr]

    def test_ten_times_power_is_10_db(self):
        v = zeros_grid()
        v[28:33, 0] = [0.5, 0.9, 1.0, 0.9, 0.5]
        side = math.sqrt(0.1)
        v[58:63, 0] = np.array([0.5, 0.9, 1.0, 0.9, 0.5]) * side
        slr, _ = side_lobe_ratio(grid_of(v), single_beam())
        assert np.isclose(slr, 10.0, atol=1e-9)

    def test_dominant_side_lobe_goes_negative(self):
        v = zeros_grid()
        v[28:33, 0] = np.array([0.5, 0.9, 1.0, 0.9, 0.5]) * 0.5
        v[58:63, 0] = [0.5, 0.9, 1.0, 0.9, 0.5]
        slr, _ = side_lobe_ratio(grid_of(v), single_beam())
        assert slr < 0.0

    def test_no_side_lobe_sentinel(self):
        slr, per_beam = side_lobe_ratio(lobe_field(), single_beam())
        assert slr == NO_SIDE_LOBE_DB
        assert per_beam == [NO_SIDE_LOBE_DB]

    def test_multi_beam_average(self):
        bm = load_benchmark("B3")
        v = zeros_grid()
        v[23:28, 0] = [0.5, 0.9, 1.0, 0.9, 0.5]      # +25 intended
        v[23:28, 180] = [0.5, 0.9, 1.0, 0.9, 0.5]    # -25 intended
        v[68:73, 0] = np.array([0.5, 0.9, 1.0, 0.9, 0.5]) * math.sqrt(0.1)
        slr, per_beam = side_lobe_ratio(grid_of(v), bm)
        assert len(per_beam) == 2
        assert np.isclose(slr, 10.0, atol=1e-9)


class TestEvaluateAll:
    def test_reference_against_itself(self):
        bm = single_beam()
        fg = lobe_field()
        rep = evaluate_all(fg, fg, bm)
        assert rep.de == 0.0
        assert rep.nmse == 0.0
        assert rep.nmse >= 0.0

    def test_report_serializes(self):
        rep = evaluate_all(lobe_field(), lobe_field(amp=0.5), single_beam())
        doc = rep.to_dict()
        assert set(doc) == {"de", "nmse", "slr_db", "per_beam_slr_db"}

    def test_nmse_symmetric_under_swap(self):
        bm = single_beam()
        a = lobe_field()
        b = lobe_field(center_deg=31.0)
        assert evaluate_all(a, b, bm).nmse == evaluate_all(b, a, bm).nmse
