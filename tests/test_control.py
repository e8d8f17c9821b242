import math

import pytest

from risbench.control import (
    complexity_report,
    half_wavelength_cell_area,
    max_power,
    physical_paths,
    power_per_area,
    switching_rate,
)
from risbench.errors import GroupSizeMismatch, NonPositiveParam
from risbench.surface import build_surface, load_unit_cell

# Published per-area power figures (W/m^2) and diode counts for S1..S5.
TABLE_ROWS = {
    "S1": (1, 1, 11.1e9, 44.0),
    "S2": (1, 1, 8.82e9, 27.7),
    "S3": (2, 5, 2.3e9, 9.46),
    "S4": (2, 2, 9.08e9, 58.8),
    "S5": (1, 1, 6.0e9, 12.8),
}


class TestPhysicalPaths:
    def test_40x40_two_bit(self):
        assert physical_paths(40, 40, 2, 1) == 3200

    def test_grouped_one_bit(self):
        assert physical_paths(40, 40, 1, 2) == 800

    def test_identity_case(self):
        assert physical_paths(13, 7, 1, 1) == 91

    def test_mismatch(self):
        with pytest.raises(GroupSizeMismatch):
            physical_paths(3, 3, 1, 2)


class TestSwitchingRate:
    def test_worked_example(self):
        rate = switching_rate(2, 40, 40, 40, 2, 20e-9)
        assert math.isclose(rate, 1.25e6, rel_tol=1e-12)
        assert math.isclose(1.0 / rate, 0.8e-6, rel_tol=1e-12)

    def test_linear_in_group_size(self):
        r1 = switching_rate(1, 40, 40, 40, 2, 20e-9)
        r2 = switching_rate(2, 40, 40, 40, 2, 20e-9)
        assert math.isclose(r2, 2 * r1, rel_tol=1e-12)

    def test_rate_times_paths_identity(self):
        # G K / (M N n tau) * M N n / G == K / tau
        for g in (1, 2, 4):
            prod = switching_rate(g, 40, 40, 40, 2, 20e-9) * physical_paths(40, 40, 2, g)
            assert math.isclose(prod, 40 / 20e-9, rel_tol=1e-12)

    def test_nonpositive(self):
        with pytest.raises(NonPositiveParam):
            switching_rate(1, 40, 40, 40, 2, 0.0)
        for bad in (math.nan, math.inf):  # both pass a `v <= 0` test
            for call in (lambda: switching_rate(1, 40, 40, 40, 2, bad),
                         lambda: max_power(5, 40, 40, bad),
                         lambda: power_per_area(5, bad, 10e9),
                         lambda: half_wavelength_cell_area(bad)):
                with pytest.raises(NonPositiveParam):
                    call()


class TestMaxPower:
    def test_five_diode_cell_at_40x40(self):
        assert math.isclose(max_power(5, 40, 40, 8e-3), 64.0, rel_tol=1e-12)

    def test_single_cell(self):
        assert max_power(1, 1, 1, 8e-3) == 8e-3

    def test_doubling_diodes_doubles_power(self):
        assert max_power(2, 40, 40, 8e-3) == 2 * max_power(1, 40, 40, 8e-3)


class TestPowerPerArea:
    @pytest.mark.parametrize("cid", sorted(TABLE_ROWS))
    def test_published_values_within_2_percent(self, cid):
        _, d, f_hz, expected = TABLE_ROWS[cid]
        got = power_per_area(d, 8e-3, f_hz)
        assert abs(got - expected) / expected < 0.02, f"{cid}: {got} vs {expected}"

    def test_independent_of_surface_size(self):
        cell = load_unit_cell("S4")
        small, _ = build_surface(cell, 10, 10, 1)
        large, _ = build_surface(cell, 40, 40, 4)
        assert (complexity_report(small).power_per_area_w_m2
                == complexity_report(large).power_per_area_w_m2)

    def test_cell_area_published(self):
        assert math.isclose(half_wavelength_cell_area(8.82e9), 2.89e-4, rel_tol=0.01)


class TestComplexityReport:
    def test_s2_row(self):
        surf, _ = build_surface(load_unit_cell("S2"), 40, 40, 1)
        rep = complexity_report(surf)
        assert math.isclose(rep.power_per_area_w_m2, 27.7, rel_tol=0.02)
        assert math.isclose(rep.cell_area_m2, 2.89e-4, rel_tol=0.01)
        assert rep.physical_paths == 1600
        assert rep.params_echo["K"] == 40

    def test_s5_row(self):
        surf, _ = build_surface(load_unit_cell("S5"), 40, 40, 1)
        rep = complexity_report(surf)
        assert math.isclose(rep.power_per_area_w_m2, 12.8, rel_tol=0.02)

    def test_group_passes_through(self):
        surf, _ = build_surface(load_unit_cell("S3"), 40, 40, 2)
        rep = complexity_report(surf)
        assert rep.physical_paths == 2 * 1600 // 2
        assert rep.params_echo["G"] == 2
