import math

import pytest

from risbench.control import complexity_report
from risbench.errors import GroupSizeMismatch, NonPositiveParam
from risbench.surface import build_surface, load_unit_cell

# Published per-area power figures (W/m^2) for S1..S5.
PUBLISHED_W_M2 = {"S1": 44.0, "S2": 27.7, "S3": 9.46, "S4": 58.8, "S5": 12.8}


def report(cid, rows=40, cols=40, group=1, **ctl):
    surface, _ = build_surface(load_unit_cell(cid), rows, cols, group)
    return complexity_report(surface, **ctl)


class TestPhysicalPaths:
    def test_40x40_two_bit(self):
        assert report("S4").physical_paths == 3200

    def test_grouped_one_bit(self):
        assert report("S1", group=2).physical_paths == 800

    def test_identity_case(self):
        assert report("S1", 13, 7).physical_paths == 91

    def test_mismatch(self):
        # M*N*n / G is a whole count only because no surface has a G that
        # does not divide M*N.
        with pytest.raises(GroupSizeMismatch):
            report("S1", 3, 3, 2)


class TestSwitchingRate:
    def test_worked_example(self):
        # S4 is a 2-bit cell: G=2, K=40, 40x40, n=2, tau=20 ns
        rate = report("S4", group=2, pins_k=40, tau_s=20e-9).switching_rate_hz
        assert math.isclose(rate, 1.25e6, rel_tol=1e-12)
        assert math.isclose(1.0 / rate, 0.8e-6, rel_tol=1e-12)

    def test_linear_in_group_size(self):
        r1 = report("S4", group=1).switching_rate_hz
        r2 = report("S4", group=2).switching_rate_hz
        assert math.isclose(r2, 2 * r1, rel_tol=1e-12)

    def test_rate_times_paths_identity(self):
        # G K / (M N n tau) * M N n / G == K / tau
        for g in (1, 2, 4):
            rep = report("S4", group=g, pins_k=40, tau_s=20e-9)
            prod = rep.switching_rate_hz * rep.physical_paths
            assert math.isclose(prod, 40 / 20e-9, rel_tol=1e-12)


class TestMaxPower:
    def test_five_diode_cell_at_40x40(self):
        rep = report("S3", diode_power_w=8e-3)
        assert rep.params_echo["d"] == 5
        assert math.isclose(rep.total_power_w, 64.0, rel_tol=1e-12)

    def test_single_cell(self):
        assert report("S1", 1, 1, diode_power_w=8e-3).total_power_w == 8e-3

    def test_doubling_diodes_doubles_power(self):
        # S4 carries two diodes per cell, S1 one
        assert report("S4").total_power_w == 2 * report("S1").total_power_w


class TestPowerPerArea:
    @pytest.mark.parametrize("cid", sorted(PUBLISHED_W_M2))
    def test_published_values_within_2_percent(self, cid):
        expected = PUBLISHED_W_M2[cid]
        got = report(cid, diode_power_w=8e-3).power_per_area_w_m2
        assert abs(got - expected) / expected < 0.02, f"{cid}: {got} vs {expected}"

    def test_independent_of_surface_size(self):
        cell = load_unit_cell("S4")
        small, _ = build_surface(cell, 10, 10, 1)
        large, _ = build_surface(cell, 40, 40, 4)
        assert (complexity_report(small).power_per_area_w_m2
                == complexity_report(large).power_per_area_w_m2)

    def test_cell_area_published(self):
        # (lambda/2)^2 at the S2 design frequency, 8.82 GHz, whatever the
        # surface's own pitch
        surf, _ = build_surface(load_unit_cell("S2"), 40, 40, 1, pitch_m=0.02)
        assert math.isclose(complexity_report(surf).cell_area_m2, 2.89e-4, rel_tol=0.01)


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

    @pytest.mark.parametrize("value", [0, math.nan, math.inf])  # nan and inf pass `v <= 0`
    @pytest.mark.parametrize("param", ["pins_k", "tau_s", "diode_power_w"])
    def test_nonpositive(self, param, value):
        with pytest.raises(NonPositiveParam, match=f"^{param} must be positive"):
            report("S1", **{param: value})
