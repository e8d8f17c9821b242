import math
import tracemalloc

import numpy as np
import pytest

from risbench.benchmarks import BeamSpec, BenchmarkPattern, ideal_target_field
from risbench.errors import (
    AllZeroField,
    ConfigError,
    ConfigMismatch,
    GridMismatch,
    GridMissingPlane,
    IoError,
    NonPositiveParam,
    SourceBelowSurface,
)
from risbench.field import (
    FieldEvaluator,
    FieldGrid,
    GridSpec,
    SourceModel,
    peak_magnitude,
    principal_columns,
    principal_cut,
    radiation_factor,
    read_field_csv,
    state_coefficients,
    steering_config,
    write_field_csv,
)
from risbench.surface import (
    ConfigMatrix,
    ReflectionState,
    UnitCellSpec,
    build_surface,
    load_unit_cell,
    uniform_config,
)


def ideal_cell(n_bits=1, phases=(0.0, 180.0), q=1.0, f_hz=10e9):
    states = tuple(ReflectionState(1.0, p) for p in phases)
    return UnitCellSpec(id="ideal", n_bits=n_bits, n_diodes=n_bits, states=states,
                        q_exponent=q, width_m=0.015, height_m=0.015,
                        design_freq_hz=f_hz)


PW = SourceModel.planewave()
GRID = GridSpec()


class TestRadiationFactor:
    def test_unity_at_broadside(self):
        assert radiation_factor(1.0, 0.0) == 1.0

    def test_cosine_at_60(self):
        assert np.isclose(radiation_factor(1.0, math.radians(60)), 0.5)

    def test_cube_root_at_60(self):
        assert np.isclose(radiation_factor(3.0, math.radians(60)), 0.5 ** (1 / 3))
        assert np.isclose(radiation_factor(3.0, math.radians(60)), 0.7937, atol=5e-5)

    def test_zero_behind(self):
        assert radiation_factor(2.0, math.radians(120)) == 0.0

    def test_infinite_q_rejected(self):
        # cos(theta)**(1/inf) is 1: an isotropic cell, not an error, unless checked
        with pytest.raises(NonPositiveParam):
            radiation_factor(math.inf, math.radians(60))


class TestGridSpec:
    def test_default_point_count(self):
        assert GridSpec().shape == (91, 360)
        assert GridSpec().n_points == 91 * 360
        assert GridSpec().sphere_points == 180 * 360

    @pytest.mark.parametrize("n_theta", [1, 2, 3, 7, 180, 181])
    def test_rows_are_the_front_hemisphere(self, n_theta):
        grid = GridSpec(theta_step_deg=180.0 / n_theta, phi_step_deg=90.0)
        assert grid.shape == (n_theta // 2 + 1, 4)
        assert grid.theta_deg().size == grid.shape[0]
        assert grid.theta_deg()[-1] <= 90.0 + 1e-9
        # the next row of the sphere grid lies behind the surface
        assert grid.shape[0] * grid.theta_step_deg > 90.0 + 1e-9
        assert grid.sphere_points == n_theta * 4

    @pytest.mark.parametrize("step", [math.inf, math.nan, 0.0, -1.0])
    def test_step_must_be_positive_and_finite(self, step):
        # span / inf is 0, a whole number, so the divisibility check alone
        # would accept an empty axis
        with pytest.raises(NonPositiveParam):
            GridSpec(theta_step_deg=step)
        with pytest.raises(NonPositiveParam):
            GridSpec(phi_step_deg=step)

    def test_step_must_divide_span(self):
        with pytest.raises(ConfigMismatch):
            GridSpec(theta_step_deg=7.0)
        # span / 1e300 rounds to 0 steps: an empty axis, not a grid
        with pytest.raises(ConfigMismatch):
            GridSpec(theta_step_deg=1e300)
        with pytest.raises(ConfigMismatch):
            GridSpec(phi_step_deg=1e300)

    def test_one_spelling_per_grid(self):
        # 180/7 typed to 15 significant digits names the same 7-row grid
        typed, exact = GridSpec(25.7142857142857, 10.0), GridSpec(180 / 7, 10.0)
        assert typed == exact
        assert hash(typed) == hash(exact)
        assert typed.theta_step_deg == 180 / 7

    def test_field_values_must_fill_the_grid(self):
        with pytest.raises(GridMismatch):
            FieldGrid(values=np.zeros((90, 360), dtype=complex), grid=GridSpec())
        with pytest.raises(GridMismatch):  # the full sphere is not the grid
            FieldGrid(values=np.zeros((180, 360), dtype=complex), grid=GridSpec())

    def test_every_layer_covers_the_front_rows(self):
        # At a step of 180/338 the theta = 90 row computes to just above 90,
        # where a "theta <= 90" test and a "90 / step" count part ways.
        surf, _ = build_surface(ideal_cell(), 2, 2)
        config = uniform_config(surf)
        bm = BenchmarkPattern(id="BX", beams=(BeamSpec(0.0, 1.0, -90.0, 90.0),))
        for n in range(2, 721, 2):
            grid = GridSpec(theta_step_deg=180.0 / n, phi_step_deg=90.0)
            rows = grid.shape[0]
            assert abs(grid.theta_deg()[rows - 1] - 90.0) < 1e-9, n
            evaluator = FieldEvaluator(surf, PW, grid)
            assert evaluator.front(config.states).size == rows * 4, n
            assert principal_cut(evaluator.field(config)).magnitude.size == 2 * rows - 1, n
            target = ideal_target_field(bm, grid)
            assert target.values.shape == (rows, 4), n
            cut = principal_cut(target)
            np.testing.assert_allclose(cut.magnitude, np.cos(np.radians(cut.signed_theta_deg)) ** 2,
                                       rtol=0.0, atol=1e-12, err_msg=str(n))


class TestPlanewave:
    def test_single_cell_unity(self):
        surf, _ = build_surface(ideal_cell(), 1, 1)
        fg = FieldEvaluator(surf, PW, GRID).field(uniform_config(surf))
        assert fg.values[0, 0] == 1.0 + 0.0j

    def test_half_wave_pair_broadside_and_null(self):
        surf, _ = build_surface(ideal_cell(), 1, 2)
        fg = FieldEvaluator(surf, PW, GRID).field(uniform_config(surf))
        assert abs(abs(fg.values[0, 0]) - 2.0) < 1e-12
        assert abs(fg.values[90, 0]) < 1e-12

    def test_uniform_broadside_is_cell_count(self):
        surf, _ = build_surface(ideal_cell(n_bits=2, phases=(0, 90, 180, 270)), 12, 9)
        fg = FieldEvaluator(surf, PW, GRID).field(uniform_config(surf))
        assert fg.values[0, 0] == complex(12 * 9)

    def test_back_hemisphere_zero(self):
        surf, _ = build_surface(ideal_cell(), 3, 3)
        fg = FieldEvaluator(surf, PW, GRID).field(uniform_config(surf))
        assert np.all(fg.values[91:] == 0.0)

    def test_linearity_in_amplitude(self):
        surf, _ = build_surface(ideal_cell(), 4, 4)
        cfg = steering_config(surf, 17.0)
        f1 = FieldEvaluator(surf, SourceModel.planewave(amplitude=1.0), GRID).field(cfg)
        f3 = FieldEvaluator(surf, SourceModel.planewave(amplitude=3.0), GRID).field(cfg)
        scale = np.abs(f1.values).max()
        np.testing.assert_allclose(f3.values, 3.0 * f1.values,
                                   rtol=1e-12, atol=1e-13 * scale)

    def test_global_phase_offset_leaves_magnitude(self):
        rng = np.random.default_rng(11)
        cfg = ConfigMatrix(states=rng.integers(0, 4, size=(8, 8)))
        base = ideal_cell(n_bits=2, phases=(0, 90, 180, 270))
        shifted = ideal_cell(n_bits=2, phases=(37, 127, 217, 307))
        s1, _ = build_surface(base, 8, 8)
        s2, _ = build_surface(shifted, 8, 8)
        m1 = np.abs(FieldEvaluator(s1, PW, GRID).field(cfg).values)
        m2 = np.abs(FieldEvaluator(s2, PW, GRID).field(cfg).values)
        assert np.max(np.abs(m1 - m2)) <= 1e-12 * m1.max()

    def test_oblique_incidence_moves_specular_beam(self):
        surf, _ = build_surface(ideal_cell(), 24, 24)
        src = SourceModel.planewave(theta_inc_deg=20.0, phi_inc_deg=0.0)
        fg = FieldEvaluator(surf, src, GRID).field(uniform_config(surf))
        cut = principal_cut(fg)
        peak = cut.signed_theta_deg[np.argmax(cut.magnitude)]
        assert abs(peak - (-20.0)) <= 1.0

    def test_config_shape_mismatch(self):
        surf, _ = build_surface(ideal_cell(), 2, 2)
        bad = ConfigMatrix(states=np.zeros((3, 2), dtype=np.int64))
        with pytest.raises(ConfigMismatch):
            FieldEvaluator(surf, PW, GRID).field(bad)

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf])
    def test_amplitude_must_be_finite(self, amplitude):
        with pytest.raises(NonPositiveParam):
            SourceModel.planewave(amplitude)

    @pytest.mark.parametrize("theta_inc, phi_inc", [(math.nan, 0.0), (0.0, math.inf)])
    def test_incidence_must_be_finite(self, theta_inc, phi_inc):
        with pytest.raises(ConfigError):
            SourceModel.planewave(1.0, theta_inc, phi_inc)

    @pytest.mark.parametrize("theta_inc", [90.0, 120.0, -10.0])
    def test_incidence_must_arrive_from_above(self, theta_inc):
        # At 90 deg cos(pi/2) is 6e-17, not 0, so the field would be noise.
        with pytest.raises(SourceBelowSurface):
            SourceModel.planewave(1.0, theta_inc, 0.0)


class TestPointSource:
    def test_single_cell_phase_wraps_to_unity(self):
        cell = ideal_cell(f_hz=299_792_458.0)  # wavelength exactly 1 m
        surf, _ = build_surface(cell, 1, 1)
        src = SourceModel.point((0.0, 0.0, 1.0), amplitude=1.0)
        fg = FieldEvaluator(surf, src, GRID).field(uniform_config(surf))
        assert np.isclose(fg.values[0, 0].real, 1.0, rtol=1e-12)
        assert np.isclose(abs(fg.values[0, 0]), 1.0, rtol=1e-12)

    def test_source_below_surface(self):
        with pytest.raises(SourceBelowSurface):
            SourceModel.point((0.0, 0.0, -1.0))
        with pytest.raises(SourceBelowSurface):
            SourceModel.point((0.0, 0.0, 0.0))

    @pytest.mark.parametrize("position", [
        (0.0, 0.0, math.nan), (0.0, 0.0, math.inf), (math.nan, 0.0, 0.1), (0.0, -math.inf, 0.1),
    ])
    def test_position_must_be_finite(self, position):
        # Rejected where the source is built (exit 2), not later as a
        # non-finite field (exit 3).
        with pytest.raises(ConfigError, match="must be finite") as info:
            SourceModel.point(position)
        assert info.value.exit_code == 2

    def test_inverse_distance_weighting(self):
        # A source high above a wide surface illuminates the center cell
        # more strongly than the corner; compare via two single-cell runs.
        cell = ideal_cell()
        lam = cell.wavelength_m
        near = SourceModel.point((0.0, 0.0, 5 * lam))
        surf, _ = build_surface(cell, 1, 1)
        far_off = SourceModel.point((20 * lam, 0.0, 5 * lam))
        cfg = uniform_config(surf)
        e_center = abs(FieldEvaluator(surf, near, GRID).field(cfg).values[0, 0])
        e_offset = abs(FieldEvaluator(surf, far_off, GRID).field(cfg).values[0, 0])
        assert e_offset < e_center

    def test_far_source_matches_planewave(self):
        cell = load_unit_cell("S0")
        surf, _ = build_surface(cell, 16, 16)
        cfg = steering_config(surf, 25.0)
        src = SourceModel.point((0.0, 0.0, 1e6 * cell.wavelength_m))
        fpt = FieldEvaluator(surf, src, GRID).field(cfg)
        fpw = FieldEvaluator(surf, PW, GRID).field(cfg)
        na = np.abs(fpt.values) / np.abs(fpt.values).max()
        nb = np.abs(fpw.values) / np.abs(fpw.values).max()
        assert np.max(np.abs(na - nb)) < 1e-3


def direct_sum_field(surf, config, src, grid):
    """E(theta, phi) summed cell by cell for each direction, from the model's
    definition: Gamma * cell factor * exp(jk(x u + y v)) * envelope."""
    cell = surf.cell
    k = 2.0 * math.pi / cell.wavelength_m
    q = cell.q_exponent
    xs = (np.arange(surf.cols_n) - (surf.cols_n - 1) / 2.0) * surf.pitch_m
    ys = (np.arange(surf.rows_m) - (surf.rows_m - 1) / 2.0) * surf.pitch_m
    x, y = np.meshgrid(xs, ys)  # (M, N)
    gamma = np.array([s.gamma_mag * np.exp(1j * math.radians(s.gamma_phase_deg))
                      for s in cell.states])[config.states]
    if src.kind == "planewave":
        ti, pi_ = (math.radians(a) for a in src.incidence_deg)
        weight = gamma * np.exp(1j * k * math.sin(ti) * (x * math.cos(pi_) + y * math.sin(pi_)))
        scale = src.amplitude * max(math.cos(ti), 0.0) ** (1.0 / q)
    else:
        px, py, pz = src.position_m
        r = np.sqrt((px - x) ** 2 + (py - y) ** 2 + pz ** 2)
        weight = gamma * (src.amplitude / r) * np.exp(-1j * k * r) * (pz / r) ** (1.0 / q)
        scale = 1.0
    values = np.zeros(grid.shape, dtype=complex)
    for i, theta in enumerate(np.radians(grid.theta_deg())):
        if math.cos(theta) < 0.0:
            break  # back hemisphere stays zero
        env = scale * math.cos(theta) ** (1.0 / q)
        for j, phi in enumerate(np.radians(grid.phi_deg())):
            u = math.sin(theta) * math.cos(phi)
            v = math.sin(theta) * math.sin(phi)
            values[i, j] = env * np.sum(weight * np.exp(1j * k * (x * u + y * v)))
    return values


FIDELITY_SOURCES = [
    SourceModel.point((0.011, -0.023, 0.09)),
    SourceModel.planewave(amplitude=2.0, theta_inc_deg=25.0, phi_inc_deg=40.0),
]


class TestFidelity:
    """The evaluator against a per-direction direct sum, to 1e-12 of the peak."""

    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 6), (1, 7), (4, 6), (5, 7), (6, 3),
                                            (2, 5), (3, 4), (7, 2)])
    @pytest.mark.parametrize("src", FIDELITY_SOURCES, ids=["point", "planewave_oblique"])
    @pytest.mark.parametrize("grid", [
        GridSpec(9.0, 8.0),     # 45 phi columns
        GridSpec(10.0, 12.0),   # 30 phi columns
        GridSpec(10.0, 10.0),   # 36 phi columns: phi = 90 pairs with itself
        GridSpec(45.0, 90.0),   # 4 phi columns: likewise
        GridSpec(30.0, 120.0),  # 3 phi columns
        GridSpec(30.0, 180.0),  # 2 phi columns
        GridSpec(45.0, 360.0),  # 1 phi column
    ], ids=lambda g: f"phi{g.shape[1]}")
    def test_field_matches_direct_sum(self, rows, cols, src, grid):
        assert_matches_direct_sum(rows, cols, src, grid)

    # The steering tables rotate up to 15 rows from each libm seed, so large
    # surfaces check that the rounding does not grow past the bound.
    @pytest.mark.parametrize("rows, cols", [(64, 64), (63, 65), (256, 256)])
    @pytest.mark.parametrize("src", FIDELITY_SOURCES, ids=["point", "planewave_oblique"])
    def test_large_surface_matches_direct_sum(self, rows, cols, src):
        assert_matches_direct_sum(rows, cols, src, GridSpec(10.0, 12.0))


def assert_matches_direct_sum(rows, cols, src, grid):
    cell = load_unit_cell("S3")
    surf, _ = build_surface(cell, rows, cols)
    rng = np.random.default_rng(rows * 10 + cols)
    cfg = ConfigMatrix(states=rng.integers(0, cell.n_states, size=(rows, cols)))
    got = FieldEvaluator(surf, src, grid).field(cfg).values
    want = direct_sum_field(surf, cfg, src, grid)
    peak = np.abs(want).max()
    assert peak > 0.0
    assert np.max(np.abs(got - want)) <= 1e-12 * peak


BLOCK_CASES = {
    "40x40_1deg": (40, 40, PW, GridSpec(1.0, 1.0)),
    "40x40_point_2deg": (40, 40, SourceModel.point((0.01, -0.02, 0.3)), GridSpec(2.0, 2.0)),
    "33x17_1.5deg": (33, 17, PW, GridSpec(1.5, 1.5)),
    "7x5_oblique_1deg": (7, 5, FIDELITY_SOURCES[1], GridSpec(1.0, 1.0)),
}


def random_evaluator(rows, cols, src, grid):
    surf, _ = build_surface(load_unit_cell("S3"), rows, cols)
    states = np.random.default_rng(rows * cols).integers(0, surf.cell.n_states, size=(rows, cols))
    return FieldEvaluator(surf, src, grid), states


class TestDirectionBlocks:
    """front takes its GEMM in blocks of directions; the blocks move no
    float32 bit and float64 results by far less than the kernel's tolerance."""

    @pytest.mark.parametrize("rows, cols, src, grid", BLOCK_CASES.values(), ids=BLOCK_CASES)
    def test_blocks_change_nothing(self, monkeypatch, rows, cols, src, grid):
        import risbench.field as field_mod

        ev, states = random_evaluator(rows, cols, src, grid)
        n_dir = ev._steer_x.shape[-1]
        assert n_dir > 2 * field_mod._GRANULE and n_dir % field_mod._GRANULE  # 3+ blocks, ragged
        results = []
        for bound in (1, 1 << 40):  # one granule per block, then one block
            monkeypatch.setattr(field_mod, "_BLOCK_BYTES", bound)
            results.append((ev.front(states), ev.astype(np.float32).front(states)))
        (blocked, blocked32), (whole, whole32) = results
        assert np.array_equal(blocked32, whole32)
        assert np.max(np.abs(blocked - whole)) <= 1e-15 * np.abs(whole).max()

    @pytest.mark.parametrize("dtype, limit_mb", [(np.float64, 6.0), (np.float32, 5.0)])
    def test_call_temporaries_are_bounded(self, dtype, limit_mb):
        # One unblocked call holds 12.8 MB in float64 and 6.4 MB in float32.
        ev, states = random_evaluator(*BLOCK_CASES["40x40_1deg"])
        ev = ev.astype(dtype)
        ev.front(states)
        tracemalloc.start()
        try:
            ev.front(states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 1e6


class TestStacks:
    """front on a (B, M, N) stack against one configuration at a time."""

    @pytest.mark.parametrize("bound", [1, 1 << 40], ids=["granule_blocks", "one_block"])
    @pytest.mark.parametrize("rows, cols, src, grid", BLOCK_CASES.values(), ids=BLOCK_CASES)
    def test_stack_matches_single_configurations(self, monkeypatch, rows, cols, src, grid,
                                                 bound):
        import risbench.field as field_mod

        monkeypatch.setattr(field_mod, "_BLOCK_BYTES", bound)
        ev, _ = random_evaluator(rows, cols, src, grid)
        stack = np.random.default_rng(rows + cols).integers(
            0, ev.surface.cell.n_states, size=(7, rows, cols))
        for dtype in (np.float64, np.float32):
            cast = ev.astype(dtype)
            single = np.array([cast.front(states) for states in stack])
            for size in (1, 2, 6, 7):
                got = cast.front(stack[:size])
                assert got.shape == (size, grid.n_points)
                # the float32 kernel's stated bound, 2.5e-7 of each field's peak
                err = np.abs(got - single[:size]).max(axis=1)
                assert np.all(err <= 2.5e-7 * np.abs(single[:size]).max(axis=1))
            if dtype is np.float64:
                assert np.array_equal(cast.front(stack[:1])[0], single[0])

    def test_stack_size_follows_the_block_bound(self):
        # One 1 deg configuration's GEMM output exceeds the bound, so the
        # 1 deg ranker takes one at a time; six fill a 2 deg granule block.
        assert random_evaluator(*BLOCK_CASES["40x40_1deg"])[0].astype(np.float32).stack_size == 1
        ev, _ = random_evaluator(*BLOCK_CASES["40x40_point_2deg"])
        assert ev.astype(np.float32).stack_size == 6
        assert ev.stack_size == 1  # float64: 2.7 MB over every direction

    def test_stack_temporaries_are_bounded(self):
        # One stack of the 40x40 2 deg ranker measures 2.9 MB, against 1.6 MB
        # for one configuration alone.
        ev, _ = random_evaluator(*BLOCK_CASES["40x40_point_2deg"])
        ranker = ev.astype(np.float32)
        stack = np.random.default_rng(0).integers(0, ev.surface.cell.n_states,
                                                  size=(ranker.stack_size, 40, 40))
        ranker.front(stack)
        tracemalloc.start()
        try:
            ranker.front(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.0 * 1e6


class TestPrincipalCut:
    def test_signed_axis_layout(self):
        surf, _ = build_surface(ideal_cell(), 4, 4)
        fg = FieldEvaluator(surf, PW, GRID).field(uniform_config(surf))
        cut = principal_cut(fg)
        assert cut.signed_theta_deg[0] == -90.0
        assert cut.signed_theta_deg[-1] == 90.0
        assert cut.signed_theta_deg.size == 181

    def test_values_come_from_named_columns(self):
        surf, _ = build_surface(ideal_cell(), 4, 4)
        fg = FieldEvaluator(surf, PW, GRID).field(steering_config(surf, 30.0))
        cut = principal_cut(fg)
        mags = np.abs(fg.values)
        i30 = np.nonzero(cut.signed_theta_deg == 30.0)[0][0]
        assert cut.magnitude[i30] == mags[30, 0]
        im30 = np.nonzero(cut.signed_theta_deg == -30.0)[0][0]
        assert cut.magnitude[im30] == mags[30, 180]
        i0 = np.nonzero(cut.signed_theta_deg == 0.0)[0][0]
        assert cut.magnitude[i0] == mags[0, 0]

    def test_symmetric_config_mirror(self):
        surf, _ = build_surface(ideal_cell(), 5, 5)
        fg = FieldEvaluator(surf, PW, GRID).field(uniform_config(surf))
        cut = principal_cut(fg)
        np.testing.assert_allclose(cut.magnitude, cut.magnitude[::-1], rtol=1e-10)

    @pytest.mark.parametrize("n_phi", [1, 2, 3, 4, 180, 337, 360])
    def test_principal_columns_from_the_column_count(self, n_phi):
        grid = GridSpec(theta_step_deg=10.0, phi_step_deg=360.0 / n_phi)
        if n_phi % 2:
            with pytest.raises(GridMissingPlane, match="phi = 180.0"):
                principal_columns(grid)
        else:
            col0, col180 = principal_columns(grid)
            assert (col0, col180) == (0, n_phi // 2)
            assert grid.phi_deg()[col0] == 0.0
            assert abs(grid.phi_deg()[col180] - 180.0) < 1e-9

    def test_grid_without_180_column(self):
        # phi step of 8 deg divides 360 but never lands on 180
        grid = GridSpec(theta_step_deg=4.0, phi_step_deg=8.0)
        fg = FieldGrid(values=np.zeros(grid.shape, dtype=complex), grid=grid)
        with pytest.raises(GridMissingPlane):
            principal_cut(fg)


class TestNormalize:
    # peak_magnitude is the scale every peak-normalized comparison divides by.
    def test_peak_becomes_one(self):
        surf, _ = build_surface(ideal_cell(), 4, 4)
        values = FieldEvaluator(surf, PW, GRID).field(uniform_config(surf)).values
        assert np.abs(values / peak_magnitude(values)).max() == 1.0

    def test_scale_invariance(self):
        surf, _ = build_surface(ideal_cell(), 4, 4)
        values = FieldEvaluator(surf, PW, GRID).field(steering_config(surf, 10.0)).values
        n1 = values / peak_magnitude(values)
        n2 = values * 4.0 / peak_magnitude(values * 4.0)
        assert np.array_equal(n1, n2)
        n3 = values * 5.0 / peak_magnitude(values * 5.0)
        np.testing.assert_allclose(n3, n1, rtol=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroField):
            peak_magnitude(np.zeros((180, 360), dtype=complex))


class TestSteeringConfig:
    def test_one_bit_uses_two_states(self):
        surf, _ = build_surface(ideal_cell(), 10, 10)
        cfg = steering_config(surf, 30.0)
        assert set(np.unique(cfg.states)) <= {0, 1}
        assert set(np.unique(cfg.states)) == {0, 1}

    def test_broadside_stays_uniform(self):
        surf, _ = build_surface(ideal_cell(n_bits=2, phases=(0, 90, 180, 270)), 6, 6)
        cfg = steering_config(surf, 0.0)
        assert np.all(cfg.states == 0)

    @pytest.mark.parametrize("theta, phi", [(math.nan, 0.0), (30.0, math.nan), (math.inf, 0.0)])
    def test_non_finite_angle_rejected(self, theta, phi):
        # argmin over NaN phase distances would put every cell in state 0.
        surf, _ = build_surface(ideal_cell(), 4, 4)
        with pytest.raises(ConfigError, match="must be finite"):
            steering_config(surf, theta, phi)

    def test_steered_beam_lands_near_request(self):
        cell = load_unit_cell("S0")
        surf, _ = build_surface(cell, 32, 32)
        fg = FieldEvaluator(surf, PW, GRID).field(steering_config(surf, 40.0))
        cut = principal_cut(fg)
        peak = cut.signed_theta_deg[np.argmax(cut.magnitude)]
        assert abs(peak - 40.0) <= 2.0


class TestStateCoefficients:
    def test_degrees_to_radians_boundary(self):
        surf, _ = build_surface(ideal_cell(n_bits=2, phases=(0, 90, 180, 270)), 1, 1)
        coeffs = state_coefficients(surf)
        np.testing.assert_allclose(coeffs, [1, 1j, -1, -1j], atol=1e-15)


def _back_of(grid: GridSpec, value: complex = 0j) -> np.ndarray:
    """``value`` at every point of the sphere's theta rows behind the surface."""
    n_back = grid.sphere_points // grid.shape[1] - grid.shape[0]
    return np.full((n_back, grid.shape[1]), value)


def _savetxt_oracle(fg: FieldGrid, path, back: np.ndarray | None = None) -> None:
    """``fg`` as np.savetxt writes it; with ``back``, the full theta 0..180
    sphere, ``back`` behind the surface, as files written before the
    front-only layout hold it."""
    values = fg.values if back is None else np.concatenate([fg.values, back])
    theta, phi = np.meshgrid(np.arange(len(values)) * fg.grid.theta_step_deg, fg.grid.phi_deg(),
                             indexing="ij")
    flat = values.ravel()
    table = np.column_stack([theta.ravel(), phi.ravel(), flat.real, flat.imag, np.abs(flat)])
    np.savetxt(path, table, fmt="%.9g,%.9g,%.9g,%.9g,%.9g",
               header="theta_deg,phi_deg,re,im,mag", comments="")


class TestFieldCsv:
    def test_round_trip(self, tmp_path):
        surf, _ = build_surface(ideal_cell(), 4, 4)
        fg = FieldEvaluator(surf, PW, GRID).field(steering_config(surf, 22.0))
        path = tmp_path / "pattern.csv"
        write_field_csv(fg, path)
        header = path.read_text().splitlines()[0]
        assert header == "theta_deg,phi_deg,re,im,mag"
        back = read_field_csv(path)
        assert back.grid == fg.grid
        np.testing.assert_allclose(back.values, fg.values, rtol=1e-8, atol=1e-8 * np.abs(fg.values).max())

    def test_bytes_match_savetxt(self, tmp_path):
        # 46 x 120 = 5520 rows, written one theta row of 120 at a time.
        grid = GridSpec(2.0, 3.0)
        rng = np.random.default_rng(7)
        values = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        values[0, :4] = [complex(-0.0, -0.0), complex(5e-324, -2.5e-310),
                         complex(1.5e300, -3e299), complex(-0.0, 123456789.5)]
        write_field_csv(FieldGrid(values=values, grid=grid), tmp_path / "pattern.csv")
        theta, phi = np.meshgrid(grid.theta_deg(), grid.phi_deg(), indexing="ij")
        flat = values.ravel()
        table = np.column_stack([theta.ravel(), phi.ravel(), flat.real, flat.imag, np.abs(flat)])
        np.savetxt(tmp_path / "oracle.csv", table, fmt="%.9g,%.9g,%.9g,%.9g,%.9g",
                   header="theta_deg,phi_deg,re,im,mag", comments="")
        assert (tmp_path / "pattern.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        assert b"-0,-0,0\n" in (tmp_path / "pattern.csv").read_bytes()

    def test_bytes_match_savetxt_on_zero_rows(self, tmp_path):
        # An all-zero row is formatted like any other, and a -0.0 prints "-0".
        surf, _ = build_surface(ideal_cell(), 40, 40)
        kernel = FieldEvaluator(surf, PW, GRID).field(steering_config(surf, 25.0, 10.0))
        odd = GridSpec(30.0, 40.0)  # 4 theta rows x 9 phi columns
        rng = np.random.default_rng(11)
        dense = rng.normal(size=odd.shape) + 1j * rng.normal(size=odd.shape)
        zero_row, neg_re, neg_im = dense.copy(), dense.copy(), dense.copy()
        zero_row[2] = 0.0
        neg_re[2], neg_re[2, 4] = 0.0, complex(-0.0, 0.0)
        neg_im[2], neg_im[2, 8] = 0.0, complex(0.0, -0.0)
        fields = [kernel, *(FieldGrid(values=v, grid=odd) for v in (dense, zero_row, neg_re, neg_im))]
        text = []
        for fg in fields:
            _savetxt_oracle(fg, tmp_path / "oracle.csv")
            write_field_csv(fg, tmp_path / "pattern.csv")
            text.append((tmp_path / "pattern.csv").read_text())
            assert (tmp_path / "pattern.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        assert "\n91,0," not in text[0] and text[0].splitlines()[-1].startswith("90,359,")
        assert "\n60,0,0,0,0\n60,40,0,0,0\n" in text[2]
        assert "\n60,160,-0,0,0\n" in text[3] and "\n60,320,0,-0,0\n" in text[4]

    def test_full_and_front_only_files_read_the_same(self, tmp_path):
        # Every file written before the front-only layout holds the full
        # grid, the bytes of the np.savetxt oracle.
        surf, _ = build_surface(ideal_cell(), 40, 40)
        fg = FieldEvaluator(surf, PW, GridSpec(2.0, 2.0)).field(steering_config(surf, 25.0, 10.0))
        _savetxt_oracle(fg, tmp_path / "full.csv", _back_of(fg.grid))
        write_field_csv(fg, tmp_path / "front.csv")
        full = (tmp_path / "full.csv").read_text().splitlines(keepends=True)
        assert (tmp_path / "front.csv").read_text() == "".join(full[: 1 + 46 * 180])
        old, new = read_field_csv(tmp_path / "full.csv"), read_field_csv(tmp_path / "front.csv")
        assert old.grid == new.grid == fg.grid
        assert old.values.tobytes() == new.values.tobytes()

    @pytest.mark.parametrize("value", [1e-300, complex(-0.0, 0.0), complex(0.0, -0.0)],
                             ids=["nonzero", "neg_zero_re", "neg_zero_im"])
    def test_back_not_all_positive_zero_is_written_in_full(self, tmp_path, value):
        # The name predates the front-hemisphere grid: the test writes a signed
        # value on the last row, theta = 90, the edge of the front hemisphere,
        # and checks the written bytes and the sign bits read back.
        surf, _ = build_surface(ideal_cell(), 8, 8)
        fg = FieldEvaluator(surf, PW, GridSpec(2.0, 2.0)).field(steering_config(surf, 25.0))
        values = fg.values.copy()
        values[-1, 7] = value
        fg = FieldGrid(values=values, grid=fg.grid)
        _savetxt_oracle(fg, tmp_path / "oracle.csv")
        write_field_csv(fg, tmp_path / "pattern.csv")
        assert (tmp_path / "pattern.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        back = read_field_csv(tmp_path / "pattern.csv").values[-1, 7]
        assert back == value
        assert np.signbit([back.real, back.imag]).tolist() == np.signbit([value.real, value.imag]).tolist()

    @pytest.mark.parametrize("zero", [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)],
                             ids=["pos", "neg_re", "neg_im", "neg_both"])
    def test_sphere_file_with_a_zero_back_reads_as_its_front(self, tmp_path, zero):
        surf, _ = build_surface(ideal_cell(), 8, 8)
        fg = FieldEvaluator(surf, PW, GridSpec(2.0, 2.0)).field(steering_config(surf, 25.0))
        _savetxt_oracle(fg, tmp_path / "sphere.csv", _back_of(fg.grid, zero))
        write_field_csv(fg, tmp_path / "front.csv")
        sphere, front = read_field_csv(tmp_path / "sphere.csv"), read_field_csv(tmp_path / "front.csv")
        assert sphere.grid == front.grid == fg.grid
        assert sphere.values.tobytes() == front.values.tobytes()

    @pytest.mark.parametrize("value", [complex(1e-300, 0.0), complex(-0.0, -2.5)], ids=["re", "im"])
    def test_non_zero_back_is_io_error(self, tmp_path, value):
        # Dropping the value would change the file's NMSE.
        surf, _ = build_surface(ideal_cell(), 8, 8)
        fg = FieldEvaluator(surf, PW, GridSpec(2.0, 2.0)).field(steering_config(surf, 25.0))
        back = _back_of(fg.grid)
        back[-1, 7] = value
        _savetxt_oracle(fg, tmp_path / "sphere.csv", back)
        with pytest.raises(IoError, match="non-zero value behind the surface"):
            read_field_csv(tmp_path / "sphere.csv")

    @pytest.mark.parametrize("theta_step, phi_step", [(180 / 7, 40.0), (180.0, 40.0), (90.0, 40.0),
                                                      (60.0, 40.0), (45.0, 40.0), (60.0, 360.0)])
    def test_front_only_round_trip(self, tmp_path, theta_step, phi_step):
        # Odd and even theta counts; 1 and 2 theta rows are all front rows.
        grid = GridSpec(theta_step, phi_step)
        rng = np.random.default_rng(4)
        values = (rng.integers(-999, 999, grid.shape)
                  + 1j * rng.integers(-999, 999, grid.shape)) / 8  # 9 digits hold these
        write_field_csv(FieldGrid(values=values, grid=grid), tmp_path / "pattern.csv")
        lines = (tmp_path / "pattern.csv").read_text().splitlines()
        assert len(lines) == 1 + grid.n_points
        back = read_field_csv(tmp_path / "pattern.csv")
        assert back.grid == grid
        assert back.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("kind", ["kernel_2deg", "dense_random"])
    def test_codec_is_a_fixed_point(self, tmp_path, kind):
        if kind == "kernel_2deg":
            surf, _ = build_surface(ideal_cell(), 40, 40)
            fg = FieldEvaluator(surf, PW, GridSpec(2.0, 2.0)).field(steering_config(surf, 25.0, 10.0))
        else:
            grid = GridSpec(2.0, 3.0)
            rng = np.random.default_rng(5)
            fg = FieldGrid(values=rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape),
                           grid=grid)
        paths = [tmp_path / f"pattern{i}.csv" for i in range(3)]
        write_field_csv(fg, paths[0])
        for src, dst in zip(paths, paths[1:]):
            write_field_csv(read_field_csv(src), dst)
        # mag is recomputed from the 9-digit re and im, so the first re-write
        # may change its last digit; from there on the bytes are fixed.
        first, second = (p.read_text().splitlines() for p in paths[:2])
        assert [r.rsplit(",", 1)[0] for r in first] == [r.rsplit(",", 1)[0] for r in second]
        assert paths[1].read_bytes() == paths[2].read_bytes()

    def test_row_count(self, tmp_path):
        surf, _ = build_surface(ideal_cell(), 2, 2)
        fg = FieldEvaluator(surf, PW, GRID).field(uniform_config(surf))
        path = tmp_path / "pattern.csv"
        write_field_csv(fg, path)
        assert len(path.read_text().splitlines()) == 91 * 360 + 1  # theta 0..90 only

    @pytest.mark.parametrize("thetas, phis", [
        (range(0, 90, 2), range(0, 360, 2)),     # theta 0..88: half the grid
        (range(1, 180, 2), range(0, 360, 2)),    # theta axis does not start at 0
        (range(0, 180, 2), [*range(0, 180, 2), *range(180, 360, 4)]),  # uneven phi
        (range(0, 122, 2), range(0, 360, 2)),    # theta 0..120: more than the front rows
        ([*range(0, 92, 2), 30], range(0, 360, 2)),  # the front rows, theta 30 twice
    ])
    def test_partial_or_uneven_grid_rejected(self, tmp_path, thetas, phis):
        path = tmp_path / "partial.csv"
        rows = [f"{t},{p},0,0,0" for t in thetas for p in phis]
        path.write_text("\n".join(["theta_deg,phi_deg,re,im,mag", *rows]) + "\n")
        with pytest.raises(IoError):
            read_field_csv(path)

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_file_is_io_error(self, tmp_path, kind):
        path = tmp_path / "pattern.csv"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b"theta_deg,phi_deg,re,im,mag\n0,0,\xff,0,0\n")
        with pytest.raises(IoError) as info:
            read_field_csv(path)
        assert info.value.exit_code == 4
        if kind == "missing":
            assert isinstance(info.value.__cause__, FileNotFoundError)

    @pytest.mark.parametrize("text", ["", "theta_deg,phi_deg,re,im,mag\n"],
                             ids=["empty", "header_only"])
    def test_no_rows_is_malformed(self, tmp_path, recwarn, text):
        path = tmp_path / "pattern.csv"
        path.write_text(text)
        with pytest.raises(IoError, match="malformed"):
            read_field_csv(path)
        assert not recwarn.list

    def test_shuffled_rows_read_the_same(self, tmp_path):
        surf, _ = build_surface(ideal_cell(), 4, 4)
        fg = FieldEvaluator(surf, PW, GridSpec(10.0, 12.0)).field(steering_config(surf, 22.0))
        path = tmp_path / "pattern.csv"
        write_field_csv(fg, path)
        header, *rows = path.read_text().splitlines()
        in_order = read_field_csv(path)
        np.random.default_rng(3).shuffle(rows)
        path.write_text("\n".join([header, *rows]) + "\n")
        back = read_field_csv(path)
        assert back.grid == in_order.grid
        assert np.array_equal(back.values, in_order.values)

    @pytest.mark.parametrize("column", [0, 1], ids=["theta", "phi"])
    @pytest.mark.parametrize("offset, ok", [(1e-7, True), (-1e-7, True),
                                            (1e-5, False), (-1e-5, False)])
    def test_angle_tolerance(self, tmp_path, column, offset, ok):
        # One row of a 6 x 4 grid moves off its point (60, 90) by ``offset`` degrees.
        grid = GridSpec(30.0, 90.0)
        rng = np.random.default_rng(2)
        fg = FieldGrid(values=rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape),
                       grid=grid)
        path = tmp_path / "pattern.csv"
        write_field_csv(fg, path)
        lines = path.read_text().splitlines()
        row = next(k for k, r in enumerate(lines) if r.startswith("60,90,"))
        fields = lines[row].split(",")
        fields[column] = repr(float(fields[column]) + offset)
        lines[row] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        if ok:
            back = read_field_csv(path)
            assert back.grid == grid
            np.testing.assert_allclose(back.values, fg.values, rtol=1e-8)
        else:
            with pytest.raises(IoError, match="exactly once"):
                read_field_csv(path)

    def test_phi_360_row_rejected(self, tmp_path):
        # The row count and the phi = 0 rows are intact; (60, 90) became (60, 360).
        surf, _ = build_surface(ideal_cell(), 4, 4)
        fg = FieldEvaluator(surf, PW, GridSpec(30.0, 90.0)).field(steering_config(surf, 22.0))
        path = tmp_path / "pattern.csv"
        write_field_csv(fg, path)
        text = path.read_text()
        assert "\n60,90," in text
        path.write_text(text.replace("\n60,90,", "\n60,360,"))
        with pytest.raises(IoError, match="exactly once"):
            read_field_csv(path)

    def test_duplicated_row_rejected(self, tmp_path):
        # Every theta and phi value still appears and the row count is right,
        # but one grid point is missing and another appears twice.
        surf, _ = build_surface(ideal_cell(), 4, 4)
        fg = FieldEvaluator(surf, PW, GridSpec(30.0, 90.0)).field(steering_config(surf, 22.0))
        path = tmp_path / "pattern.csv"
        write_field_csv(fg, path)
        lines = path.read_text().splitlines()
        lines[5] = lines[9]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IoError):
            read_field_csv(path)
