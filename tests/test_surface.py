import gzip
import json

import numpy as np
import pytest

from risbench.errors import (
    ConfigParseError,
    GroupSizeMismatch,
    InvalidGamma,
    InvalidStateCount,
    InvalidStateIndex,
    LengthMismatch,
    NonPositiveParam,
)
from risbench.surface import (
    SPEED_OF_LIGHT,
    ReflectionState,
    SurfaceSpec,
    UnitCellSpec,
    build_surface,
    expand_groups,
    load_unit_cell,
    read_config_csv,
    read_json_document,
    surface_from_document,
    uniform_config,
)


def make_cell(n_bits=1, n_diodes=1, states=None, q=1.0, f_hz=11.1e9):
    if states is None:
        states = (ReflectionState(0.95, 0.0), ReflectionState(0.92, 180.0))
    return UnitCellSpec(id="test", n_bits=n_bits, n_diodes=n_diodes, states=states,
                        q_exponent=q, width_m=5.8e-3, height_m=4.9e-3,
                        design_freq_hz=f_hz)


def make_surface(rows_m, cols_n, group_size, cell=None):
    return SurfaceSpec(cell or make_cell(), rows_m, cols_n, 0.01, group_size)


class TestValidateUnitCell:
    # UnitCellSpec checks itself when built.
    def test_table_row_s1_is_valid(self):
        cell = make_cell()
        assert (cell.n_bits, cell.n_diodes, cell.n_states) == (1, 1, 2)

    def test_wrong_state_count(self):
        states = (ReflectionState(0.9, 0.0), ReflectionState(0.9, 90.0),
                  ReflectionState(0.9, 180.0))
        with pytest.raises(InvalidStateCount):
            make_cell(n_bits=2, n_diodes=2, states=states)

    def test_gamma_above_one(self):
        states = (ReflectionState(1.2, 0.0), ReflectionState(0.9, 180.0))
        with pytest.raises(InvalidGamma):
            make_cell(states=states)

    def test_gamma_zero(self):
        states = (ReflectionState(0.0, 0.0), ReflectionState(0.9, 180.0))
        with pytest.raises(InvalidGamma):
            make_cell(states=states)

    def test_phase_out_of_range(self):
        states = (ReflectionState(0.9, 0.0), ReflectionState(0.9, 360.0))
        with pytest.raises(InvalidGamma):
            make_cell(states=states)

    def test_nonpositive_q(self):
        for q in (0.0, np.nan, np.inf):  # nan and inf pass a `q <= 0` test
            with pytest.raises(NonPositiveParam, match="^test: q_exponent"):
                make_cell(q=q)

    def test_diodes_fewer_than_bits(self):
        states = tuple(ReflectionState(0.9, 90.0 * i) for i in range(4))
        with pytest.raises(NonPositiveParam):
            make_cell(n_bits=2, n_diodes=1, states=states)


class TestBuildSurface:
    def test_40x40_defaults(self):
        surf, _ = build_surface(make_cell(), 40, 40, 1)
        assert surf.n_cells == 1600
        assert np.isclose(surf.pitch_m, SPEED_OF_LIGHT / (2 * 11.1e9))
        assert np.isclose(surf.pitch_m * 1e3, 13.5042, atol=1e-3)
        assert surf.n_groups == 1600

    def test_single_group_covers_all(self):
        surf, group_ids = build_surface(make_cell(), 2, 2, 4)
        assert surf.n_groups == 1
        assert np.all(group_ids == 0)

    def test_group_size_mismatch(self):
        with pytest.raises(GroupSizeMismatch):
            build_surface(make_cell(), 3, 3, 2)

    @pytest.mark.parametrize("pitch_m", [np.nan, np.inf])
    def test_pitch_must_be_finite(self, pitch_m):
        with pytest.raises(NonPositiveParam):
            build_surface(make_cell(), 2, 2, 1, pitch_m=pitch_m)

    @pytest.mark.parametrize("rows_m, pitch_m, group_size, error", [
        (0, 0.01, 1, NonPositiveParam),
        (2, np.nan, 1, NonPositiveParam),
        (2, np.inf, 1, NonPositiveParam),
        (3, 0.01, 2, GroupSizeMismatch),  # 3 x 3 cells
    ])
    def test_surface_spec_checks_itself(self, rows_m, pitch_m, group_size, error):
        with pytest.raises(error):
            SurfaceSpec(make_cell(), rows_m, 3, pitch_m, group_size)

    def test_positions_symmetric_about_origin(self):
        import math

        surf, _ = build_surface(make_cell(), 7, 12, 1)
        x, y = surf.cell_x(), surf.cell_y()
        # mirror cells cancel exactly, so the correctly rounded sum is 0; the
        # folded field kernel relies on x[N-1-n] = -x[n] and y[M-1-m] = -y[m]
        assert math.fsum(x) == 0.0
        assert math.fsum(y) == 0.0
        assert np.array_equal(x, -x[::-1])
        assert np.array_equal(y, -y[::-1])

    def test_position_formula(self):
        surf, _ = build_surface(make_cell(), 2, 3, 1, pitch_m=0.01)
        # cell (m, n) at ((n - 1) * p, (m - 0.5) * p, 0)
        x, y = surf.cell_x(), surf.cell_y()
        assert np.allclose([x[0], y[0]], [-0.01, -0.005])
        assert np.allclose([x[2], y[1]], [0.01, 0.005])


class TestGrouping:
    def test_identity_mapping(self):
        cfg = expand_groups([0, 1, 1, 0], make_surface(2, 2, 1))
        assert np.array_equal(cfg.states, [[0, 1], [1, 0]])

    def test_row_major_pairs(self):
        cfg = expand_groups([0, 1], make_surface(2, 2, 2))
        assert np.array_equal(cfg.states, [[0, 0], [1, 1]])

    def test_each_group_constant(self):
        states = tuple(ReflectionState(0.9, 90.0 * i) for i in range(4))
        surf = make_surface(4, 6, 3, make_cell(n_bits=2, n_diodes=2, states=states))
        rng = np.random.default_rng(3)
        genes = rng.integers(0, 4, size=surf.n_groups)
        cfg = expand_groups(genes, surf)
        for g in range(surf.n_groups):
            vals = cfg.states[surf.group_ids() == g]
            assert vals.size == 3
            assert np.all(vals == vals[0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            expand_groups([0, 1, 1], make_surface(2, 2, 2))

    def test_invalid_state_index(self):
        with pytest.raises(InvalidStateIndex):
            expand_groups([0, 4, 0, 0], make_surface(2, 2, 1))


class TestJsonIngest:
    @pytest.mark.parametrize("cid,n_bits,n_states", [
        ("S0", 2, 4), ("S1", 1, 2), ("S2", 1, 2), ("S3", 2, 4),
        ("S4", 2, 4), ("S5", 1, 2),
    ])
    def test_bundled_cells_load(self, cid, n_bits, n_states):
        cell = load_unit_cell(cid)
        assert cell.id == cid
        assert cell.n_bits == n_bits
        assert cell.n_states == n_states

    def test_s5_states(self):
        cell = load_unit_cell("S5")
        assert cell.states[0] == ReflectionState(0.92, 0.0)
        assert cell.states[1] == ReflectionState(0.94, 50.0)

    def test_s0_is_ideal(self):
        cell = load_unit_cell("S0")
        assert all(s.gamma_mag == 1.0 for s in cell.states)
        phases = [s.gamma_phase_deg for s in cell.states]
        assert phases == [0.0, 90.0, 180.0, 270.0]
        assert cell.q_exponent == 1.0

    def test_missing_file(self):
        with pytest.raises(ConfigParseError):
            load_unit_cell("no/such/cell.json")

    def test_surface_document_roundtrip(self, tmp_path):
        doc = {"cell_id": "S2", "M": 8, "N": 10, "G": 2, "pitch_mm": 17.0}
        path = tmp_path / "surf.json"
        path.write_text(json.dumps(doc))
        surf = surface_from_document(read_json_document(path, "surface spec"), path)
        assert (surf.rows_m, surf.cols_n, surf.group_size) == (8, 10, 2)
        assert surf.pitch_m == 17.0e-3
        assert surf.cell.id == "S2"
        assert surf.n_groups == 40

    def test_config_immutable(self):
        surf, _ = build_surface(make_cell(), 2, 2, 1)
        cfg = uniform_config(surf)
        with pytest.raises(ValueError):
            cfg.states[0, 0] = 1


class TestConfigCsv:
    @pytest.mark.parametrize("kind", ["missing", "gz_beside", "directory", "not_utf8"])
    def test_unreadable_file_is_parse_error(self, tmp_path, kind):
        # A missing file is not looked for under another name: numpy alone
        # would read a config.csv.gz in its place.
        path = tmp_path / "config.csv"
        if kind == "gz_beside":
            (tmp_path / "config.csv.gz").write_bytes(gzip.compress(b"0,1\n1,0\n"))
        elif kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b"0,1\n\xff,0\n")
        with pytest.raises(ConfigParseError) as info:
            read_config_csv(path)
        assert info.value.exit_code == 2
        if kind in ("missing", "gz_beside"):
            assert isinstance(info.value.__cause__, FileNotFoundError)
