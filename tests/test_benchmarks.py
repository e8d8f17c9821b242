import dataclasses
import json

import numpy as np
import pytest

from risbench.benchmarks import (
    BUNDLED_BENCHMARK_IDS,
    BeamSpec,
    BenchmarkPattern,
    ideal_target_field,
    load_benchmark,
    reference_pattern,
)
from risbench.errors import (ConfigMismatch, ConfigParseError, OverlappingLobes,
                             UnknownBenchmark)
from risbench.field import FieldEvaluator, GridSpec, SourceModel, principal_cut
from risbench.ga import SEARCH_REVISION, GAParams, run_ga
from risbench.surface import build_surface, load_unit_cell, read_config_csv

EXPECTED_BEAM_COUNTS = {"B1": 1, "B2": 1, "B3": 2, "B4": 3,
                        "B5": 4, "B6": 4, "B7": 8, "B8": 4}


class TestLoadBenchmark:
    @pytest.mark.parametrize("bid", BUNDLED_BENCHMARK_IDS)
    def test_bundled_beam_counts(self, bid):
        bm = load_benchmark(bid)
        assert len(bm.beams) == EXPECTED_BEAM_COUNTS[bid]

    def test_equal_power_sets(self):
        for bid in ("B5", "B6", "B7"):
            amps = {b.rel_amplitude for b in load_benchmark(bid).beams}
            assert amps == {1.0}

    def test_b8_unequal_powers(self):
        amps = sorted(b.rel_amplitude for b in load_benchmark("B8").beams)
        assert len(set(amps)) == 4
        assert max(amps) == 1.0

    def test_b2_steers_below_40(self):
        bm = load_benchmark("B2")
        assert all(abs(b.signed_theta_deg) < 40.0 for b in bm.beams)

    def test_unknown_id(self):
        with pytest.raises(UnknownBenchmark):
            load_benchmark("B9")

    def test_overlapping_lobes_rejected(self, tmp_path):
        doc = {"id": "bad", "beams": [
            {"theta_deg": 10.0, "amplitude": 1.0, "start_deg": 7.0, "end_deg": 13.0},
            {"theta_deg": 12.0, "amplitude": 1.0, "start_deg": 9.0, "end_deg": 15.0},
        ]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(OverlappingLobes):
            load_benchmark(path)

    def test_custom_file_loads(self, tmp_path):
        doc = {"id": "mine", "beams": [
            {"theta_deg": -12.0, "amplitude": 0.8, "start_deg": -16.0, "end_deg": -8.0},
        ]}
        path = tmp_path / "mine.json"
        path.write_text(json.dumps(doc))
        bm = load_benchmark(path)
        assert bm.id == "mine"
        assert bm.beams[0].rel_amplitude == 0.8

    def test_beam_outside_bounds_rejected(self):
        with pytest.raises(ConfigParseError):
            BeamSpec(signed_theta_deg=30.0, rel_amplitude=1.0,
                     lobe_start_deg=31.0, lobe_end_deg=35.0)


class TestIdealTargetField:
    def test_peak_is_exactly_one(self):
        for bid in BUNDLED_BENCHMARK_IDS:
            fg = ideal_target_field(load_benchmark(bid))
            assert np.abs(fg.values).max() == 1.0

    def test_beam_centers_hit_relative_amplitude(self):
        bm = load_benchmark("B8")
        fg = ideal_target_field(bm)
        cut = principal_cut(fg)
        for beam in bm.beams:
            i = np.nonzero(cut.signed_theta_deg == beam.signed_theta_deg)[0][0]
            assert np.isclose(cut.magnitude[i], beam.rel_amplitude)

    def test_zero_outside_lobes(self):
        bm = load_benchmark("B1")
        fg = ideal_target_field(bm)
        mags = np.abs(fg.values)
        theta = fg.grid.theta_deg().astype(int)
        phi = fg.grid.phi_deg().astype(int)
        in_span = (theta >= 27) & (theta <= 33)
        in_band = np.minimum(phi % 360, 360 - phi % 360) <= 5
        inside = in_span[:, None] & in_band[None, :]
        assert mags[~inside].max() == 0.0
        assert mags[inside].max() == 1.0

    def test_band_tapers_to_zero(self):
        fg = ideal_target_field(load_benchmark("B1"))
        mags = np.abs(fg.values)
        assert mags[30, 0] == 1.0
        assert mags[30, 1] < mags[30, 0]
        assert mags[30, 5] < 1e-30  # cos(pi/2)^2 at the band edge

    def test_band_is_symmetric_about_its_plane(self):
        # On a step of 360/2808 the 355 degree column lies 5.000000000000057
        # degrees from 0; the band still holds 39 columns on either side.
        fg = ideal_target_field(load_benchmark("B1"), GridSpec(1.0, 360.0 / 2808))
        cols = np.nonzero(fg.values[30])[0]
        assert cols.size == 79
        assert set(cols) == {(-c) % 2808 for c in cols}

    def test_single_connected_region_in_cut(self):
        cut = principal_cut(ideal_target_field(load_benchmark("B1")))
        nz = np.nonzero(cut.magnitude > 0)[0]
        assert nz.size > 0
        assert np.all(np.diff(nz) == 1)

    def test_every_lobe_needs_a_theta_sample(self):
        # A 10 deg grid samples -30 in [-33, -27] but nothing in [12, 18].
        sampled = BeamSpec(-30.0, 1.0, -33.0, -27.0)
        unsampled = BeamSpec(15.0, 1.0, 12.0, 18.0)
        grid = GridSpec(10.0, 10.0)
        bm = BenchmarkPattern(id="custom", beams=(sampled, unsampled))
        with pytest.raises(ConfigMismatch, match=r"lobe \[12.0, 18.0\]"):
            ideal_target_field(bm, grid)
        fg = ideal_target_field(BenchmarkPattern(id="custom", beams=(sampled,)), grid)
        assert np.abs(fg.values).max() == 1.0
        # phi = 0, 120 and 240: no column within the band of the phi = 180 plane
        with pytest.raises(ConfigMismatch, match=r"lobe \[-33.0, -27.0\]"):
            ideal_target_field(BenchmarkPattern(id="custom", beams=(sampled,)),
                               GridSpec(10.0, 120.0))

    def test_back_hemisphere_zero(self):
        # The grid stops at theta = 90: the back is zero by holding no rows.
        fg = ideal_target_field(load_benchmark("B7"))
        assert fg.values.shape == (91, 360)
        assert fg.grid.theta_deg()[-1] == 90.0


class TestReferenceUnitCell:
    def test_four_ideal_states(self):
        cell = load_unit_cell("S0")
        assert cell.n_states == 4
        assert all(s.gamma_mag == 1.0 for s in cell.states)

    def test_consecutive_gaps_are_90(self):
        phases = [s.gamma_phase_deg for s in load_unit_cell("S0").states]
        gaps = np.diff(phases)
        assert np.all(gaps == 90.0)

    def test_cosine_envelope(self):
        assert load_unit_cell("S0").q_exponent == 1.0


TINY_GA = GAParams(population=8, generations=3, seed=7)
PW = SourceModel.planewave()


class TestReferencePattern:
    def test_cache_determinism(self, tmp_path):
        bm = load_benchmark("B1")
        f1, c1 = reference_pattern(bm, PW, seed=7, ga_params=TINY_GA, cache_dir=tmp_path)
        f2, c2 = reference_pattern(bm, PW, seed=7, ga_params=TINY_GA, cache_dir=tmp_path)
        assert np.array_equal(f1.values, f2.values)
        assert np.array_equal(c1.states, c2.states)
        files = sorted(p.name for p in (tmp_path / "ref").glob("*.config.csv"))
        assert len(files) == 1

    def test_distinct_seeds_persist_separately(self, tmp_path):
        bm = load_benchmark("B1")
        reference_pattern(bm, PW, seed=7, ga_params=TINY_GA, cache_dir=tmp_path)
        other = GAParams(population=8, generations=3, seed=8)
        reference_pattern(bm, PW, seed=8, ga_params=other, cache_dir=tmp_path)
        files = sorted(p.name for p in (tmp_path / "ref").glob("*.config.csv"))
        assert len(files) == 2
        assert any("_7_" in f for f in files)
        assert any("_8_" in f for f in files)

    def test_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RISBENCH_CACHE_DIR", str(tmp_path / "envcache"))
        bm = load_benchmark("B2")
        reference_pattern(bm, PW, seed=7, ga_params=TINY_GA)
        assert (tmp_path / "envcache" / "ref").is_dir()

    def test_seed_mismatch_rejected(self, tmp_path):
        bm = load_benchmark("B1")
        with pytest.raises(ConfigParseError):
            reference_pattern(bm, PW, seed=9, ga_params=TINY_GA, cache_dir=tmp_path)

    def test_config_is_40x40(self, tmp_path):
        bm = load_benchmark("B3")
        _, cfg = reference_pattern(bm, PW, seed=7, ga_params=TINY_GA, cache_dir=tmp_path)
        assert cfg.states.shape == (40, 40)

    def test_same_id_different_beams_cached_separately(self, tmp_path):
        beams = ({"theta_deg": 20.0, "amplitude": 1.0, "start_deg": 14.0, "end_deg": 26.0},
                 {"theta_deg": -40.0, "amplitude": 1.0, "start_deg": -46.0, "end_deg": -34.0})
        for i, beam in enumerate(beams):
            path = tmp_path / f"bx{i}.json"
            path.write_text(json.dumps({"id": "BX", "beams": [beam]}))
            bm = load_benchmark(path)
            shared, _ = reference_pattern(bm, PW, seed=7, ga_params=TINY_GA,
                                          cache_dir=tmp_path / "shared")
            alone, _ = reference_pattern(bm, PW, seed=7, ga_params=TINY_GA,
                                         cache_dir=tmp_path / f"alone{i}")
            assert np.array_equal(shared.values, alone.values)
        assert len(list((tmp_path / "shared" / "ref").glob("*.config.csv"))) == 2

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(GAParams) if f.name != "seed"])
    def test_every_ga_parameter_keys_the_cache(self, tmp_path, name):
        changed = {"population": 9, "generations": 4}
        bm = load_benchmark("B1")
        grid = GridSpec(theta_step_deg=5.0, phi_step_deg=5.0)
        for params in (TINY_GA, dataclasses.replace(TINY_GA, **{name: changed[name]})):
            reference_pattern(bm, PW, seed=7, ga_params=params, grid=grid, cache_dir=tmp_path)
        assert len(list((tmp_path / "ref").glob("*.config.csv"))) == 2

    def test_entry_of_another_search_revision_is_a_miss(self, tmp_path, monkeypatch):
        bm = load_benchmark("B1")
        grid = GridSpec(theta_step_deg=5.0, phi_step_deg=5.0)
        monkeypatch.setattr("risbench.benchmarks.SEARCH_REVISION", SEARCH_REVISION - 1)
        reference_pattern(bm, PW, seed=7, ga_params=TINY_GA, grid=grid, cache_dir=tmp_path)
        monkeypatch.undo()

        runs = []
        monkeypatch.setattr("risbench.benchmarks.run_ga",
                            lambda *args: runs.append(1) or run_ga(*args))
        for _ in range(2):
            reference_pattern(bm, PW, seed=7, ga_params=TINY_GA, grid=grid, cache_dir=tmp_path)
        assert len(runs) == 1  # the older revision's entry missed, the current one hit
        assert len(list((tmp_path / "ref").glob("*.config.csv"))) == 2

    @pytest.mark.parametrize("corrupt", ["config", "empty"])
    def test_unreadable_entry_is_recomputed(self, tmp_path, corrupt):
        bm = load_benchmark("B1")
        f1, c1 = reference_pattern(bm, PW, seed=7, ga_params=TINY_GA, cache_dir=tmp_path)
        path = next((tmp_path / "ref").glob("*.config.csv"))
        intact = path.read_bytes()
        # a config cell that is not an integer, or no rows at all
        path.write_text({"config": "0,a\n", "empty": ""}[corrupt])
        f2, c2 = reference_pattern(bm, PW, seed=7, ga_params=TINY_GA, cache_dir=tmp_path)
        assert np.array_equal(f1.values, f2.values)
        assert np.array_equal(c1.states, c2.states)
        assert path.read_bytes() == intact

    def test_stale_field_csv_is_ignored(self, tmp_path, monkeypatch):
        # Earlier versions also cached the field as <stem>.csv; a truncated one
        # next to a valid config neither breaks the hit nor changes its result.
        bm = load_benchmark("B1")
        f1, c1 = reference_pattern(bm, PW, seed=7, ga_params=TINY_GA, cache_dir=tmp_path)
        config_path = next((tmp_path / "ref").glob("*.config.csv"))
        stale = config_path.with_name(config_path.name.replace(".config.csv", ".csv"))
        stale.write_text("theta_deg,phi_deg,re,im,mag\n0,0,1,0,1\n")

        def no_ga(*args, **kwargs):
            raise AssertionError("a cache hit ran the GA")

        monkeypatch.setattr("risbench.benchmarks.run_ga", no_ga)
        f2, c2 = reference_pattern(bm, PW, seed=7, ga_params=TINY_GA, cache_dir=tmp_path)
        assert np.array_equal(f1.values, f2.values)
        assert np.array_equal(c1.states, c2.states)

    def test_entry_is_one_config_and_field_follows_from_it(self, tmp_path):
        bm = load_benchmark("B2")
        grid = GridSpec(theta_step_deg=3.0, phi_step_deg=3.0)
        field, config = reference_pattern(bm, PW, seed=7, ga_params=TINY_GA, grid=grid,
                                          cache_dir=tmp_path)
        files = list((tmp_path / "ref").iterdir())
        assert len(files) == 1 and files[0].name.endswith(".config.csv")
        cached = read_config_csv(files[0])
        assert np.array_equal(config.states, cached.states)
        surface, _ = build_surface(load_unit_cell("S0"), 40, 40, 1)
        expected = FieldEvaluator(surface, PW, grid).field(cached)
        assert field.grid == grid
        assert np.array_equal(field.values, expected.values)
