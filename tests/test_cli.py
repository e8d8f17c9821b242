import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import risbench
from risbench.cli import main, write_config_ppm
from risbench.surface import ConfigMatrix

SRC_DIR = str(Path(risbench.__file__).resolve().parent.parent)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def fresh_process(args, **env):
    """Run ``python args...`` on this source tree with no BLAS thread limit set."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env={**base, **env},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _write(tmp, name, text):
    (tmp / name).write_text(text)
    return str(tmp / name)


BEAM = {"theta_deg": 20.0, "amplitude": 1.0, "start_deg": 14.0, "end_deg": 26.0}
CELL = {"id": "S9", "n_bits": 1, "n_diodes": 1, "q": 3.0, "width_mm": 5.8, "height_mm": 4.9,
        "freq_ghz": 11.1, "states": [{"mag": 0.95, "phase_deg": 0.0},
                                     {"mag": 0.92, "phase_deg": 180.0}]}


def _cell(doc, tmp, **edit):
    doc["surface_ref"] = _write(tmp, "cell.json", json.dumps({**CELL, **edit}))


def _surface(doc, tmp, **edit):
    """A surface document sets M, N and G only where the run config does not."""
    for key in ("rows", "cols", "group_size"):
        del doc[key]
    surf = {"cell_id": "S1", "M": 6, "N": 6, **edit}
    doc["surface_ref"] = _write(tmp, "surf.json", json.dumps(surf))


def _beam(doc, tmp, **edit):
    bm = {"id": "mine", "beams": [{**BEAM, **edit}]}
    doc["benchmark_ref"] = _write(tmp, "bm.json", json.dumps(bm))


def _lobe_between_samples(doc, tmp):
    """The benchmark's only lobe, [12, 18] deg, holds no theta of a 10 deg grid."""
    _beam(doc, tmp, theta_deg=15.0, start_deg=12.0, end_deg=18.0)
    doc["grid"]["theta_step_deg"] = 10.0


def _one_lobe_between_samples(doc, tmp):
    """Of the lobes [12, 18] and [-33, -27] deg, a 10 deg grid samples only the second."""
    beams = [{**BEAM, "theta_deg": 15.0, "start_deg": 12.0, "end_deg": 18.0},
             {**BEAM, "theta_deg": -30.0, "start_deg": -33.0, "end_deg": -27.0}]
    doc["benchmark_ref"] = _write(tmp, "bm.json", json.dumps({"id": "mine", "beams": beams}))
    doc["grid"]["theta_step_deg"] = 10.0


# Run configs that must stop with a configuration error (exit 2) before any
# output: (subcommand, edit of the valid run-config document).
BAD_CONFIGS = {
    "surfce_ref": ("simulate", lambda doc, tmp: doc.update(surfce_ref="S1")),
    "ga.generation": ("simulate", lambda doc, tmp: doc["ga"].update(generation=2)),
    "grid.theta_step": ("simulate", lambda doc, tmp: doc["grid"].update(theta_step=2.0)),
    "source.incidence": ("simulate", lambda doc, tmp: doc["source"].update(incidence=[9, 0])),
    "control.pins": ("simulate", lambda doc, tmp: doc.update(control={"pins": 8})),
    "source_not_object": ("simulate", lambda doc, tmp: doc.update(source="planewave")),
    "incidence_three_angles": (
        "simulate", lambda doc, tmp: doc["source"].update(incidence_deg=[9, 0, 0])),
    "incidence_grazing": (
        "optimize", lambda doc, tmp: doc["source"].update(incidence_deg=[90, 0])),
    "incidence_behind": (
        "simulate", lambda doc, tmp: doc["source"].update(incidence_deg=[120, 0])),
    "population_not_int": ("simulate", lambda doc, tmp: doc["ga"].update(population="x")),
    "rows_not_int": ("simulate", lambda doc, tmp: doc.update(rows="abc")),
    "rows_fraction": ("simulate", lambda doc, tmp: doc.update(rows=6.9)),
    "cols_bool": ("simulate", lambda doc, tmp: doc.update(cols=True)),
    "ga.generations_fraction": ("simulate", lambda doc, tmp: doc["ga"].update(generations=2.5)),
    "ga.seed_bool": ("simulate", lambda doc, tmp: doc["ga"].update(seed=True)),
    "ga.seed_negative": ("optimize", lambda doc, tmp: doc["ga"].update(seed=-1)),
    "ga.tournament_size_above_population": (
        "optimize", lambda doc, tmp: doc["ga"].update(tournament_size=100_000_000)),
    "control.pins_k_fraction": ("simulate", lambda doc, tmp: doc.update(control={"pins_k": 8.5})),
    "grid.theta_step_bool": (
        "simulate", lambda doc, tmp: doc["grid"].update(theta_step_deg=True)),
    "pitch_mm_string": ("simulate", lambda doc, tmp: doc.update(pitch_mm="12")),
    "steer_deg_bool": ("simulate", lambda doc, tmp: doc.update(steer_deg=True)),
    "source.amplitude_nan_string": (
        "simulate", lambda doc, tmp: doc["source"].update(amplitude="nan")),
    "source.amplitude_nan_literal": (  # json.dumps writes a bare NaN
        "simulate", lambda doc, tmp: doc["source"].update(amplitude=float("nan"))),
    "source.amplitude_overflows": (  # an integer too large for a float
        "simulate", lambda doc, tmp: doc["source"].update(amplitude=10 ** 400)),
    "source.position_strings": ("simulate", lambda doc, tmp: doc["source"].update(
        kind="point", position_m=["0", "0", "1"])),
    "truncated_benchmark": ("optimize", lambda doc, tmp: doc.update(
        benchmark_ref=_write(tmp, "bm.json", json.dumps({"id": "mine", "beams": [BEAM]})[:-9]))),
    "truncated_cell": ("simulate", lambda doc, tmp: doc.update(
        surface_ref=_write(tmp, "cell.json", '{"id": "S9", "n_bits": 1, "st'))),
    "benchmark_id_escapes_cache": ("optimize", lambda doc, tmp: doc.update(
        benchmark_ref=_write(tmp, "esc.json", json.dumps({"id": "../escaped", "beams": [BEAM]})))),
    "cell.n_bits_fraction": ("simulate", lambda doc, tmp: _cell(doc, tmp, n_bits=1.9)),
    "cell.freq_ghz_string": ("simulate", lambda doc, tmp: _cell(doc, tmp, freq_ghz="11.1")),
    "cell.n_diodes_bool": ("simulate", lambda doc, tmp: _cell(doc, tmp, n_diodes=True)),
    "cell.state_mag_string": ("simulate", lambda doc, tmp: _cell(doc, tmp, states=[
        {"mag": "0.9", "phase_deg": 0.0}, {"mag": 0.92, "phase_deg": 180.0}])),
    "cell.q_overflows": ("simulate", lambda doc, tmp: _cell(doc, tmp, q=10 ** 400)),
    "surface.M_fraction": ("simulate", lambda doc, tmp: _surface(doc, tmp, M=6.9)),
    "surface.G_bool": ("simulate", lambda doc, tmp: _surface(doc, tmp, G=True)),
    "beam.amplitude_bool": ("optimize", lambda doc, tmp: _beam(doc, tmp, amplitude=True)),
    "beam.theta_deg_string": ("optimize", lambda doc, tmp: _beam(doc, tmp, theta_deg="20")),
    "control.pins_k_zero": ("optimize", lambda doc, tmp: doc.update(control={"pins_k": 0})),
    "control.pins_k_zero_sweep": (
        "sweep-grouping", lambda doc, tmp: doc.update(control={"pins_k": 0})),
    "lobe_between_samples": ("optimize", _lobe_between_samples),
    "lobe_between_samples_sweep": ("sweep-grouping", _lobe_between_samples),
    "one_lobe_between_samples": ("optimize", _one_lobe_between_samples),
    "one_lobe_between_samples_sweep": ("sweep-grouping", _one_lobe_between_samples),
    "config_ref_malformed": ("simulate", lambda doc, tmp: doc.update(
        config_ref=_write(tmp, "cfg.csv", "0,1,0,1,0,1\n" * 5 + "a,1,0,1,0,1\n"))),
    "config_ref_wrong_shape": ("simulate", lambda doc, tmp: doc.update(
        config_ref=_write(tmp, "cfg.csv", "0,1,0,1,0\n" * 6))),
    "config_ref_empty": ("simulate", lambda doc, tmp: doc.update(
        config_ref=_write(tmp, "cfg.csv", ""))),
    "output_dir_int": ("optimize", lambda doc, tmp: doc.update(output_dir=5)),
    "output_dir_null": ("simulate", lambda doc, tmp: doc.update(output_dir=None)),
    "config_ref_int": ("simulate", lambda doc, tmp: doc.update(config_ref=5)),
    "config_ref_bool": ("simulate", lambda doc, tmp: doc.update(config_ref=True)),
    "config_ref_empty_string": ("simulate", lambda doc, tmp: doc.update(config_ref="")),
    "output_dir_empty_string": ("simulate", lambda doc, tmp: doc.update(output_dir="")),
}


@pytest.fixture()
def run_config(tmp_path, monkeypatch):
    """Small, fast run setup: 6x6 1-bit surface, reduced GA budget."""
    monkeypatch.setenv("RISBENCH_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)
    doc = {
        "surface_ref": "S1",
        "rows": 6,
        "cols": 6,
        "group_size": 1,
        "benchmark_ref": "B1",
        "source": {"kind": "planewave", "amplitude": 1.0},
        "grid": {"theta_step_deg": 1.0, "phi_step_deg": 1.0},
        "ga": {"population": 6, "generations": 3, "seed": 11},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path, tmp_path


class TestSimulate:
    def test_outputs_exist_and_sized(self, run_config):
        cfg_path, tmp = run_config
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        pattern = tmp / "out" / "pattern.csv"
        ppm = tmp / "out" / "config.ppm"
        assert pattern.is_file() and ppm.is_file()
        assert len(pattern.read_text().splitlines()) == 32760 + 1  # theta 0..90 only

    def test_one_bit_image_uses_two_palette_colors(self, run_config, tmp_path):
        cfg = ConfigMatrix(states=np.array([[0, 1], [1, 0]]))
        path = tmp_path / "c.ppm"
        write_config_ppm(cfg, path)
        data = path.read_bytes()
        assert data.startswith(b"P6\n2 2\n255\n")
        pixels = {tuple(data[-12:][i:i + 3]) for i in (0, 3, 6, 9)}
        assert pixels == {(0, 0, 255), (0, 255, 255)}

    def test_eight_state_image_bytes(self, tmp_path):
        # States past the four named colours take the gray ramp 64 + (37 s mod 128).
        cfg = ConfigMatrix(states=np.arange(8).reshape(2, 4))
        path = tmp_path / "c.ppm"
        write_config_ppm(cfg, path)
        assert path.read_bytes() == b"P6\n4 2\n255\n" + bytes(
            [0, 0, 255, 0, 255, 255, 255, 255, 0, 255, 0, 0,
             84, 84, 84, 121, 121, 121, 158, 158, 158, 67, 67, 67])

    def test_steer_config_option(self, run_config):
        cfg_path, tmp = run_config
        doc = json.loads(cfg_path.read_text())
        doc["steer_deg"] = 30.0
        cfg_path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(cfg_path)]) == 0

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("command, edit", BAD_CONFIGS.values(), ids=BAD_CONFIGS)
    def test_unknown_key_rejected(self, run_config, command, edit):
        cfg_path, tmp = run_config
        doc = json.loads(cfg_path.read_text())
        edit(doc, tmp)
        cfg_path.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg_path)]) == 2
        assert not (tmp / "cache").exists() and not (tmp / "out").exists()

    def test_integral_float_is_an_integer(self, run_config):
        # in the run config, a cell document and a surface document alike
        cfg_path, tmp = run_config
        doc = json.loads(cfg_path.read_text())
        doc.update(rows=6.0, cols=4.0)
        edits = (lambda: None, lambda: _cell(doc, tmp, n_bits=1.0),
                 lambda: _surface(doc, tmp, M=6.0, N=4))
        for edit in edits:
            edit()
            cfg_path.write_text(json.dumps(doc))
            assert main(["simulate", "--config", str(cfg_path)]) == 0
            assert (tmp / "out" / "config.ppm").read_bytes().startswith(b"P6\n4 6\n")

    def test_run_config_overrides_surface_document(self, run_config):
        # The run config's rows, cols, group_size and pitch_mm replace the
        # document's M, N, G and pitch_mm (its G=3 does not divide 8x8).
        cfg_path, tmp = run_config
        surf = tmp / "surf.json"
        surf.write_text(json.dumps({"cell_id": "S1", "M": 3, "N": 3, "G": 3, "pitch_mm": 9.0}))
        doc = json.loads(cfg_path.read_text())
        doc.update(rows=8, cols=8, group_size=2, pitch_mm=12.0, steer_deg=20.0)
        outputs = []
        for ref in (str(surf), "S1"):
            doc["surface_ref"] = ref
            cfg_path.write_text(json.dumps(doc))
            assert main(["simulate", "--config", str(cfg_path)]) == 0
            outputs.append([(tmp / "out" / name).read_bytes()
                            for name in ("pattern.csv", "config.ppm")])
        assert outputs[0][1].startswith(b"P6\n8 8\n")
        assert outputs[0] == outputs[1]

    def test_missing_surface_file(self, run_config):
        cfg_path, tmp = run_config
        doc = json.loads(cfg_path.read_text())
        doc["surface_ref"] = "missing_cell.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(cfg_path)]) == 2

    def test_malformed_config_ref_is_config_error(self, run_config):
        cfg_path, tmp = run_config
        (tmp / "cfg.csv").write_text("0,1,0,1,0,1\n" * 5 + "a,1,0,1,0,1\n")
        doc = json.loads(cfg_path.read_text())
        doc["config_ref"] = str(tmp / "cfg.csv")
        cfg_path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(cfg_path)]) == 2

    def test_uncreatable_output_dir_is_io_error(self, run_config):
        cfg_path, tmp = run_config
        blocker = tmp / "blocker"
        blocker.write_text("")
        doc = json.loads(cfg_path.read_text())
        doc["output_dir"] = str(blocker / "nested")
        cfg_path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(cfg_path)]) == 4

    def test_unwritable_artifact_is_io_error(self, run_config, capsys):
        cfg_path, tmp = run_config
        (tmp / "out" / "config.ppm").mkdir(parents=True)
        assert main(["simulate", "--config", str(cfg_path)]) == 4
        assert capsys.readouterr().err.startswith("error: ")


class TestOptimize:
    def test_artifacts_and_record(self, run_config):
        cfg_path, tmp = run_config
        assert main(["optimize", "--config", str(cfg_path)]) == 0
        out = tmp / "out"
        for name in ("best_config.csv", "history.csv", "achieved_pattern.csv",
                     "run_record.json"):
            assert (out / name).is_file(), name
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "generation,best_fitness"
        assert len(history) == 1 + 3  # header + generations
        table = np.loadtxt(out / "history.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(table[:, 0], [1, 2, 3])
        assert np.all(np.diff(table[:, 1]) >= 0)
        record = json.loads((out / "run_record.json").read_text())
        for key in record["artifacts"].values():
            assert Path(key).exists()

    def test_record_matches_schema(self, run_config):
        jsonschema = pytest.importorskip("jsonschema")
        from importlib import resources

        cfg_path, tmp = run_config
        main(["optimize", "--config", str(cfg_path)])
        record = json.loads((tmp / "out" / "run_record.json").read_text())
        schema = json.loads(resources.files("risbench").joinpath(
            "data", "schemas", "run_record.schema.json").read_text())
        jsonschema.validate(record, schema)

    def test_unwritable_artifact_is_io_error(self, run_config, capsys):
        cfg_path, tmp = run_config
        (tmp / "out" / "history.csv").mkdir(parents=True)
        assert main(["optimize", "--config", str(cfg_path)]) == 4
        assert capsys.readouterr().err.startswith("error: ")

    def test_seed_flag_overrides(self, run_config):
        cfg_path, tmp = run_config
        assert main(["optimize", "--config", str(cfg_path), "--seed", "77"]) == 0
        record = json.loads((tmp / "out" / "run_record.json").read_text())
        assert record["seed"] == 77

    def test_thread_count_leaves_artifacts_unchanged(self, run_config):
        cfg_path, tmp = run_config
        outs = []
        for i, flag in enumerate(([], ["--threads", "1"], ["--threads", "2"])):
            out = tmp / f"t{i}"
            stdout = fresh_process(
                ["-m", "risbench.cli", *flag, "optimize",
                 "--config", str(cfg_path), "--out", str(out)],
                RISBENCH_CACHE_DIR=str(out / "cache"))
            outs.append([stdout] + [(out / name).read_bytes() for name in
                                    ("best_config.csv", "history.csv",
                                     "achieved_pattern.csv")])
        assert outs[0] == outs[1] == outs[2]


class TestEvaluate:
    def test_self_evaluation_is_zero(self, run_config, capsys):
        cfg_path, tmp = run_config
        main(["optimize", "--config", str(cfg_path)])
        achieved = str(tmp / "out" / "achieved_pattern.csv")
        capsys.readouterr()
        code = main(["evaluate", "--config", str(cfg_path),
                     "--achieved", achieved, "--reference", achieved])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["de"] == 0.0
        assert metrics["nmse"] == 0.0

    def test_grid_mismatch_exit_code(self, run_config, tmp_path):
        cfg_path, tmp = run_config
        main(["optimize", "--config", str(cfg_path)])
        achieved = str(tmp / "out" / "achieved_pattern.csv")
        coarse = tmp_path / "coarse.csv"
        lines = ["theta_deg,phi_deg,re,im,mag"]
        for t in range(0, 180, 2):
            for p in range(0, 360, 2):
                lines.append(f"{t},{p},0,0,0")
        coarse.write_text("\n".join(lines) + "\n")
        code = main(["evaluate", "--config", str(cfg_path),
                     "--achieved", achieved, "--reference", str(coarse)])
        assert code == 3

    def test_grid_mismatch_found_before_reference_runs(self, run_config, tmp_path):
        cfg_path, tmp = run_config  # a 1 degree run config
        coarse = tmp_path / "coarse.csv"
        rows = [f"{t},{p},0,0,0" for t in range(0, 180, 2) for p in range(0, 360, 2)]
        coarse.write_text("\n".join(["theta_deg,phi_deg,re,im,mag", *rows]) + "\n")
        assert main(["evaluate", "--config", str(cfg_path), "--achieved", str(coarse)]) == 3
        assert not (tmp / "cache" / "ref").exists()

    def test_missing_achieved_is_io_error_before_any_output(self, run_config, capsys):
        cfg_path, tmp = run_config
        code = main(["evaluate", "--config", str(cfg_path), "--achieved", str(tmp / "none.csv"),
                     "--out", str(tmp / "scored")])
        assert code == 4
        assert capsys.readouterr().err.startswith("error: cannot read field CSV")
        assert not (tmp / "cache").exists() and not (tmp / "scored").exists()

    def test_partial_grid_is_io_error(self, run_config, tmp_path):
        cfg_path, tmp = run_config
        partial = tmp_path / "partial.csv"
        lines = ["theta_deg,phi_deg,re,im,mag"]
        for t in range(0, 90, 2):  # front hemisphere only
            for p in range(0, 360, 2):
                lines.append(f"{t},{p},1,0,1")
        partial.write_text("\n".join(lines) + "\n")
        code = main(["evaluate", "--config", str(cfg_path),
                     "--achieved", str(partial), "--reference", str(partial)])
        assert code == 4

    def test_truncated_step_evaluates_its_own_pattern(self, run_config):
        # 180/338 typed to 14 digits: the pattern CSV carries the exact step
        cfg_path, tmp = run_config
        doc = json.loads(cfg_path.read_text())
        doc["grid"] = {"theta_step_deg": 0.53254437869822, "phi_step_deg": 30.0}
        doc.update(rows=2, cols=2)
        cfg_path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        pattern = str(tmp / "out" / "pattern.csv")
        assert main(["evaluate", "--config", str(cfg_path), "--achieved", pattern]) == 0

    def test_reference_path_needs_a_cut_sample_in_every_lobe(self, run_config, capsys):
        # B1's lobe [27, 33] lies between the theta samples 180/7 and 360/7.
        cfg_path, tmp = run_config
        doc = json.loads(cfg_path.read_text())
        doc["grid"] = {"theta_step_deg": 180 / 7, "phi_step_deg": 30.0}
        doc.update(rows=2, cols=2)
        cfg_path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        pattern = str(tmp / "out" / "pattern.csv")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg_path),
                     "--achieved", pattern, "--reference", pattern]) == 3
        assert "[27.0, 33.0]" in capsys.readouterr().err

    def test_benchmark_reference_uses_cache(self, run_config, capsys):
        cfg_path, tmp = run_config
        main(["optimize", "--config", str(cfg_path)])
        achieved = str(tmp / "out" / "achieved_pattern.csv")
        assert main(["evaluate", "--config", str(cfg_path), "--achieved", achieved]) == 0
        capsys.readouterr()
        cache_files = list((tmp / "cache" / "ref").glob("*.config.csv"))
        assert len(cache_files) == 1
        # second call hits the same cache entry
        assert main(["evaluate", "--config", str(cfg_path), "--achieved", achieved]) == 0
        assert len(list((tmp / "cache" / "ref").glob("*.config.csv"))) == 1


class TestSweepGrouping:
    def test_two_row_table(self, run_config):
        cfg_path, tmp = run_config
        code = main(["sweep-grouping", "--config", str(cfg_path), "--groups", "1,2"])
        assert code == 0
        lines = (tmp / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "G,de,nmse,slr_db,physical_paths,switching_rate_hz"
        assert len(lines) == 3
        row1 = lines[1].split(",")
        row2 = lines[2].split(",")
        paths1, paths2 = int(row1[4]), int(row2[4])
        rate1, rate2 = float(row1[5]), float(row2[5])
        assert paths2 == paths1 // 2
        assert np.isclose(rate2, 2 * rate1)

    def test_each_group_is_an_optimize_run(self, run_config):
        # g{G}/ holds what optimize writes with group_size = G and the same seed.
        cfg_path, tmp = run_config
        assert main(["sweep-grouping", "--config", str(cfg_path), "--groups", "1,2"]) == 0
        doc = json.loads(cfg_path.read_text())
        for g in (1, 2):
            doc["group_size"] = g
            cfg_path.write_text(json.dumps(doc))
            opt_dir = tmp / f"opt{g}"
            assert main(["optimize", "--config", str(cfg_path), "--out", str(opt_dir)]) == 0
            for name in ("best_config.csv", "history.csv", "achieved_pattern.csv"):
                sweep_file = tmp / "out" / f"g{g}" / name
                assert sweep_file.read_bytes() == (opt_dir / name).read_bytes(), name

    def test_reference_is_fetched_once(self, run_config, monkeypatch):
        import risbench.benchmarks

        calls = []
        fetch = risbench.benchmarks.reference_pattern

        def counted(*args, **kwargs):
            calls.append(args)
            return fetch(*args, **kwargs)

        monkeypatch.setattr(risbench.benchmarks, "reference_pattern", counted)
        cfg_path, _ = run_config
        assert main(["sweep-grouping", "--config", str(cfg_path), "--groups", "1,2,3"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("groups", ["1,x", "0", "1,5", "1,1"])
    def test_bad_groups_rejected_before_output(self, run_config, groups):
        # 5 does not divide the 6x6 surface and 1,1 would run one GA twice;
        # no group size may start a run.
        cfg_path, tmp = run_config
        assert main(["sweep-grouping", "--config", str(cfg_path), "--groups", groups]) == 2
        assert not (tmp / "cache").exists() and not (tmp / "out").exists()


class TestConfigCsv:
    def test_round_trip(self, tmp_path):
        from risbench.surface import read_config_csv, write_config_csv

        rng = np.random.default_rng(2)
        cfg = ConfigMatrix(states=rng.integers(0, 4, size=(5, 9)))
        path = tmp_path / "cfg.csv"
        write_config_ppm(cfg, tmp_path / "cfg.ppm")  # smoke: palette handles 4 states
        write_config_csv(cfg, path)
        back = read_config_csv(path)
        assert np.array_equal(back.states, cfg.states)

    def test_empty_file_is_a_parse_error(self, tmp_path, recwarn):
        from risbench.errors import ConfigParseError
        from risbench.surface import read_config_csv

        (tmp_path / "cfg.csv").write_text("")
        with pytest.raises(ConfigParseError):
            read_config_csv(tmp_path / "cfg.csv")
        assert not recwarn.list


class TestGridWithoutCutPlane:
    @pytest.mark.parametrize("command", ["optimize", "sweep-grouping", "evaluate"])
    def test_fails_before_any_output(self, run_config, command):
        # phi = 0, 120 and 240 only: no phi = 180 column for the principal cut
        cfg_path, tmp = run_config
        doc = json.loads(cfg_path.read_text())
        doc["grid"]["phi_step_deg"] = 120.0
        cfg_path.write_text(json.dumps(doc))
        args = [command, "--config", str(cfg_path)]
        if command == "evaluate":
            pattern_dir = tmp / "pattern"
            assert main(["simulate", "--config", str(cfg_path), "--out", str(pattern_dir)]) == 0
            args += ["--achieved", str(pattern_dir / "pattern.csv"), "--out", str(tmp / "out")]
        assert main(args) == 3
        assert not (tmp / "cache").exists() and not (tmp / "out").exists()


class TestImport:
    def test_cli_import_leaves_numpy_unloaded(self):
        # --threads only takes effect if numpy's BLAS loads after main() runs.
        out = fresh_process(["-c", "import sys, risbench.cli as cli; "
                             "cli.build_parser().parse_args(['table1']); "
                             "print('numpy' in sys.modules)"])
        assert out.strip() == "False"

    def test_cold_reference_lookup_leaves_the_url_stack_unloaded(self, run_config):
        # Every cold command begins with a reference-cache miss; numpy's own
        # missing-file check imports its URL handling first.
        cfg_path, tmp = run_config
        doc = json.loads(cfg_path.read_text())
        doc["ga"] = {"population": 4, "generations": 1}
        doc["grid"] = {"theta_step_deg": 2.0, "phi_step_deg": 2.0}
        cfg_path.write_text(json.dumps(doc))
        out = fresh_process(["-c", f"""
import sys
from risbench.cli import main
from risbench.errors import IoError
from risbench.field import read_field_csv
assert main(["simulate", "--config", {str(cfg_path)!r}]) == 0
assert main(["evaluate", "--config", {str(cfg_path)!r},
             "--achieved", {str(tmp / "out" / "pattern.csv")!r}]) == 0
try:
    read_field_csv({str(tmp / "missing.csv")!r})
except IoError:
    pass
print([m for m in ("urllib.request", "http.client", "email", "ssl", "socket")
       if m in sys.modules])
"""])
        assert len(list((tmp / "cache" / "ref").glob("*.config.csv"))) == 1
        assert out.splitlines()[-1] == "[]"

    def test_every_export_resolves(self):
        # perfbench and users import through the package's lazy export table:
        # each name must come from the module that defines it.
        for name in risbench.__all__:
            obj = getattr(risbench, name)
            assert obj.__name__ == name and obj.__module__.startswith("risbench."), name
            assert getattr(sys.modules[obj.__module__], name) is obj, name


class TestThreads:
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_below_one_rejected_before_env(self, threads, monkeypatch, capsys):
        for var in THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["--threads", threads, "table1", "--json"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not any(var in os.environ for var in THREAD_VARS)

    def test_blas_pinned_to_one_thread(self, monkeypatch):
        for var in THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        assert main(["table1", "--json"]) == 0
        assert all(os.environ[var] == "1" for var in THREAD_VARS)

    @pytest.mark.parametrize("flag, pools", [([], [2, 2]), (["--threads", "1"], []),
                                             (["--threads", "2"], [1, 1]),
                                             (["--threads", "100000"], [2, 2])])
    def test_ga_threads_default_to_and_cap_at_the_cores(self, flag, pools, run_config,
                                                        monkeypatch):
        # Three usable cores, whatever the host has.  Each GA (the
        # reference's, then the run's) records the size of the pool it opens,
        # so no large thread count is ever started.
        import risbench.ga as ga_mod

        cfg_path, _ = run_config
        sizes = []

        class Pool(ga_mod.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(ga_mod, "ThreadPoolExecutor", Pool)
        assert main([*flag, "optimize", "--config", str(cfg_path)]) == 0
        assert sizes == pools


class TestTable1:
    def test_json_values(self, capsys):
        assert main(["table1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"S1", "S2", "S3", "S4", "S5"}
        assert np.isclose(doc["S1"]["power_per_area_w_m2"], 44.0, rtol=0.02)
        assert np.isclose(doc["S5"]["power_per_area_w_m2"], 12.8, rtol=0.02)
        assert np.isclose(doc["S3"]["total_power_w"], 64.0, rtol=1e-12)

    def test_flags_reach_report(self, capsys):
        assert main(["table1", "--json", "--pins-k", "8", "--tau-ns", "10",
                     "--diode-mw", "4"]) == 0
        echo = json.loads(capsys.readouterr().out)["S3"]["params_echo"]
        assert (echo["K"], echo["tau_s"], echo["P_D_w"]) == (8, 10 * 1e-9, 4 * 1e-3)

    def test_table_prints_five_rows(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out.splitlines()
        body = [ln for ln in out if ln[:2] in {"S1", "S2", "S3", "S4", "S5"}]
        assert len(body) == 5
