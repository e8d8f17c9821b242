"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.  The full-budget synthesis
check (tens of minutes) is deselected by default; include it with `-m full`.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from risbench.benchmarks import ideal_target_field, load_benchmark
from risbench.cli import main as cli_main
from risbench.control import complexity_report
from risbench.field import (
    FieldEvaluator,
    FieldGrid,
    GridSpec,
    SourceModel,
    principal_cut,
    steering_config,
)
from risbench.ga import GAParams, exhaustive_search, run_ga
from risbench.metrics import (
    directivity_error,
    directivity_over_region,
    lobe_peaks,
    nmse,
    side_lobe_ratio,
)
from risbench.surface import (
    ConfigMatrix,
    ReflectionState,
    UnitCellSpec,
    build_surface,
    load_unit_cell,
    uniform_config,
)

PW = SourceModel.planewave()
GRID = GridSpec()


def ideal_one_bit():
    return UnitCellSpec(id="ideal1bit", n_bits=1, n_diodes=1,
                        states=(ReflectionState(1.0, 0.0), ReflectionState(1.0, 180.0)),
                        q_exponent=1.0, width_m=0.015, height_m=0.015,
                        design_freq_hz=10e9)


def report(criterion, text):
    print(f"[criterion {criterion}] PASS: {text}")


def test_01_table_power_per_area():
    expected = {"S1": 44.0, "S2": 27.7, "S3": 9.46, "S4": 58.8, "S5": 12.8}
    for cid, want in expected.items():
        surf, _ = build_surface(load_unit_cell(cid), 40, 40)
        got = complexity_report(surf, diode_power_w=8e-3).power_per_area_w_m2
        assert abs(got - want) / want < 0.02, f"{cid}: {got:.3f} vs {want}"
    report(1, "S1..S5 power per area within 2% of published values")


def test_02_switching_rate_worked_example():
    surf, _ = build_surface(load_unit_cell("S4"), 40, 40, 2)  # a 2-bit cell
    rate = complexity_report(surf, pins_k=40, tau_s=20e-9).switching_rate_hz
    assert math.isclose(rate, 1.25e6, rel_tol=1e-12)
    assert math.isclose(1.0 / rate, 0.8e-6, rel_tol=1e-12)
    report(2, "G=2, K=40, 40x40, n=2, tau=20ns gives 1.25 MHz and 0.8 us")


def test_03_field_engine_analytic_checks():
    # two cells half a wavelength apart along x
    surf, _ = build_surface(ideal_one_bit(), 1, 2)
    fg = FieldEvaluator(surf, PW, GRID).field(uniform_config(surf))
    assert abs(abs(fg.values[0, 0]) - 2.0) <= 1e-12
    assert abs(fg.values[90, 0]) <= 1e-12

    # global state-phase offset leaves |E| unchanged
    rng = np.random.default_rng(1)
    cfg = ConfigMatrix(states=rng.integers(0, 4, size=(16, 16)))
    base = UnitCellSpec(id="b", n_bits=2, n_diodes=2,
                        states=tuple(ReflectionState(1.0, p) for p in (0, 90, 180, 270)),
                        q_exponent=1.0, width_m=.015, height_m=.015, design_freq_hz=10e9)
    off = UnitCellSpec(id="o", n_bits=2, n_diodes=2,
                       states=tuple(ReflectionState(1.0, (p + 123) % 360)
                                    for p in (0, 90, 180, 270)),
                       q_exponent=1.0, width_m=.015, height_m=.015, design_freq_hz=10e9)
    sb, _ = build_surface(base, 16, 16)
    so, _ = build_surface(off, 16, 16)
    m1 = np.abs(FieldEvaluator(sb, PW, GRID).field(cfg).values)
    m2 = np.abs(FieldEvaluator(so, PW, GRID).field(cfg).values)
    assert np.max(np.abs(m1 - m2)) <= 1e-12 * m1.max()

    # uniform lossless broadside equals the cell count exactly
    s0 = load_unit_cell("S0")
    surf40, _ = build_surface(s0, 40, 40)
    f40 = FieldEvaluator(surf40, PW, GRID).field(uniform_config(surf40))
    assert f40.values[0, 0] == complex(1600)
    report(3, "half-wave pair peak/null, phase-offset invariance, exact M*N broadside")


def test_04_point_source_planewave_limit():
    s0 = load_unit_cell("S0")
    surf, _ = build_surface(s0, 40, 40)
    cfg = uniform_config(surf)
    src = SourceModel.point((0.0, 0.0, 1e6 * s0.wavelength_m))
    fpt = FieldEvaluator(surf, src, GRID).field(cfg)
    fpw = FieldEvaluator(surf, PW, GRID).field(cfg)
    na = np.abs(fpt.values) / np.abs(fpt.values).max()
    nb = np.abs(fpw.values) / np.abs(fpw.values).max()
    dev = float(np.max(np.abs(na - nb)))
    assert dev < 1e-3, f"max deviation {dev}"
    report(4, f"boresight source at 1e6 wavelengths matches planewave (dev {dev:.2e})")


def test_05_quantization_mirror_lobe():
    def mirror_gap_db(cell):
        surf, _ = build_surface(cell, 40, 40)
        fg = FieldEvaluator(surf, PW, GRID).field(steering_config(surf, 30.0))
        cut = principal_cut(fg)
        p = cut.magnitude ** 2
        s = cut.signed_theta_deg
        main = p[(s >= 27) & (s <= 33)].max()
        window = p[(s >= -33) & (s <= -27)].max()
        return 10 * math.log10(window / main), cut

    one_bit_db, cut1 = mirror_gap_db(ideal_one_bit())
    # the mirror must be a genuine lobe within +-3 deg of -30
    mirror_lobes = [deg for deg, _ in lobe_peaks(cut1) if -33 <= deg <= -27]
    assert mirror_lobes, "no mirror lobe detected for the 1-bit surface"
    assert one_bit_db > -4.0, f"1-bit mirror at {one_bit_db:.2f} dB"
    # frozen regression: ideal 1-bit rounding gives an exact mirror (0 dB)
    assert abs(one_bit_db) < 0.5

    s0_db, _ = mirror_gap_db(load_unit_cell("S0"))
    assert s0_db <= one_bit_db - 6.0, f"2-bit mirror only {one_bit_db - s0_db:.2f} dB down"
    # frozen regression: measured about -27.5 dB for the 90-degree-step cell
    assert s0_db < -15.0
    report(5, f"1-bit mirror {one_bit_db:+.2f} dB vs 2-bit {s0_db:+.2f} dB")


def test_06_metric_identities():
    v = np.zeros((180, 360))
    theta = np.arange(180.0)
    inside = np.abs(theta - 30.0) <= 3.0
    v[inside, 0] = np.cos(np.pi * (theta[inside] - 30.0) / 6.0) ** 2
    fg = FieldGrid(values=v.astype(complex), grid=GRID)

    assert nmse(fg, fg) == 0.0
    scaled = FieldGrid(values=fg.values * 3.7, grid=GRID)
    assert nmse(fg, scaled) <= 1e-12

    bm = load_benchmark("B1")
    assert directivity_error(fg, fg, bm) == 0.0
    w = np.zeros((180, 360))
    w[np.abs(theta - 60.0) <= 3.0, 0] = 1.0  # all power outside [27, 33]
    zero_in_regions = FieldGrid(values=w.astype(complex), grid=GRID)
    assert np.isclose(directivity_error(fg, zero_in_regions, bm), 1.0)

    u = np.zeros((180, 360))
    u[28:33, 0] = [0.5, 0.9, 1.0, 0.9, 0.5]
    u[58:63, 0] = [0.5, 0.9, 1.0, 0.9, 0.5]
    slr, _ = side_lobe_ratio(FieldGrid(values=u.astype(complex), grid=GRID), bm)
    assert abs(slr) < 1e-12
    report(6, "nmse identities, DE endpoints, and 0 dB SLR for equal peaks")


def test_07_directivity_riemann_oracle():
    v = np.zeros((180, 360), dtype=complex)
    v[:91, :] = 1.0
    hemi = FieldGrid(values=v, grid=GRID)
    d = directivity_over_region(hemi, -90.0, 90.0, 0.0, phi_band_deg=180.0)
    rel = abs(d - 2 * math.pi) / (2 * math.pi)
    assert rel < 1e-3, f"relative error {rel}"
    report(7, f"uniform hemisphere integrates to 2*pi (rel err {rel:.2e})")


def test_08_ga_attains_oracle_optimum():
    surf1, _ = build_surface(ideal_one_bit(), 2, 2)
    cfg = ConfigMatrix(states=np.array([[0, 1], [1, 0]]))
    target1 = FieldEvaluator(surf1, PW, GRID).field(cfg)
    _, opt1 = exhaustive_search(surf1, PW, target1)
    res1 = run_ga(surf1, PW, target1, GAParams(seed=42))
    assert abs(res1.best_fitness - opt1) < 1e-15

    surf2, _ = build_surface(load_unit_cell("S0"), 1, 2)
    target2 = FieldEvaluator(surf2, PW, GRID).field(ConfigMatrix(states=np.array([[3, 1]])))
    _, opt2 = exhaustive_search(surf2, PW, target2)
    res2 = run_ga(surf2, PW, target2, GAParams(seed=42))
    assert abs(res2.best_fitness - opt2) < 1e-15
    report(8, "defaults with seed 42 reach the exhaustive optimum on both instances")


def test_09_grouping_subset_property():
    surf_a1, _ = build_surface(ideal_one_bit(), 2, 2, group_size=1)
    surf_a2, _ = build_surface(ideal_one_bit(), 2, 2, group_size=2)
    cfg_a = ConfigMatrix(states=np.array([[0, 1], [1, 0]]))
    target_a = FieldEvaluator(surf_a1, PW, GRID).field(cfg_a)
    _, f1 = exhaustive_search(surf_a1, PW, target_a)
    _, f2 = exhaustive_search(surf_a2, PW, target_a)
    assert f2 <= f1 + 1e-15

    surf_b1, _ = build_surface(load_unit_cell("S0"), 1, 4, group_size=1)
    surf_b2, _ = build_surface(load_unit_cell("S0"), 1, 4, group_size=2)
    cfg_b = ConfigMatrix(states=np.array([[0, 1, 2, 3]]))
    target_b = FieldEvaluator(surf_b1, PW, GRID).field(cfg_b)
    _, g1 = exhaustive_search(surf_b1, PW, target_b)
    _, g2 = exhaustive_search(surf_b2, PW, target_b)
    assert g2 <= g1 + 1e-15
    report(9, "grouped search-space optimum never beats the ungrouped optimum")


def test_10_cli_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("RISBENCH_CACHE_DIR", str(tmp_path / "cache"))
    doc = {
        "surface_ref": "S1",
        "rows": 20,
        "cols": 20,
        "benchmark_ref": "B1",
        "source": {"kind": "planewave"},
        "ga": {"population": 20, "generations": 30, "seed": 42},
        "output_dir": str(tmp_path / "a"),
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    assert cli_main(["optimize", "--config", str(cfg)]) == 0
    assert cli_main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    wall = time.perf_counter() - t0
    for name in ("best_config.csv", "history.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    assert wall < 120.0, f"reduced budget took {wall:.0f}s"
    report(10, f"identical seed gives byte-identical config and history ({wall:.0f}s)")


SMOKE = dict(population=50, generations=100, seed=42)


def _synthesized_nmse(cell_id, target):
    cell = load_unit_cell(cell_id)
    surf, _ = build_surface(cell, 40, 40)
    res = run_ga(surf, PW, target, GAParams(**SMOKE))
    return -res.best_fitness, res


def test_11_smoke_ordering_optimized_2bit_beats_unoptimized_1bit():
    t0 = time.perf_counter()
    target = ideal_target_field(load_benchmark("B1"), GRID)
    nmse_s4, _ = _synthesized_nmse("S4", target)
    nmse_s5, _ = _synthesized_nmse("S5", target)
    wall = time.perf_counter() - t0
    assert nmse_s4 <= nmse_s5, f"S4 {nmse_s4:.4g} vs S5 {nmse_s5:.4g}"
    assert wall < 600.0, f"smoke variant took {wall:.0f}s"
    report(11, f"smoke budget: S4 nmse {nmse_s4:.4g} <= S5 nmse {nmse_s5:.4g} ({wall:.0f}s)")


@pytest.mark.full
def test_11_full_budget_reference_peak_and_ordering():
    bm = load_benchmark("B1")
    target = ideal_target_field(bm, GRID)
    full = GAParams(seed=42)

    s0_surf, _ = build_surface(load_unit_cell("S0"), 40, 40)
    res = run_ga(s0_surf, PW, target, full)
    fg = FieldEvaluator(s0_surf, PW, GRID).field(res.best_config)
    idx = np.unravel_index(np.argmax(np.abs(fg.values)), fg.values.shape)
    theta_peak = fg.grid.theta_deg()[idx[0]]
    phi_peak = fg.grid.phi_deg()[idx[1]]
    signed_peak = theta_peak if min(phi_peak, 360 - phi_peak) <= 90 else -theta_peak
    beam = bm.beams[0]
    assert beam.lobe_start_deg <= signed_peak <= beam.lobe_end_deg, (
        f"global peak at ({theta_peak}, {phi_peak})"
    )

    s4_cell = load_unit_cell("S4")
    s4_surf, _ = build_surface(s4_cell, 40, 40)
    nmse_s4 = -run_ga(s4_surf, PW, target, full).best_fitness
    s5_cell = load_unit_cell("S5")
    s5_surf, _ = build_surface(s5_cell, 40, 40)
    nmse_s5 = -run_ga(s5_surf, PW, target, full).best_fitness
    assert nmse_s4 <= nmse_s5
    report(11, f"full budget: peak at {signed_peak} deg inside beam bounds; "
               f"S4 {nmse_s4:.4g} <= S5 {nmse_s5:.4g}")
