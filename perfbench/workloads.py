"""Workload definitions and seeded input generation.

``make_inputs(workload, seed)`` is the only place a workload seed turns into
program inputs: the run-config documents the CLI receives, and the
reference-cache entries set-up fills before timing.  It uses the standard
library only, so the launcher can import it without loading numpy, and it
draws from its own ``random.Random`` so the result depends on nothing but
its two arguments.

Why each workload exists is written up in README.md next to this file.
"""

from __future__ import annotations

import random

WORKLOADS = ("synth_g1", "synth_g4_cold", "score_io")

GRID_1DEG = {"theta_step_deg": 1.0, "phi_step_deg": 1.0}
GRID_2DEG = {"theta_step_deg": 2.0, "phi_step_deg": 2.0}

# GA budget of the synthesis workloads: small enough for several ops per
# run, large enough that the objective dominates an op.
SYNTH_POPULATION = 50
SYNTH_GENERATIONS = 6

# score_io scores against a reference that set-up fills with this budget.
SCORE_REFERENCE_GA = {"population": 4, "generations": 1}
SCORE_CELLS = ("S1", "S2", "S3", "S4", "S5")
SCORE_ANGLES_PER_CELL = 2
SCORE_ANGLE_RANGE_DEG = (0.0, 60.0)


def make_inputs(workload: str, seed: int) -> dict:
    """Inputs of one run, a pure function of (workload, seed).

    Returns ``{"kind", "configs", "warm", "cold_cache"}``: the op kind
    (``optimize`` or ``score``), the run-config documents the ops cycle
    through, the configs whose reference set-up computes into the cache
    before timing, and whether each op starts from an empty cache.
    """
    rng = random.Random(f"{workload}/{seed}")
    ga_seed = rng.randrange(1, 2 ** 31)
    if workload == "synth_g1":
        doc = {
            "surface_ref": "S4", "rows": 40, "cols": 40, "group_size": 1,
            "benchmark_ref": "B1",
            "source": {"kind": "planewave", "amplitude": 1.0,
                       "incidence_deg": [0.0, 0.0]},
            "grid": dict(GRID_1DEG),
            "ga": {"population": SYNTH_POPULATION,
                   "generations": SYNTH_GENERATIONS, "seed": ga_seed},
        }
        return {"kind": "optimize", "configs": [doc], "warm": [doc],
                "cold_cache": False}
    if workload == "synth_g4_cold":
        doc = {
            "surface_ref": "S3", "rows": 40, "cols": 40, "group_size": 4,
            "benchmark_ref": "B8",
            "source": {"kind": "point", "amplitude": 1.0,
                       "position_m": [0.0, -0.2, 0.6]},
            "grid": dict(GRID_2DEG),
            "ga": {"population": SYNTH_POPULATION,
                   "generations": SYNTH_GENERATIONS, "seed": ga_seed},
        }
        return {"kind": "optimize", "configs": [doc], "warm": [],
                "cold_cache": True}
    if workload == "score_io":
        ga = dict(SCORE_REFERENCE_GA, seed=ga_seed)
        configs = []
        for cell in SCORE_CELLS:
            for _ in range(SCORE_ANGLES_PER_CELL):
                configs.append({
                    "surface_ref": cell, "rows": 40, "cols": 40, "group_size": 1,
                    "benchmark_ref": "B1",
                    "source": {"kind": "planewave", "amplitude": 1.0,
                               "incidence_deg": [0.0, 0.0]},
                    "grid": dict(GRID_1DEG),
                    "ga": dict(ga),
                    "steer_deg": round(rng.uniform(*SCORE_ANGLE_RANGE_DEG), 1),
                })
        # Every config shares benchmark, source, grid and GA budget, so one
        # cache entry serves every evaluate call.
        return {"kind": "score", "configs": configs, "warm": configs[:1],
                "cold_cache": False}
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
