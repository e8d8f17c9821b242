import hashlib
import json
import threading
import tracemalloc

import numpy as np
import pytest

from oracle import exhaustive_search
from risbench.benchmarks import ideal_target_field, load_benchmark
from risbench.errors import NonPositiveParam
from risbench.field import FieldEvaluator, FieldGrid, GridSpec, SourceModel, peak_magnitude
from risbench.ga import (
    SEARCH_REVISION,
    GAParams,
    _breed,
    _Objective,
    fitness,
    run_ga,
)
from risbench.surface import (
    ConfigMatrix,
    ReflectionState,
    UnitCellSpec,
    build_surface,
    expand_groups,
    load_unit_cell,
)

PW = SourceModel.planewave()
GRID = GridSpec()

# Digest of run_ga's best configuration and history on 6x6 S0, B1, 6 deg grid,
# 20 x 10 at seed 42, per search revision.  A change that moves run_ga's output
# bumps ga.SEARCH_REVISION and adds a row here; no row is ever edited.
SEARCH_DIGESTS = {
    1: "1ef1eae8d1b73e2e",  # float64 ranking
    2: "1ef1eae8d1b73e2e",  # float32 ranking, float64 report: the same run here
    3: "9e8681150cbc6061",  # angle-addition steering tables
    4: "9e8681150cbc6061",  # direction blocks: this case's 256 directions fit one block
    5: "9e8681150cbc6061",  # ranking in stacks: the same bits here on OpenBLAS SkylakeX
    6: "b51ee30055f44208",  # whole-array breeding draws, compact genes, complex64 ranker weights
}


def one_bit_cell(mags=(1.0, 1.0)):
    return UnitCellSpec(id="bit1", n_bits=1, n_diodes=1,
                        states=(ReflectionState(mags[0], 0.0),
                                ReflectionState(mags[1], 180.0)),
                        q_exponent=1.0, width_m=0.015, height_m=0.015,
                        design_freq_hz=10e9)


def normalized(field):
    return FieldGrid(values=field.values / peak_magnitude(field.values), grid=field.grid)


def reachable_target(surface, states):
    cfg = ConfigMatrix(states=np.asarray(states, dtype=np.int64))
    return normalized(FieldEvaluator(surface, PW, GRID).field(cfg))


class TestGAParams:
    def test_defaults(self):
        p = GAParams()
        assert p.population == 100
        assert p.generations == 350
        assert p.crossover_prob == 0.9
        assert p.elitism == 2

    def test_population_floor(self):
        with pytest.raises(NonPositiveParam):
            GAParams(population=1)

    def test_elitism_below_population(self):
        with pytest.raises(NonPositiveParam):
            GAParams(population=4, elitism=4)

    @pytest.mark.parametrize("size", [0, 5, 100_000_000])
    def test_tournament_size_within_population(self, size):
        with pytest.raises(NonPositiveParam, match="tournament_size"):
            GAParams(population=4, tournament_size=size)
        GAParams(population=4, tournament_size=4)


OBJECTIVE_CASES = [
    pytest.param(src, group_size, GridSpec(2.0, 2.0), None, id=f"{kind}-{group_size}")
    for kind, src in (("point", SourceModel.point((0.01, -0.02, 0.3))),
                      ("planewave", SourceModel.planewave(1.0, 10.0, 30.0)))
    for group_size in (1, 2)
] + [
    # 45 phi columns: no 180 - phi column, so the kernel folds only phi -> 360 - phi
    pytest.param(SourceModel.planewave(1.0, 10.0, 30.0), 1, GridSpec(10.0, 8.0), None,
                 id="planewave-1-phi45"),
    # target power behind the surface, which no configuration can radiate
    pytest.param(SourceModel.planewave(1.0, 10.0, 30.0), 2, GridSpec(2.0, 2.0), 0.3,
                 id="planewave-2-back"),
]

# Stated bound of the float32 search score against the public fitness.  On
# these cases it measures at most 4.5e-7 relative, and 1.1e-6 at a steered
# 40x40 configuration of NMSE 2.3e-4.
RANK_REL_TOL = 3e-6


class TestFitness:
    def test_exact_match_is_global_max(self):
        surf, _ = build_surface(one_bit_cell(), 2, 2)
        states = [[0, 1], [1, 0]]
        cfg = ConfigMatrix(states=np.array(states))
        target = FieldEvaluator(surf, PW, GRID).field(cfg)  # bitwise-identical achieved field
        assert fitness(cfg, target, surf, PW) == 0.0

    def test_always_nonpositive(self):
        surf, _ = build_surface(one_bit_cell(), 2, 2)
        target = reachable_target(surf, [[0, 1], [1, 0]])
        rng = np.random.default_rng(0)
        for _ in range(5):
            cfg = ConfigMatrix(states=rng.integers(0, 2, size=(2, 2)))
            assert fitness(cfg, target, surf, PW) <= 0.0

    def test_invariant_to_global_phase_for_equal_gamma(self):
        surf, _ = build_surface(one_bit_cell(), 2, 2)
        target = reachable_target(surf, [[0, 1], [1, 0]])
        cfg = ConfigMatrix(states=np.array([[0, 0], [1, 0]]))
        flipped = ConfigMatrix(states=1 - cfg.states)
        f1 = fitness(cfg, target, surf, PW)
        f2 = fitness(flipped, target, surf, PW)
        assert np.isclose(f1, f2, atol=1e-12)

    @pytest.mark.parametrize("src, group_size, grid, back_value", OBJECTIVE_CASES)
    def test_objective_equals_public_fitness_exactly(self, src, group_size, grid, back_value):
        surf, _ = build_surface(load_unit_cell("S3"), 8, 8, group_size)
        target = ideal_target_field(load_benchmark("B8"), grid)
        if back_value is not None:
            values = target.values.copy()
            values[grid.front_rows, 0] = back_value
            target = FieldGrid(values=values, grid=grid)
        res = run_ga(surf, src, target, GAParams(population=8, generations=4, seed=group_size))
        assert res.best_fitness == fitness(res.best_config, target, surf, src)
        rendered = FieldEvaluator(surf, src, grid).field(res.best_config)
        assert np.array_equal(res.best_field.values, rendered.values)

    @pytest.mark.parametrize("src, group_size, grid, back_value", OBJECTIVE_CASES)
    def test_rank_is_within_stated_tolerance_of_public_fitness(self, src, group_size, grid,
                                                               back_value):
        surf, _ = build_surface(load_unit_cell("S3"), 8, 8, group_size)
        target = ideal_target_field(load_benchmark("B8"), grid)
        if back_value is not None:
            values = target.values.copy()
            values[grid.front_rows, 0] = back_value
            target = FieldGrid(values=values, grid=grid)
        objective = _Objective(surf, src, target)
        rng = np.random.default_rng(group_size)
        chromos = rng.integers(0, surf.cell.n_states, size=(16, surf.n_groups))
        exact = [fitness(expand_groups(chromo, surf), target, surf, src) for chromo in chromos]
        assert objective.rank(chromos) == pytest.approx(exact, rel=RANK_REL_TOL, abs=0.0)


class TestRunGa:
    def test_same_seed_same_result(self):
        surf, _ = build_surface(one_bit_cell(), 2, 3)
        target = reachable_target(surf, [[0, 1, 0], [1, 0, 1]])
        params = GAParams(population=10, generations=8, seed=123)
        r1 = run_ga(surf, PW, target, params)
        r2 = run_ga(surf, PW, target, params)
        assert np.array_equal(r1.best_config.states, r2.best_config.states)
        assert r1.best_fitness == r2.best_fitness
        assert r1.history == r2.history
        assert r1.evaluations == r2.evaluations

    def test_best_field_is_the_best_config_rendered(self):
        surf, _ = build_surface(one_bit_cell(), 2, 3)
        target = reachable_target(surf, [[0, 1, 0], [1, 0, 1]])
        res = run_ga(surf, PW, target, GAParams(population=10, generations=4, seed=1))
        rendered = FieldEvaluator(surf, PW, target.grid).field(res.best_config)
        assert np.array_equal(res.best_field.values, rendered.values)

    def test_history_monotone_and_sized(self):
        surf, _ = build_surface(one_bit_cell(), 2, 3)
        target = reachable_target(surf, [[0, 1, 0], [1, 0, 1]])
        params = GAParams(population=10, generations=15, seed=5)
        res = run_ga(surf, PW, target, params)
        assert len(res.history) == 15
        assert all(a <= b for a, b in zip(res.history, res.history[1:]))

    def test_never_below_initial_best(self):
        surf, _ = build_surface(one_bit_cell(), 2, 2)
        target = reachable_target(surf, [[0, 0], [1, 1]])
        params = GAParams(population=6, generations=1, seed=99, elitism=2)
        res = run_ga(surf, PW, target, params)
        rng = np.random.default_rng(99)
        init = rng.integers(0, 2, size=(6, 4), dtype=np.int64)
        init_best = max(
            fitness(ConfigMatrix(states=row.reshape(2, 2)), target, surf, PW)
            for row in init
        )
        assert res.best_fitness >= init_best

    def test_expanded_config_is_valid_for_groups(self):
        surf, _ = build_surface(one_bit_cell(), 2, 4, group_size=2)
        target = reachable_target(surf, [[0, 0, 1, 1], [1, 1, 0, 0]])
        res = run_ga(surf, PW, target, GAParams(population=8, generations=5, seed=3))
        assert res.best_config.states.shape == (2, 4)
        flat = res.best_config.states.ravel()
        assert np.all(flat[0::2] == flat[1::2])  # row-major pairs share state

    def test_memory_does_not_grow_with_generations(self):
        # The population's fitness array is the only record of scores, so
        # ten times the generations must not cost more memory.
        surf, _ = build_surface(load_unit_cell("S0"), 20, 20)
        states = np.random.default_rng(0).integers(0, 4, size=(20, 20))
        target = normalized(FieldEvaluator(surf, PW, GridSpec(30.0, 30.0)).field(
            ConfigMatrix(states=states)))
        peaks = {}
        for generations in (30, 300):
            params = GAParams(population=10, generations=generations, seed=7)
            tracemalloc.start()
            try:
                run_ga(surf, PW, target, params)
                peaks[generations] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[300] - peaks[30] < 1_000_000

    def test_child_equal_to_a_parent_keeps_its_score(self):
        # Without crossover or mutation every child copies a parent, so only
        # the initial population is ever scored.
        surf, _ = build_surface(one_bit_cell(), 2, 3)
        target = reachable_target(surf, [[0, 1, 0], [1, 0, 1]])
        params = GAParams(population=8, generations=5, crossover_prob=0.0,
                          mutation_prob_per_gene=0.0, seed=4)
        assert run_ga(surf, PW, target, params).evaluations == 8

    def test_without_crossover_or_mutation_each_child_is_a_parent(self):
        rng = np.random.default_rng(6)
        pop = rng.integers(0, 4, size=(8, 30)).astype(np.uint8)
        fits = rng.random(8)
        params = GAParams(population=8, crossover_prob=0.0, mutation_prob_per_gene=0.0)
        children = _breed(rng, pop, fits, params, 0.0, 4)
        assert children.shape == (6, 30) and children.dtype == np.uint8
        assert all((pop == child).all(axis=1).any() for child in children)

    def test_generation_with_nothing_new_ranks_nothing(self, monkeypatch):
        # A 1x1 1-bit surface has two chromosomes, both in the initial
        # population, so no child is ever ranked.
        import risbench.ga as ga_mod

        rows = []
        orig = ga_mod._Objective.rank
        monkeypatch.setattr(ga_mod._Objective, "rank",
                            lambda self, c: rows.append(len(c)) or orig(self, c))
        surf, _ = build_surface(one_bit_cell(), 1, 1)
        target = reachable_target(surf, [[1]])
        res = run_ga(surf, PW, target, GAParams(population=20, generations=10, seed=2))
        assert res.evaluations == 20
        assert sum(rows) == 20 and 0 not in rows

    def test_genes_hold_every_state_of_a_9_bit_cell(self, tmp_path):
        # Only states 256..511 reflect fully, so the best configuration holds
        # states that do not fit one byte.
        states = [{"mag": 0.01 if i < 256 else 1.0, "phase_deg": 0.0} for i in range(512)]
        doc = {"id": "S9", "n_bits": 9, "n_diodes": 9, "states": states, "q": 1.0,
               "width_mm": 15.0, "height_mm": 15.0, "freq_ghz": 10.0}
        (tmp_path / "cell.json").write_text(json.dumps(doc))
        surf, _ = build_surface(load_unit_cell(tmp_path / "cell.json"), 1, 2)
        target = reachable_target(surf, [[511, 300]])
        res = run_ga(surf, PW, target, GAParams(population=20, generations=5, seed=1))
        assert res.best_config.states.dtype == np.int64
        assert res.best_config.states.min() > 255

    def test_report_is_exact_and_evaluations_count_rank_calls(self, monkeypatch):
        # The GA ranks in float32; what it reports is float64, exactly.
        import risbench.ga as ga_mod

        rows = []
        orig = ga_mod._Objective.rank
        monkeypatch.setattr(ga_mod._Objective, "rank",
                            lambda self, c: rows.append(len(c)) or orig(self, c))
        src = SourceModel.point((0.01, -0.02, 0.3))
        surf, _ = build_surface(load_unit_cell("S3"), 8, 8, 2)
        target = ideal_target_field(load_benchmark("B8"), GridSpec(2.0, 2.0))
        res = run_ga(surf, src, target, GAParams(population=16, generations=12, seed=3))
        assert res.best_fitness == fitness(res.best_config, target, surf, src)
        assert res.history[-1] == res.best_fitness
        assert all(a <= b for a, b in zip(res.history, res.history[1:]))
        rendered = FieldEvaluator(surf, src, target.grid).field(res.best_config)
        assert np.array_equal(res.best_field.values, rendered.values)
        assert res.evaluations == sum(rows)

    @staticmethod
    def search_digest(threads=1):
        surf, _ = build_surface(load_unit_cell("S0"), 6, 6)
        target = ideal_target_field(load_benchmark("B1"), GridSpec(6.0, 6.0))
        res = run_ga(surf, PW, target, GAParams(population=20, generations=10, seed=42),
                     threads=threads)
        digest = hashlib.sha256(res.best_config.states.astype("<i8").tobytes()
                                + np.asarray(res.history, "<f8").tobytes())
        return digest.hexdigest()[:16]

    def test_search_revision_names_the_search(self):
        assert self.search_digest() == SEARCH_DIGESTS[SEARCH_REVISION]

    def test_search_revision_holds_on_two_threads(self):
        assert self.search_digest(threads=2) == SEARCH_DIGESTS[SEARCH_REVISION]

    def test_thread_count_leaves_result_unchanged(self):
        src = SourceModel.point((0.01, -0.02, 0.3))
        surf, _ = build_surface(load_unit_cell("S3"), 8, 8, 2)
        target = ideal_target_field(load_benchmark("B8"), GridSpec(2.0, 2.0))
        params = GAParams(population=16, generations=12, seed=3)
        base, *others = (run_ga(surf, src, target, params, threads=t) for t in (1, 2, 3))
        for res in others:
            assert np.array_equal(res.best_config.states, base.best_config.states)
            assert res.best_fitness == base.best_fitness
            assert res.history == base.history
            assert res.evaluations == base.evaluations
            assert np.array_equal(res.best_field.values, base.best_field.values)

    def test_thread_count_leaves_stacked_result_unchanged(self):
        # The 2 deg ranker of a 40x40 surface takes stacks of 6: 13 rows are
        # stacks of 6, 6 and 1, which 2 and 3 threads share unevenly.
        src = SourceModel.point((0.0, -0.2, 0.6))
        surf, _ = build_surface(load_unit_cell("S3"), 40, 40, 4)
        target = ideal_target_field(load_benchmark("B8"), GridSpec(2.0, 2.0))
        assert _Objective(surf, src, target)._ranker.stack_size == 6
        params = GAParams(population=13, generations=3, seed=5)
        base, *others = (run_ga(surf, src, target, params, threads=t) for t in (1, 2, 3))
        for res in others:
            assert np.array_equal(res.best_config.states, base.best_config.states)
            assert res.best_fitness == base.best_fitness
            assert res.history == base.history
            assert np.array_equal(res.best_field.values, base.best_field.values)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_rank_error_propagates_and_closes_the_pool(self, monkeypatch, threads):
        import risbench.ga as ga_mod

        calls = []
        orig = ga_mod._Objective.rank

        def rank(self, chromosome):
            calls.append(1)
            if len(calls) == 5:
                raise FloatingPointError("fifth rank call")
            return orig(self, chromosome)

        monkeypatch.setattr(ga_mod._Objective, "rank", rank)
        surf, _ = build_surface(one_bit_cell(), 2, 3)
        target = reachable_target(surf, [[0, 1, 0], [1, 0, 1]])
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="fifth"):
            run_ga(surf, PW, target, GAParams(population=10, generations=4, seed=1),
                   threads=threads)
        assert threading.active_count() == before

    def test_threads_below_one_rejected(self):
        surf, _ = build_surface(one_bit_cell(), 1, 2)
        target = reachable_target(surf, [[0, 1]])
        with pytest.raises(NonPositiveParam):
            run_ga(surf, PW, target, GAParams(population=4, generations=1), threads=0)


class TestGaVsOracle:
    def test_1x2_one_bit_attains_optimum(self):
        surf, _ = build_surface(one_bit_cell(), 1, 2)
        target = reachable_target(surf, [[0, 1]])
        _, best = exhaustive_search(surf, PW, target)
        res = run_ga(surf, PW, target, GAParams(seed=42))
        assert abs(res.best_fitness - best) < 1e-15

    def test_2x2_one_bit_attains_optimum(self):
        surf, _ = build_surface(one_bit_cell(), 2, 2)
        target = reachable_target(surf, [[0, 1], [1, 0]])
        _, best = exhaustive_search(surf, PW, target)
        res = run_ga(surf, PW, target, GAParams(seed=42))
        assert abs(res.best_fitness - best) < 1e-15

    def test_1x2_two_bit_attains_optimum(self):
        surf, _ = build_surface(load_unit_cell("S0"), 1, 2)
        target = reachable_target(surf, [[2, 1]])
        _, best = exhaustive_search(surf, PW, target)
        res = run_ga(surf, PW, target, GAParams(seed=42))
        assert abs(res.best_fitness - best) < 1e-15


class TestExhaustiveSearch:
    def test_tie_break_is_lexicographic(self):
        # With ideal 1-bit states, complementing every cell flips the field's
        # sign, so fitness ties pairwise; the all-complement of the winner
        # must not be returned.
        surf, _ = build_surface(one_bit_cell(), 1, 2)
        target = reachable_target(surf, [[0, 1]])
        cfg, _ = exhaustive_search(surf, PW, target)
        assert cfg.states[0, 0] == 0  # lex-lowest of the tied pair


class TestGroupingSubset:
    def test_g2_optimum_never_beats_g1(self):
        cell = one_bit_cell(mags=(0.95, 0.92))
        surf1, _ = build_surface(cell, 2, 2, group_size=1)
        surf2, _ = build_surface(cell, 2, 2, group_size=2)
        target = reachable_target(surf1, [[0, 1], [1, 0]])
        _, f1 = exhaustive_search(surf1, PW, target)
        _, f2 = exhaustive_search(surf2, PW, target)
        assert f2 <= f1 + 1e-15

    def test_two_bit_grouping_subset(self):
        surf1, _ = build_surface(load_unit_cell("S0"), 1, 4, group_size=1)
        surf2, _ = build_surface(load_unit_cell("S0"), 1, 4, group_size=2)
        target = reachable_target(surf1, [[0, 1, 2, 3]])
        _, f1 = exhaustive_search(surf1, PW, target)
        _, f2 = exhaustive_search(surf2, PW, target)
        assert f2 <= f1 + 1e-15
