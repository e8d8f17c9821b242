"""Genetic search over group-level diode states.

The chromosome holds one state index per control group (length M*N/G), so
grouping shrinks the search space and models shared control lines with the
same mechanism.  Fitness is the negated NMSE between the achieved field and
the target; DE and SLR stay evaluation-only.  All randomness comes from one
seeded generator consumed in a fixed order, so a seed pins the entire run.
Each generation is bred in full and then scored: a child equal to a member
of the current population, or to a child already scored in the same
generation, keeps that score, so no record outlives one generation.

The search ranks in float32 and reports in float64.  Every chromosome is
ranked by a float32 score; each generation's float32 winner is then scored
through ``FieldEvaluator.field``, the path ``fitness`` takes, and becomes
the incumbent only if that score beats the incumbent's.  So
``best_fitness`` equals ``-nmse(target, field(best_config))`` bit for bit,
``best_field`` is ``field(best_config)``, each ``history`` entry is the
exact fitness of that generation's incumbent, and ``history`` never
decreases.  ``fitness`` scores in float64 only.

``run_ga`` may score each batch of chromosomes on several threads; the
ranking is a pure function of the chromosome and the scores go back in
batch order, so the result is bit for bit the same at any thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveParam
from .field import FieldEvaluator, FieldGrid, SourceModel, peak_magnitude
from .metrics import nmse
from .surface import ConfigMatrix, SurfaceSpec, expand_groups

# Names what run_ga returns for given parameters; the reference cache keys on
# it.  Bump it with any change that can move run_ga's output.
#   1: float64 ranking (every entry written before the revision was keyed)
#   2: float32 ranking, float64 report
#   3: angle-addition steering tables
#   4: far-field kernel in direction blocks
SEARCH_REVISION = 4


@dataclass(frozen=True)
class GAParams:
    """Search knobs; the stopping rule is a fixed generation budget."""

    population: int = 100
    generations: int = 350
    crossover_prob: float = 0.9
    mutation_prob_per_gene: float | None = None  # default 1 / chromosome length
    elitism: int = 2
    tournament_size: int = 2
    seed: int = 42

    def __post_init__(self):
        if self.population < 2:
            raise NonPositiveParam(f"population must be >= 2, got {self.population}")
        if self.generations < 1:
            raise NonPositiveParam(f"generations must be >= 1, got {self.generations}")
        if not 0 <= self.elitism < self.population:
            raise NonPositiveParam(
                f"elitism must lie in [0, population), got {self.elitism}"
            )
        if self.tournament_size < 1:
            raise NonPositiveParam("tournament size must be >= 1")
        if self.seed < 0:
            raise NonPositiveParam(f"seed must be >= 0, got {self.seed}")
        for name, p in (("crossover_prob", self.crossover_prob),
                        ("mutation_prob_per_gene", self.mutation_prob_per_gene)):
            if p is not None and not 0.0 <= p <= 1.0:
                raise NonPositiveParam(f"{name} must lie in [0, 1], got {p}")


@dataclass(frozen=True)
class GAResult:
    best_config: ConfigMatrix
    best_field: FieldGrid       # far field of best_config on the target's grid
    best_fitness: float
    history: tuple[float, ...]  # best fitness after each generation, non-decreasing
    evaluations: int            # initial population + distinct new chromosomes per generation


class _Objective:
    """Search score of a group-state chromosome.

    ``rank`` is ``evaluator``'s kernel on float32 tables, summed over the
    front hemisphere only, plus the target's back-hemisphere energy, a
    constant since the achieved field is zero there.  It agrees with the
    exact fitness, ``-nmse(target, evaluator.field(config))``, to about 1e-6
    relative, enough to rank chromosomes; no reported value comes from it.
    """

    def __init__(self, surface: SurfaceSpec, src: SourceModel, target: FieldGrid):
        self.target = target
        self._group_ids = surface.group_ids()
        self.evaluator = FieldEvaluator(surface, src, target.grid)
        self._ranker = self.evaluator.astype(np.float32)

        t_mags = target.magnitude()
        t_norm = (t_mags / peak_magnitude(t_mags)).ravel()
        front = self.evaluator.front_size
        self._t_front = t_norm[:front].astype(np.float32)
        self._t_back_energy = float(t_norm[front:] @ t_norm[front:])

    def rank(self, chromosome: np.ndarray) -> float:
        mags = np.abs(self._ranker.front(chromosome[self._group_ids]))
        diff = self._t_front - mags / peak_magnitude(mags)
        return -(float(diff @ diff) + self._t_back_energy) / self.target.grid.n_points


def fitness(config: ConfigMatrix, target: FieldGrid, surface: SurfaceSpec,
            src: SourceModel) -> float:
    """Negated NMSE of the configured surface's field against the target."""
    achieved = FieldEvaluator(surface, src, target.grid).field(config)
    return -nmse(target, achieved)


def run_ga(surface: SurfaceSpec, src: SourceModel, target: FieldGrid,
           params: GAParams | None = None, threads: int = 1) -> GAResult:
    """Tournament-selection GA with uniform crossover and elitism.

    ``threads`` threads rank each batch: the initial population, then each
    generation's distinct new children.  The result does not depend on it.
    """
    params = params or GAParams()
    if threads < 1:
        raise NonPositiveParam(f"threads must be >= 1, got {threads}")
    objective = _Objective(surface, src, target)
    n_genes = surface.n_groups
    n_states = surface.cell.n_states
    p_mut = (params.mutation_prob_per_gene
             if params.mutation_prob_per_gene is not None else 1.0 / n_genes)

    with ThreadPoolExecutor(threads - 1) if threads > 1 else nullcontext() as pool:
        def rank(batch: np.ndarray) -> list[float]:
            """``objective.rank`` of each row, in row order.  The batch is cut
            into ``threads`` shares; the calling thread ranks the first while
            the pool ranks the others."""
            first, *rest = np.array_split(batch, threads)
            others = pool.map(lambda share: list(map(objective.rank, share)), rest) if rest else ()
            return list(map(objective.rank, first)) + [s for share in others for s in share]

        rng = np.random.default_rng(params.seed)
        pop = rng.integers(0, n_states, size=(params.population, n_genes), dtype=np.int64)
        fits = np.array(rank(pop))
        evaluations = len(pop)

        def tournament() -> int:
            idx = rng.integers(0, params.population, size=params.tournament_size)
            return int(idx[np.argmax(fits[idx])])

        # The incumbent is the best chromosome by exact fitness among the
        # generations' float32 winners; only it is reported.  A winner that
        # stays on top is scored exactly once.
        incumbent, best_fitness, best_field, checked = None, -np.inf, None, None
        history = []
        for _ in range(params.generations):
            elites = np.argsort(-fits, kind="stable")[: params.elitism]
            children = np.empty((params.population - params.elitism, n_genes), dtype=np.int64)
            for child in children:
                parents = (tournament(), tournament())
                if rng.random() < params.crossover_prob:
                    mask = rng.random(n_genes) < 0.5
                    child[:] = np.where(mask, pop[parents[0]], pop[parents[1]])
                else:
                    child[:] = pop[parents[0]]
                mut = rng.random(n_genes) < p_mut
                if mut.any():
                    child[mut] = rng.integers(0, n_states, size=int(mut.sum()))
            # scoring draws nothing, so it follows breeding; the objective is
            # pure, so a chromosome already in the population or already
            # bred this generation keeps one score
            scores = {ind.tobytes(): fit for ind, fit in zip(pop, fits)}
            fresh = {}
            for child in children:
                key = child.tobytes()
                if key not in scores:
                    fresh.setdefault(key, child)
            batch = np.array(list(fresh.values()))
            scores.update(zip(fresh, rank(batch)))
            evaluations += len(fresh)
            child_fits = np.array([scores[child.tobytes()] for child in children])

            pop = np.vstack([pop[elites], children])
            fits = np.concatenate([fits[elites], child_fits])
            top = pop[int(np.argmax(fits))]
            if checked is None or not np.array_equal(top, checked):
                checked, config = top, expand_groups(top, surface)
                field = objective.evaluator.field(config)
                exact = -nmse(target, field)
                if exact > best_fitness:
                    incumbent, best_fitness, best_field = config, exact, field
            history.append(best_fitness)

    return GAResult(
        best_config=incumbent,
        best_field=best_field,
        best_fitness=best_fitness,
        history=tuple(history),
        evaluations=evaluations,
    )

