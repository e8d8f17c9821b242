"""Genetic search over group-level diode states, plus a tiny-instance oracle.

The chromosome holds one state index per control group (length M*N/G), so
grouping shrinks the search space and models shared control lines with the
same mechanism.  Fitness is the negated NMSE between the achieved field and
the target; DE and SLR stay evaluation-only.  All randomness comes from one
seeded generator consumed in a fixed order, so a seed pins the entire run.
Each generation is bred in full and then scored: a child equal to a member
of the current population, or to a child already scored in the same
generation, keeps that score, so no record outlives one generation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveParam, SearchSpaceTooLarge
from .field import FieldEvaluator, FieldGrid, SourceModel, peak_magnitude
from .metrics import nmse
from .surface import ConfigMatrix, SurfaceSpec, expand_groups, group_layout


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
    """Fitness of a group-state chromosome.

    Equals ``-nmse(target, evaluator.field(config))`` exactly, because both
    take the field from the same ``front`` kernel; this skips only the
    FieldGrid construction.  The back hemisphere of both fields is
    identically zero, so its difference terms are written once as zeros and
    the mean runs over the same full-length array in the same order as the
    public metric.
    """

    def __init__(self, surface: SurfaceSpec, src: SourceModel, target: FieldGrid):
        self.layout = group_layout(surface.rows_m, surface.cols_n, surface.group_size)
        self.n_states = surface.cell.n_states
        self.evaluator = FieldEvaluator(surface, src, target.grid)
        self.evaluations = 0

        t_mags = target.magnitude()
        t_norm = (t_mags / peak_magnitude(t_mags)).ravel()
        if np.any(t_norm[self.evaluator.front_size:] != 0.0):
            raise NonPositiveParam("target carries power in the back hemisphere")
        self._diff = t_norm.copy()  # back entries stay t_norm - 0 = 0
        self._t_norm_front = t_norm[: self.evaluator.front_size]

    def config_of(self, chromosome: np.ndarray) -> ConfigMatrix:
        return expand_groups(chromosome, self.layout, self.n_states)

    def __call__(self, chromosome: np.ndarray) -> float:
        mags = np.abs(self.evaluator.front(chromosome[self.layout.assignment]))
        peak = peak_magnitude(mags)
        np.subtract(self._t_norm_front, mags / peak, out=self._diff[: mags.size])
        self.evaluations += 1
        return -float(np.mean(self._diff * self._diff))


def fitness(config: ConfigMatrix, target: FieldGrid, surface: SurfaceSpec,
            src: SourceModel) -> float:
    """Negated NMSE of the configured surface's field against the target."""
    achieved = FieldEvaluator(surface, src, target.grid).field(config)
    return -nmse(target, achieved)


def run_ga(surface: SurfaceSpec, src: SourceModel, target: FieldGrid,
           params: GAParams | None = None) -> GAResult:
    """Tournament-selection GA with uniform crossover and elitism."""
    params = params or GAParams()
    objective = _Objective(surface, src, target)
    n_genes = objective.layout.n_groups
    n_states = objective.n_states
    p_mut = (params.mutation_prob_per_gene
             if params.mutation_prob_per_gene is not None else 1.0 / n_genes)

    rng = np.random.default_rng(params.seed)
    pop = rng.integers(0, n_states, size=(params.population, n_genes), dtype=np.int64)
    fits = np.array([objective(ind) for ind in pop])

    def tournament() -> int:
        idx = rng.integers(0, params.population, size=params.tournament_size)
        return int(idx[np.argmax(fits[idx])])

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
        # scoring draws nothing, so it follows breeding; the objective is pure,
        # so a chromosome already in the population or already scored keeps its score
        scores = {ind.tobytes(): fit for ind, fit in zip(pop, fits)}
        child_fits = np.empty(children.shape[0])
        for i, child in enumerate(children):
            key = child.tobytes()
            if key not in scores:
                scores[key] = objective(child)
            child_fits[i] = scores[key]

        pop = np.vstack([pop[elites], children])
        fits = np.concatenate([fits[elites], child_fits])
        history.append(float(fits.max()))

    best = int(np.argmax(fits))
    best_config = objective.config_of(pop[best])
    return GAResult(
        best_config=best_config,
        best_field=objective.evaluator.field(best_config),
        best_fitness=float(fits[best]),
        history=tuple(history),
        evaluations=objective.evaluations,
    )


EXHAUSTIVE_GUARD = 2 ** 20


def exhaustive_search(surface: SurfaceSpec, src: SourceModel,
                      target: FieldGrid) -> tuple[ConfigMatrix, float]:
    """Enumerate every group-state assignment; ties keep the lexicographically
    lowest chromosome."""
    n_states = surface.cell.n_states
    total = n_states ** surface.n_groups
    if total > EXHAUSTIVE_GUARD:
        raise SearchSpaceTooLarge(
            f"{n_states}^{surface.n_groups} = {total} configurations exceed "
            f"the {EXHAUSTIVE_GUARD} guard"
        )
    objective = _Objective(surface, src, target)
    best_chromo = None
    best_fit = -np.inf
    for genes in itertools.product(range(n_states), repeat=surface.n_groups):
        chromo = np.array(genes, dtype=np.int64)
        fit = objective(chromo)
        if fit > best_fit:
            best_fit = fit
            best_chromo = chromo
    return objective.config_of(best_chromo), float(best_fit)
