"""Genetic search over group-level diode states.

The chromosome holds one state index per control group (length M*N/G), so
grouping shrinks the search space and models shared control lines with the
same mechanism.  Fitness is the negated NMSE between the achieved field and
the target; DE and SLR stay evaluation-only.  All randomness comes from one
seeded generator consumed in a fixed order, so a seed pins the entire run.
Each generation is bred in full and then scored: a child equal to a member
of the current population, or to a child already scored in the same
generation, keeps that score, so no record outlives one generation.
Breeding takes a handful of whole-array draws per generation, not a few
per child (``_breed``), and a chromosome is held in the smallest unsigned
type that holds every state index (``uint8`` for every bundled cell), so
the byte keys that find a repeated child are one byte per gene.  Each
row's key is taken once, when the row is bred, and kept beside it.

The search ranks in single precision (float32 tables, complex64 weights)
and reports in float64.  Every chromosome is ranked by a float32 score;
each generation's float32 winner is then scored through
``FieldEvaluator.field``, the path ``fitness`` takes, and becomes the
incumbent only if that score beats the incumbent's.  So
``best_fitness`` equals ``-nmse(target, field(best_config))`` bit for bit,
``best_field`` is ``field(best_config)``, each ``history`` entry is the
exact fitness of that generation's incumbent, and ``history`` never
decreases.  ``fitness`` scores in float64 only.

``run_ga`` ranks each batch of chromosomes in stacks, one kernel call per
stack (``FieldEvaluator.stack_size`` chromosomes, the last stack ragged),
and may share the stacks among several threads.  The stacks are cut in
batch order before they are shared, so each chromosome is ranked in the
same stack at any thread count; a stack's scores are a pure function of its
chromosomes and go back in batch order, so on any BLAS kernel the result
is bit for bit the same at any thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import ClassVar

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
#   5: ranking in stacks of chromosomes, one kernel call per stack; a
#      chromosome's float32 bits may depend on its stack on some BLAS kernels
#   6: each generation bred in whole-array draws (a new random stream), on
#      chromosomes of the smallest unsigned type; complex64 ranker weights
#   7: fields hold the front hemisphere only, so NMSE sums the front and
#      divides by the sphere's point count: its last bits move
SEARCH_REVISION = 7


@dataclass(frozen=True)
class GAParams:
    """The search's budget and seed; the stopping rule is a fixed generation
    budget.  Breeding is fixed: its settings are class constants, not fields."""

    population: int = 100
    generations: int = 350
    seed: int = 42
    elitism: ClassVar[int] = 2
    tournament_size: ClassVar[int] = 2
    crossover_prob: ClassVar[float] = 0.9
    mutations_per_chromosome: ClassVar[float] = 1.0  # expected; a gene mutates w.p. this / genes

    def __post_init__(self):
        if self.population <= self.elitism:
            raise NonPositiveParam(
                f"population must exceed elitism {self.elitism}, got {self.population}")
        if self.generations < 1:
            raise NonPositiveParam(f"generations must be >= 1, got {self.generations}")
        if self.seed < 0:
            raise NonPositiveParam(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class GAResult:
    best_config: ConfigMatrix
    best_field: FieldGrid       # far field of best_config on the target's grid
    best_fitness: float
    history: tuple[float, ...]  # best fitness after each generation, non-decreasing
    evaluations: int            # initial population + distinct new chromosomes per generation


class _Objective:
    """Search score of group-state chromosomes.

    ``rank`` scores a (B, n_genes) stack of chromosomes in one call of
    ``evaluator``'s kernel in single precision, summed over the grid and
    divided by the full sphere's point count, as ``nmse`` is.  It agrees with the
    exact fitness, ``-nmse(target, evaluator.field(config))``, to about 1e-6
    relative, enough to rank chromosomes; no reported value comes from it.
    """

    def __init__(self, surface: SurfaceSpec, src: SourceModel, target: FieldGrid):
        self.target = target
        self._group_ids = surface.group_ids()
        self.evaluator = FieldEvaluator(surface, src, target.grid)
        self._ranker = self.evaluator.astype(np.float32)

        t_mags = target.magnitude()
        self._t_norm = (t_mags / peak_magnitude(t_mags)).ravel().astype(np.float32)

    def rank(self, chromosomes: np.ndarray) -> np.ndarray:
        """(B,) float64 scores of a (B, n_genes) stack, one ``front`` call."""
        mags = np.abs(self._ranker.front(chromosomes[:, self._group_ids]))
        diff = self._t_norm - mags / mags.max(axis=1, keepdims=True)
        energy = (diff[:, None, :] @ diff[:, :, None])[:, 0, 0].astype(np.float64)
        return -energy / self.target.grid.sphere_points


def _breed(rng: np.random.Generator, pop: np.ndarray, fits: np.ndarray,
           n_states: int) -> np.ndarray:
    """One generation's ``len(pop) - elitism`` children, of ``pop``'s dtype.

    Each draw covers the whole generation.  Two tournaments per child, each
    won by the first of its fittest entrants.  A child takes each gene from
    its first parent where a fair coin says so or when it does not cross
    over, else from its second.  Then each gene mutates to a uniform state
    with probability ``p_mut``, ``GAParams.mutations_per_chromosome / genes``:
    the mutated genes are drawn as a Binomial(genes, p_mut) count of distinct
    positions, the same law as one coin per gene but without a random number
    per gene.
    """
    population, n_genes = pop.shape
    n_children = population - GAParams.elitism
    p_mut = GAParams.mutations_per_chromosome / n_genes
    entrants = rng.integers(0, population, size=(n_children, 2, GAParams.tournament_size))
    winners = np.argmax(fits[entrants], axis=2)[..., None]
    parents = np.take_along_axis(entrants, winners, axis=2)[..., 0]
    cross = rng.random(n_children) < GAParams.crossover_prob
    first = rng.integers(0, 2, size=(n_children, n_genes), dtype=bool) | ~cross[:, None]
    a, b = pop[parents[:, 0]], pop[parents[:, 1]]
    children = b ^ ((a ^ b) * first)  # np.where(first, a, b) without its branches
    mutated = rng.choice(children.size, size=rng.binomial(children.size, p_mut), replace=False)
    children.flat[mutated] = rng.integers(0, n_states, size=mutated.size, dtype=pop.dtype)
    return children


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

    size = objective._ranker.stack_size
    with ThreadPoolExecutor(threads - 1) if threads > 1 else nullcontext() as pool:
        def rank(batch: np.ndarray) -> list[float]:
            """The score of each row, in row order.  The batch is cut into
            stacks of ``size`` rows first, then the calling thread ranks the
            first ``1 / threads`` of the stacks while the pool ranks the rest."""
            stacks = [batch[lo:lo + size] for lo in range(0, len(batch), size)]
            cut = -(-len(stacks) // threads)
            others = pool.map(objective.rank, stacks[cut:]) if pool else ()
            return [s for scores in (*map(objective.rank, stacks[:cut]), *others) for s in scores]

        rng = np.random.default_rng(params.seed)
        # The smallest unsigned type that holds every state, so the dedup
        # keys below are short; expand_groups casts to int64.
        pop = rng.integers(0, n_states, size=(params.population, n_genes))
        pop = pop.astype(np.min_scalar_type(n_states - 1))
        fits = np.array(rank(pop))
        keys = [ind.tobytes() for ind in pop]
        evaluations = len(pop)

        # The incumbent is the best chromosome by exact fitness among the
        # generations' float32 winners; only it is reported.  A winner that
        # stays on top is scored exactly once.
        incumbent, best_fitness, best_field, checked = None, -np.inf, None, None
        history = []
        for _ in range(params.generations):
            elites = np.argsort(-fits, kind="stable")[: params.elitism]
            children = _breed(rng, pop, fits, n_states)
            # scoring draws nothing, so it follows breeding; the objective is
            # pure, so a chromosome already in the population or already
            # bred this generation keeps one score
            scores = dict(zip(keys, fits))
            child_keys = [child.tobytes() for child in children]
            fresh = {}
            for key, child in zip(child_keys, children):
                if key not in scores:
                    fresh.setdefault(key, child)
            batch = np.array(list(fresh.values()))
            scores.update(zip(fresh, rank(batch)))
            evaluations += len(fresh)
            child_fits = np.array([scores[key] for key in child_keys])

            pop = np.vstack([pop[elites], children])
            fits = np.concatenate([fits[elites], child_fits])
            keys = [keys[e] for e in elites] + child_keys
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

