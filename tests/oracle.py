"""Exhaustive optimum of a tiny surface: the reference the GA tests compare
against."""

import itertools

import numpy as np

from risbench.field import FieldEvaluator
from risbench.metrics import nmse
from risbench.surface import expand_groups


def exhaustive_search(surface, src, target):
    """``(config, fitness)`` of the best group-state assignment.  Every
    assignment is scored, in lexicographic order, as ``-nmse(target,
    field(config))``, which is ``ga.fitness`` bit for bit; the first
    chromosome with the largest computed fitness wins, so configurations
    that tie in exact arithmetic are ranked by their rounded fitness."""
    ev = FieldEvaluator(surface, src, target.grid)
    best_config, best_fit = None, -np.inf
    for genes in itertools.product(range(surface.cell.n_states), repeat=surface.n_groups):
        config = expand_groups(np.array(genes, dtype=np.int64), surface)
        fit = -nmse(target, ev.field(config))
        if fit > best_fit:
            best_config, best_fit = config, fit
    return best_config, float(best_fit)
