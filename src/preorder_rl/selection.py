"""Survivor-set action filtering guided by the objective preorder.

Objectives are visited in topological order.  Each inherits the verdict
matrices of its direct parents (element-wise OR) and the aggregate of
their survivor sets, evaluates the comparator only on pairs no parent
has already decided, clears two-way conflicts, and keeps the inherited
survivors that no other inherited survivor still dominates.  The leaf
survivor sets, merged through a virtual global leaf, are the actions a
policy may play.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .comparators import ComparatorConfig, QuantileMatrix, action_scores, classify_pairs
from .errors import EmptySetError, ShapeMismatch
from .preorder import PreorderGraph

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SelectionState:
    """Filter output: per-objective verdict matrices and survivor sets.

    ``fallbacks`` lists the objectives where comparator verdicts left no
    inherited survivor standing and the best-scored inherited survivors
    were retained instead.
    """

    dom: dict[int, np.ndarray]
    dom_by: dict[int, np.ndarray]
    survivors: dict[int, frozenset[int]]
    fallbacks: tuple[int, ...] = ()


def aggregate_survivor_sets(sets: Sequence[frozenset[int]]) -> frozenset[int]:
    """Intersection of the sets, falling back to their union when the
    intersection is empty.  Incomparable branches usually agree on some
    action; when they do not, no branch is allowed to veto the others."""
    if not sets:
        raise EmptySetError("no survivor sets to aggregate")
    merged = frozenset.intersection(*sets)
    return merged if merged else frozenset.union(*sets)


def _per_objective_configs(configs, n_objectives: int) -> list[ComparatorConfig]:
    if isinstance(configs, ComparatorConfig):
        return [configs] * n_objectives
    configs = list(configs)
    if len(configs) != n_objectives:
        raise ShapeMismatch(f"expected {n_objectives} comparator configs, got {len(configs)}")
    return configs


def select(graph: PreorderGraph, quantiles: Sequence[QuantileMatrix],
           configs: ComparatorConfig | Sequence[ComparatorConfig]) -> SelectionState:
    """Run the preorder filter on one quantile matrix per objective.

    Args:
        graph: priority preorder; objective i uses ``quantiles[i]``.
        quantiles: per-objective (quantiles, actions) matrices with a
            shared action count.
        configs: one comparator config for all objectives, or one per
            objective.

    Returns:
        A :class:`SelectionState` with non-empty survivor sets for every
        objective.
    """
    if len(quantiles) != graph.n_objectives:
        raise ShapeMismatch(f"expected {graph.n_objectives} quantile matrices, got {len(quantiles)}")
    n_actions = quantiles[0].n_actions
    if any(m.n_actions != n_actions for m in quantiles):
        raise ShapeMismatch("quantile matrices disagree on the action count")
    cfgs = _per_objective_configs(configs, graph.n_objectives)

    dom: dict[int, np.ndarray] = {}
    dom_by: dict[int, np.ndarray] = {}
    survivors: dict[int, frozenset[int]] = {}
    fallbacks: list[int] = []
    for obj in graph.topological_sort():
        parent_ids = sorted(graph.parents(obj))
        if parent_ids:
            up = aggregate_survivor_sets([survivors[p] for p in parent_ids])
            dom_up = np.logical_or.reduce([dom[p] for p in parent_ids])
            dom_by_up = np.logical_or.reduce([dom_by[p] for p in parent_ids])
        else:
            up = frozenset(range(n_actions))
            dom_up = np.zeros((n_actions, n_actions), dtype=bool)
            dom_by_up = np.zeros((n_actions, n_actions), dtype=bool)

        undecided = ~(dom_up | dom_by_up)
        np.fill_diagonal(undecided, False)
        verdict = classify_pairs(quantiles[obj], cfgs[obj], undecided)
        dom_here = dom_up | verdict.dom
        dom_by_here = dom_by_up | verdict.dom_by
        conflicts = dom_here & dom_by_here
        effective_dom_by = dom_by_here & ~conflicts

        up_mask = np.zeros(n_actions, dtype=bool)
        up_mask[list(up)] = True
        kept = up_mask & ~(effective_dom_by & up_mask).any(axis=1)
        if not kept.any():
            # Circular verdicts can eliminate everyone; keep the
            # best-scored inherited survivors so the set stays usable.
            scores = action_scores(quantiles[obj], cfgs[obj])
            kept = up_mask & (scores == scores[up_mask].max())
            fallbacks.append(obj)
            _log.debug("fallback at objective %d: no inherited survivor kept", obj)
        survivors[obj] = frozenset(np.flatnonzero(kept).tolist())
        dom[obj] = dom_here
        dom_by[obj] = dom_by_here
    return SelectionState(dom, dom_by, survivors, tuple(fallbacks))


def global_leaf_survivors(state: SelectionState, graph: PreorderGraph) -> frozenset[int]:
    """Survivors of the virtual global leaf: the leaf survivor sets
    merged with the same intersection-then-union rule used inside the
    traversal."""
    return aggregate_survivor_sets([state.survivors[leaf] for leaf in sorted(graph.leaves())])


def sample_action(survivors: frozenset[int], rng: np.random.Generator) -> int:
    """Draw uniformly from a survivor set."""
    if not survivors:
        raise EmptySetError("cannot sample from an empty survivor set")
    ordered = sorted(survivors)
    return ordered[int(rng.integers(len(ordered)))]
