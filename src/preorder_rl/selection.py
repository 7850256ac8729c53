"""Survivor-set action filtering guided by the objective preorder.

Objectives are visited in topological order.  Each inherits the verdict
matrices of its direct parents (element-wise OR) and the aggregate of
their survivor sets, evaluates the comparator only on pairs no parent
has already decided, clears two-way conflicts, and keeps the inherited
survivors that no other inherited survivor still dominates.  The leaf
survivor sets, merged through a virtual global leaf, are the actions a
policy may play.

:func:`select` scores every head in one vectorized
:func:`~preorder_rl.comparators.score_heads` call per comparator config
and thresholds all pairwise score gaps of a group at once; the walk
then combines these boolean verdict matrices objective by objective.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .comparators import ComparatorConfig, QuantileMatrix, score_heads
# perfbench/tracer.py wraps these names here; select itself no longer calls them.
from .comparators import action_scores, classify_pairs  # noqa: F401
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
    n_objectives = graph.n_objectives
    if len(quantiles) != n_objectives:
        raise ShapeMismatch(f"expected {n_objectives} quantile matrices, got {len(quantiles)}")
    n_actions = quantiles[0].n_actions
    if any(m.n_actions != n_actions for m in quantiles):
        raise ShapeMismatch("quantile matrices disagree on the action count")
    cfgs = _per_objective_configs(configs, n_objectives)

    # Heads stack only with heads of the same config, shape and memory
    # layout, so each is scored exactly as it would be on its own.
    groups: dict[tuple, list[int]] = {}
    for obj, m in enumerate(quantiles):
        groups.setdefault((cfgs[obj], m.values.shape, m.values.strides), []).append(obj)
    scores: list = [None] * n_objectives
    above: list = [None] * n_objectives
    below: list = [None] * n_objectives
    for (cfg, _, _), objs in groups.items():
        values = np.stack([quantiles[obj].values for obj in objs]).transpose(0, 2, 1)
        group_scores = score_heads(values, cfg)
        gap = group_scores[:, :, None] - group_scores[:, None, :]
        for obj, row, beats, beaten in zip(objs, group_scores, gap > cfg.epsilon,
                                           gap < -cfg.epsilon):
            scores[obj], above[obj], below[obj] = row, beats, beaten

    off_diagonal = ~np.eye(n_actions, dtype=bool)
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
            dom_up = dom_by_up = np.zeros((n_actions, n_actions), dtype=bool)
        # Only pairs no parent has decided take this objective's verdict.
        undecided = off_diagonal & ~(dom_up | dom_by_up)
        dom_here = dom_up | (above[obj] & undecided)
        dom_by_here = dom_by_up | (below[obj] & undecided)
        # An inherited action survives unless an inherited action beats it
        # outside a conflict (a pair decided both ways eliminates no one).
        up_mask = np.zeros(n_actions, dtype=bool)
        up_mask[list(up)] = True
        kept = up_mask & ~(dom_by_here & ~dom_here & up_mask).any(axis=1)
        if not kept.any():
            # Circular verdicts can eliminate everyone; keep the
            # best-scored inherited survivors so the set stays usable.
            kept = up_mask & (scores[obj] == scores[obj][up_mask].max())
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
