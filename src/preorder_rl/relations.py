"""Pairwise relations between actions, induced on raw reward vectors.

Given two reward vectors and a priority preorder, an action dominates
another when some objective it improves on strictly outranks every
objective the other improves on.  When the two actions improve on
mutually incomparable objectives the pair is incomparable; with no
strict improvement either way they are indifferent.

:func:`oracle_survivors` filters actions with known reward vectors.  It
walks no graph itself: it turns the rewards into per-objective verdicts
and runs :func:`~preorder_rl.selection.filter_verdicts`, the walk behind
:func:`~preorder_rl.selection.select`.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import EmptySetError, LengthMismatch
from .preorder import PreorderGraph
from .selection import filter_verdicts


class ActionRelation(Enum):
    DOMINATES = "dominates"
    DOMINATED_BY = "dominated_by"
    INDIFFERENT = "indifferent"
    INCOMPARABLE = "incomparable"


def _as_reward_vector(rewards, n_objectives: int) -> np.ndarray:
    vec = np.asarray(rewards, dtype=float)
    if vec.shape != (n_objectives,):
        raise LengthMismatch(f"expected a reward vector of length {n_objectives}, got shape {vec.shape}")
    nan = np.flatnonzero(np.isnan(vec))
    if nan.size:
        raise ValueError(f"reward for objective {nan[0]} is NaN")
    return vec


def relate(graph: PreorderGraph, rewards_a, rewards_b) -> ActionRelation:
    """Classify the relation of action a to action b under ``graph``.

    The classification is antisymmetric by construction: swapping the
    arguments swaps DOMINATES and DOMINATED_BY and fixes the other two.
    With a single objective it reduces to the scalar comparison.
    """
    ra = _as_reward_vector(rewards_a, graph.n_objectives)
    rb = _as_reward_vector(rewards_b, graph.n_objectives)
    a_better = np.flatnonzero(ra > rb)
    b_better = np.flatnonzero(rb > ra)
    if a_better.size == 0 and b_better.size == 0:
        return ActionRelation.INDIFFERENT
    # Opposing improvements on mutually incomparable objectives settle the
    # pair before any dominance witness is considered; otherwise swapping
    # the arguments could flip between dominance and incomparability.
    for i in a_better:
        for j in b_better:
            if not graph.comparable(int(i), int(j)):
                return ActionRelation.INCOMPARABLE
    if _has_witness(graph, a_better, b_better):
        return ActionRelation.DOMINATES
    if _has_witness(graph, b_better, a_better):
        return ActionRelation.DOMINATED_BY
    return ActionRelation.INDIFFERENT


def _has_witness(graph: PreorderGraph, winners: np.ndarray, losers: np.ndarray) -> bool:
    # Some improved objective strictly outranks every objective lost on.
    return any(
        all(graph.strictly_precedes(int(j), int(i)) for i in losers)
        for j in winners
    )


def oracle_survivors(graph: PreorderGraph, rewards) -> dict[int, frozenset[int]]:
    """Per-objective survivor sets for actions with known reward vectors.

    This is the preorder filter on exact rewards: each objective's own
    verdict on a pair is the strict comparison of the two rewards, and
    :func:`~preorder_rl.selection.filter_verdicts`, the walk behind
    :func:`~preorder_rl.selection.select`, inherits, clears conflicts and
    keeps survivors.  A pair that is incomparable under :func:`relate` is
    a two-way conflict on every objective, so neither side is ever pruned
    by the other.  The walk's fallback (the best-rewarded inherited
    survivors) is shared with ``select``; it never fired on random inputs.

    Args:
        graph: priority preorder over the objectives.
        rewards: one reward vector per action, each of length
            ``graph.n_objectives``.

    Returns:
        Mapping from objective index to the frozen set of surviving
        action indices.  Every set is non-empty.
    """
    vectors = [_as_reward_vector(r, graph.n_objectives) for r in rewards]
    if not vectors:
        raise EmptySetError("need at least one action")
    by_objective = np.array(vectors).T
    above = by_objective[:, :, None] > by_objective[:, None, :]
    below = by_objective[:, :, None] < by_objective[:, None, :]
    for a in range(len(vectors)):
        for b in range(a + 1, len(vectors)):
            if relate(graph, vectors[a], vectors[b]) is ActionRelation.INCOMPARABLE:
                above[:, [a, b], [b, a]] = below[:, [a, b], [b, a]] = True
    return filter_verdicts(graph, above, below, by_objective).survivors
