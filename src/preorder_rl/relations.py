"""Pairwise relations between actions, induced on raw reward vectors.

Given two reward vectors and a priority preorder, an action dominates
another when some objective it improves on strictly outranks every
objective the other improves on.  When the two actions improve on
mutually incomparable objectives the pair is incomparable; with no
strict improvement either way they are indifferent.

:func:`oracle_survivors` filters actions with known reward vectors.  It
walks no graph itself: it turns the rewards into per-objective verdicts
and runs :func:`~preorder_rl.selection.filter_verdicts`, the walk behind
:func:`~preorder_rl.selection.select`.  Like that walk, both functions
answer with boolean products with ``graph.ancestors``, not set loops.
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


def _incomparable(graph: PreorderGraph, a_better: np.ndarray, b_better: np.ndarray) -> np.ndarray:
    # Some objective a improves on is incomparable to one b improves on.
    comparable = graph.ancestors | graph.ancestors.T
    return ((a_better @ ~comparable) & b_better).any(axis=-1)


def relate(graph: PreorderGraph, rewards_a, rewards_b) -> ActionRelation:
    """Classify the relation of action a to action b under ``graph``.

    The classification is antisymmetric by construction: swapping the
    arguments swaps DOMINATES and DOMINATED_BY and fixes the other two.
    With a single objective it reduces to the scalar comparison.
    """
    ra = _as_reward_vector(rewards_a, graph.n_objectives)
    rb = _as_reward_vector(rewards_b, graph.n_objectives)
    a_better, b_better = ra > rb, rb > ra
    # Opposing improvements on mutually incomparable objectives settle the
    # pair before any dominance witness is considered; otherwise swapping
    # the arguments could flip between dominance and incomparability.
    if _incomparable(graph, a_better, b_better):
        return ActionRelation.INCOMPARABLE
    # A witness is an improved objective that outranks every one lost on.
    if (a_better & ~(b_better @ ~graph.ancestors)).any():
        return ActionRelation.DOMINATES
    if (b_better & ~(a_better @ ~graph.ancestors)).any():
        return ActionRelation.DOMINATED_BY
    return ActionRelation.INDIFFERENT


def oracle_survivors(graph: PreorderGraph, rewards) -> dict[int, frozenset[int]]:
    """Per-objective survivor sets for actions with known reward vectors.

    This is the preorder filter on exact rewards: each objective's own
    verdict on a pair is the strict comparison of the two rewards, and
    :func:`~preorder_rl.selection.filter_verdicts`, the walk behind
    :func:`~preorder_rl.selection.select`, inherits, clears conflicts and
    keeps survivors.  A pair that is incomparable under :func:`relate` is
    a two-way conflict on every objective, so neither side is ever pruned
    by the other; one boolean product finds every such pair at once.  The
    walk's fallback (the best-rewarded inherited survivors) is shared
    with ``select``; it never fired on random inputs.

    Args:
        graph: priority preorder over the objectives.
        rewards: one reward vector per action, each of length
            ``graph.n_objectives``.

    Returns:
        Mapping from objective index to the frozen set of surviving
        action indices.  Every set is non-empty.
    """
    vectors = np.array([_as_reward_vector(r, graph.n_objectives) for r in rewards])
    if not len(vectors):
        raise EmptySetError("need at least one action")
    # better[b, a, obj]: action a's reward beats action b's on obj.
    better = vectors[None, :, :] > vectors[:, None, :]
    conflict = _incomparable(graph, better, better.transpose(1, 0, 2))
    above = better.T | conflict
    return filter_verdicts(graph, above, above.transpose(0, 2, 1), vectors.T).survivors
