"""Pairwise relations between actions, induced on raw reward vectors.

Given two reward vectors and a priority preorder, an action dominates
another when some objective it improves on strictly outranks every
objective the other improves on.  When the two actions improve on
mutually incomparable objectives the pair is incomparable; with no
strict improvement either way they are indifferent.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import EmptySetError, LengthMismatch
from .preorder import PreorderGraph
from .selection import aggregate_survivor_sets


class ActionRelation(Enum):
    DOMINATES = "dominates"
    DOMINATED_BY = "dominated_by"
    INDIFFERENT = "indifferent"
    INCOMPARABLE = "incomparable"


def _as_reward_vector(rewards, n_objectives: int) -> np.ndarray:
    vec = np.asarray(rewards, dtype=float)
    if vec.shape != (n_objectives,):
        raise LengthMismatch(f"expected a reward vector of length {n_objectives}, got shape {vec.shape}")
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

    This is the reference filter on exact rewards: objectives are visited
    in topological order, each inherits its parents' verdicts, and only
    pairs still undecided are compared on the current objective's scalar
    reward.  A pair that is incomparable under :func:`relate` is recorded
    as a two-way conflict, which the conflict filter clears, so neither
    side is ever pruned by the other.

    Args:
        graph: priority preorder over the objectives.
        rewards: one reward vector per action, each of length
            ``graph.n_objectives``.

    Returns:
        Mapping from objective index to the frozen set of surviving
        action indices.  Every set is non-empty.
    """
    vectors = [_as_reward_vector(r, graph.n_objectives) for r in rewards]
    n_actions = len(vectors)
    if n_actions == 0:
        raise EmptySetError("need at least one action")

    pair_relation: dict[tuple[int, int], ActionRelation] = {}
    for a in range(n_actions):
        for b in range(a + 1, n_actions):
            pair_relation[a, b] = relate(graph, vectors[a], vectors[b])

    dom: dict[int, set[tuple[int, int]]] = {}
    dom_by: dict[int, set[tuple[int, int]]] = {}
    survivors: dict[int, frozenset[int]] = {}
    for obj in graph.topological_sort():
        parent_ids = graph.parents(obj)
        if parent_ids:
            up = aggregate_survivor_sets([survivors[p] for p in sorted(parent_ids)])
            dom_up = set().union(*(dom[p] for p in parent_ids))
            dom_by_up = set().union(*(dom_by[p] for p in parent_ids))
        else:
            up = frozenset(range(n_actions))
            dom_up, dom_by_up = set(), set()

        dom_here = set(dom_up)
        dom_by_here = set(dom_by_up)
        for (a, b), rel in pair_relation.items():
            if (a, b) in dom_up or (a, b) in dom_by_up:
                continue
            if rel is ActionRelation.INCOMPARABLE:
                # Two-way conflict on every objective: cleared below, so an
                # incomparable pair never filters either of its members.
                dom_here.update({(a, b), (b, a)})
                dom_by_here.update({(a, b), (b, a)})
            elif vectors[a][obj] > vectors[b][obj]:
                dom_here.add((a, b))
                dom_by_here.add((b, a))
            elif vectors[b][obj] > vectors[a][obj]:
                dom_here.add((b, a))
                dom_by_here.add((a, b))
        conflicts = dom_here & dom_by_here
        effective_dom_by = dom_by_here - conflicts
        survivors[obj] = frozenset(
            a for a in up
            if not any((a, b) in effective_dom_by for b in up if b != a)
        )
        dom[obj] = dom_here
        dom_by[obj] = dom_by_here
    return survivors
