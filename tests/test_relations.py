"""Unit tests for reward-level action relations and the exact filter."""

from __future__ import annotations

import random

import numpy as np
import pytest

from preorder_rl.comparators import ComparatorConfig, QuantileMatrix
from preorder_rl.errors import EmptySetError, LengthMismatch
from preorder_rl.preorder import build_graph
from preorder_rl.relations import ActionRelation, oracle_survivors, relate
from preorder_rl.selection import filter_verdicts, select

from ._reference import ref_relate

CHAIN2 = build_graph(2, [(0, 1)])


def test_higher_priority_gain_outranks_any_lower_loss() -> None:
    assert relate(CHAIN2, (1, 0), (0, 5)) is ActionRelation.DOMINATES
    assert relate(CHAIN2, (0, 5), (1, 0)) is ActionRelation.DOMINATED_BY


def test_equal_vectors_are_indifferent() -> None:
    for graph in (CHAIN2, build_graph(3), build_graph(1)):
        vec = tuple(range(graph.n_objectives))
        assert relate(graph, vec, vec) is ActionRelation.INDIFFERENT


def test_incomparable_siblings_yield_incomparable() -> None:
    # 0 outranks both 1 and 2, which are mutually unordered.
    graph = build_graph(3, [(0, 1), (0, 2)])
    a = (0.0, 1.0, 0.0)
    b = (0.0, 0.0, 1.0)
    assert relate(graph, a, b) is ActionRelation.INCOMPARABLE
    assert relate(graph, b, a) is ActionRelation.INCOMPARABLE


def test_incomparable_improvement_blocks_dominance() -> None:
    # a also wins on the top objective, but the opposing improvements on
    # the unordered pair (1, 2) settle the relation first.
    graph = build_graph(3, [(0, 1), (0, 2)])
    assert relate(graph, (1, 1, 0), (0, 0, 1)) is ActionRelation.INCOMPARABLE


def test_single_objective_reduces_to_scalar_comparison() -> None:
    graph = build_graph(1)
    assert relate(graph, (2,), (1,)) is ActionRelation.DOMINATES
    assert relate(graph, (1,), (2,)) is ActionRelation.DOMINATED_BY
    assert relate(graph, (1,), (1,)) is ActionRelation.INDIFFERENT


def test_lower_priority_win_cannot_dominate_a_higher_loss() -> None:
    assert relate(CHAIN2, (0, 9), (1, 0)) is ActionRelation.DOMINATED_BY


def test_length_mismatch_rejected() -> None:
    with pytest.raises(LengthMismatch):
        relate(CHAIN2, (1, 2, 3), (0, 0))
    with pytest.raises(LengthMismatch):
        relate(CHAIN2, (1, 2), (0,))


def test_nan_rewards_are_rejected_by_objective() -> None:
    nan = float("nan")
    with pytest.raises(ValueError, match="objective 0 is NaN"):
        relate(CHAIN2, (nan, 0), (1, 5))
    with pytest.raises(ValueError, match="objective 1 is NaN"):
        relate(CHAIN2, (1, 5), (0, nan))
    with pytest.raises(ValueError, match="objective 0 is NaN"):
        oracle_survivors(CHAIN2, [(nan, 0), (1, 5)])
    # Infinite rewards are ordered, so they stay accepted.
    inf = float("inf")
    assert relate(CHAIN2, (inf, 0), (1, 5)) is ActionRelation.DOMINATES
    assert relate(CHAIN2, (-inf, 0), (1, 5)) is ActionRelation.DOMINATED_BY
    assert oracle_survivors(CHAIN2, [(-inf, 0), (1, 5)])[1] == {1}


def test_relation_symmetries_on_random_inputs() -> None:
    rng = random.Random(99)
    swap = {
        ActionRelation.DOMINATES: ActionRelation.DOMINATED_BY,
        ActionRelation.DOMINATED_BY: ActionRelation.DOMINATES,
        ActionRelation.INDIFFERENT: ActionRelation.INDIFFERENT,
        ActionRelation.INCOMPARABLE: ActionRelation.INCOMPARABLE,
    }
    for _ in range(200):
        n = rng.randint(1, 5)
        edges = {(min(a, b), max(a, b))
                 for a, b in (rng.sample(range(n), 2) for _ in range(n))
                 } if n > 1 else set()
        graph = build_graph(n, edges)
        ra = [rng.randint(-2, 2) for _ in range(n)]
        rb = [rng.randint(-2, 2) for _ in range(n)]
        forward = relate(graph, ra, rb)
        assert relate(graph, rb, ra) is swap[forward]
        if ra == rb:
            assert forward is ActionRelation.INDIFFERENT


def test_oracle_single_objective_keeps_argmax_set() -> None:
    graph = build_graph(1)
    survivors = oracle_survivors(graph, [(3,), (1,), (3,)])
    assert survivors[0] == {0, 2}


def test_oracle_chain_filters_along_priorities() -> None:
    survivors = oracle_survivors(CHAIN2, [(1, 0), (1, 9), (0, 99)])
    assert survivors[0] == {0, 1}
    assert survivors[1] == {1}


def test_oracle_never_filters_incomparable_pairs() -> None:
    graph = build_graph(2)
    survivors = oracle_survivors(graph, [(1, 0), (0, 1)])
    assert survivors[0] == {0, 1}
    assert survivors[1] == {0, 1}


def test_oracle_rejects_empty_action_list() -> None:
    with pytest.raises(EmptySetError):
        oracle_survivors(CHAIN2, [])


def _permuted_dag(rng: random.Random, n: int):
    # Edges run from earlier to later in a random ranking, not by index.
    rank = rng.sample(range(n), n)
    pairs = (rng.sample(range(n), 2) for _ in range(n)) if n > 1 else ()
    return build_graph(n, {(a, b) if rank[a] < rank[b] else (b, a) for a, b in pairs})


def test_oracle_survivor_sets_never_empty_on_random_inputs() -> None:
    rng = random.Random(4242)
    for _ in range(200):
        n = rng.randint(1, 5)
        graph = _permuted_dag(rng, n)
        actions = rng.randint(1, 6)
        rewards = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(actions)]
        survivors = oracle_survivors(graph, rewards)
        assert set(survivors) == set(range(n))
        for kept in survivors.values():
            assert kept
            assert kept <= set(range(actions))


# Ties across signed zeros and rounding, plus the infinities, which stay ordered.
TIE_HEAVY = (0.0, -0.0, 0.1 + 0.2, 0.3, 1.0, float("inf"), float("-inf"), 1e308)


def test_relate_matches_the_set_based_reference() -> None:
    rng = random.Random(515)
    for _ in range(300):
        n = rng.randint(1, 6)
        graph = _permuted_dag(rng, n)
        for _ in range(4):
            ra, rb = ([rng.choice(TIE_HEAVY) for _ in range(n)] for _ in range(2))
            assert relate(graph, ra, rb).value == ref_relate(n, graph.edges, ra, rb)


def test_oracle_matches_the_walk_on_pairwise_reference_verdicts() -> None:
    # Each objective's own verdict is the strict reward comparison, and a
    # pair the reference calls incomparable is a two-way conflict everywhere.
    rng = random.Random(616)
    for _ in range(200):
        n = rng.randint(1, 5)
        graph = _permuted_dag(rng, n)
        actions = rng.randint(1, 6)
        rewards = [[rng.choice(TIE_HEAVY) for _ in range(n)] for _ in range(actions)]
        above = np.zeros((n, actions, actions), dtype=bool)
        below = np.zeros_like(above)
        for a in range(actions):
            for b in range(actions):
                tied = ref_relate(n, graph.edges, rewards[a], rewards[b]) == "incomparable"
                for obj in range(n):
                    above[obj, a, b] = tied or rewards[a][obj] > rewards[b][obj]
                    below[obj, a, b] = tied or rewards[a][obj] < rewards[b][obj]
        expected = filter_verdicts(graph, above, below, np.array(rewards).T).survivors
        assert oracle_survivors(graph, rewards) == expected


@pytest.mark.parametrize("kind", ["qd", "cvar", "mv"])
def test_oracle_matches_select_on_single_quantile_chains(kind) -> None:
    # On a chain no pair is incomparable, and one quantile per action
    # scores it monotonically in its reward, so both filters see the
    # same verdicts.
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(1, 5)
        order = rng.sample(range(n), n)
        graph = build_graph(n, list(zip(order, order[1:])))
        rewards = np.array([[rng.randint(-2, 2) for _ in range(n)]
                            for _ in range(rng.randint(1, 6))], dtype=float)
        quantiles = [QuantileMatrix.from_values(rewards[:, j][None]) for j in range(n)]
        expected = select(graph, quantiles, ComparatorConfig(kind)).survivors
        assert oracle_survivors(graph, rewards) == expected


def test_oracle_respects_dominance_on_a_chain() -> None:
    # On a total order the survivors of the last objective are exactly
    # the lexicographic maxima.
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 4)
        graph = build_graph(n, [(i, i + 1) for i in range(n - 1)])
        actions = rng.randint(1, 5)
        rewards = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(actions)]
        survivors = oracle_survivors(graph, rewards)
        best = max(rewards)
        expected = {i for i, r in enumerate(rewards) if r == best}
        assert survivors[n - 1] == expected
