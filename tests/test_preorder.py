"""Unit tests for the priority graph."""

from __future__ import annotations

import random
import re

import numpy as np
import pytest

from preorder_rl.errors import ConfigError, CycleError
from preorder_rl.preorder import PreorderGraph, build_graph

from ._reference import ref_topological_order


def test_chain_topological_order_and_queries() -> None:
    graph = build_graph(3, [(0, 1), (1, 2)])
    assert graph.topological_sort() == (0, 1, 2)
    assert graph.parents(1) == {0}
    assert graph.children(1) == {2}
    assert graph.leaves() == {2}
    assert graph.strictly_precedes(0, 2)
    assert not graph.strictly_precedes(2, 0)
    assert graph.comparable(0, 2)


def test_diamond_merges_and_tie_breaks_by_index() -> None:
    graph = build_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert graph.topological_sort() == (0, 1, 2, 3)
    assert graph.parents(3) == {1, 2}
    assert graph.leaves() == {3}
    assert not graph.comparable(1, 2)


def test_edgeless_graph_everything_incomparable() -> None:
    graph = build_graph(3)
    assert graph.topological_sort() == (0, 1, 2)
    assert graph.leaves() == {0, 1, 2}
    for a in range(3):
        for b in range(3):
            assert not graph.strictly_precedes(a, b)


def test_single_objective_is_its_own_leaf() -> None:
    graph = build_graph(1)
    assert graph.topological_sort() == (0,)
    assert graph.leaves() == {0}


def test_duplicate_edges_collapse() -> None:
    graph = build_graph(2, [(0, 1), (0, 1)])
    assert graph.edges == frozenset({(0, 1)})


def test_self_loop_rejected() -> None:
    with pytest.raises(CycleError):
        build_graph(2, [(1, 1)])


def test_cycle_rejected() -> None:
    with pytest.raises(CycleError):
        build_graph(3, [(0, 1), (1, 2), (2, 0)])


def test_out_of_range_edge_rejected() -> None:
    with pytest.raises(IndexError):
        build_graph(2, [(0, 2)])
    with pytest.raises(IndexError):
        build_graph(2, [(-1, 0)])


@pytest.mark.parametrize(("args", "message"), [
    ((2.5,), "n_objectives must be one integer, got 2.5"),
    ((True,), "n_objectives must be one integer, got True"),
    (("3",), "n_objectives must be one integer, got '3'"),
    ((3, [(0, 1.9)]), "edges[0][1] must be one integer, got 1.9"),
    ((3, [(0, 1), (True, 0)]), "edges[1][0] must be one integer, got True"),
    ((3, [(0, 1, 2)]), "edges[0] must be one (higher, lower) pair, got (0, 1, 2)")],
    ids=["float-count", "bool-count", "string-count", "float-endpoint", "bool-endpoint",
         "three-item-edge"])
def test_wrong_forms_are_config_errors_naming_the_field(args, message) -> None:
    # Each was coerced by int() or unpacked bare before: 2.5 built 2 objectives,
    # True 1, '3' 3, (0, 1.9) became (0, 1), and a 3-item edge raised ValueError.
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        build_graph(*args)


def test_empty_graph_rejected() -> None:
    with pytest.raises(ValueError):
        build_graph(0)


def test_equality_ignores_edge_order_and_duplicates() -> None:
    a = build_graph(3, [(0, 1), (1, 2)])
    b = build_graph(3, [(1, 2), (0, 1), (1, 2)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != build_graph(3, [(0, 1)])
    assert a != build_graph(4, [(0, 1), (1, 2)])


def test_out_of_range_queries_rejected() -> None:
    graph = build_graph(2, [(0, 1)])
    with pytest.raises(IndexError):
        graph.parents(2)
    with pytest.raises(IndexError):
        graph.strictly_precedes(0, -1)


def test_random_dags_respect_topological_contract() -> None:
    rng = random.Random(20260816)
    for _ in range(50):
        n = rng.randint(1, 9)
        edges = set()
        for _ in range(rng.randint(0, 2 * n)):
            a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if a != b:
                edges.add((min(a, b), max(a, b)))
        graph = build_graph(n, edges)
        order = graph.topological_sort()
        assert sorted(order) == list(range(n))
        position = {node: i for i, node in enumerate(order)}
        for high, low in edges:
            assert position[high] < position[low]
        for high, low in edges:
            assert graph.strictly_precedes(high, low)
            assert not graph.strictly_precedes(low, high)
        for leaf in graph.leaves():
            assert not graph.children(leaf)


def test_topological_sort_matches_the_reference_on_permuted_dags() -> None:
    # The reference places the lowest-index objective whose parents are
    # all placed; ids are ranked randomly so index order is not an order.
    rng = random.Random(808)
    for _ in range(200):
        n = rng.randint(1, 8)
        rank = rng.sample(range(n), n)
        edges = {(a, b) if rank[a] < rank[b] else (b, a)
                 for a, b in (rng.sample(range(n), 2) for _ in range(rng.randint(0, 2 * n)))
                 } if n > 1 else set()
        graph = build_graph(n, edges)
        order = graph.topological_sort()
        assert order == tuple(ref_topological_order(n, edges))
        parents = [sorted(a for a, b in edges if b == j) for j in range(n)]
        assert graph.walk == tuple((j, tuple(parents[j])) for j in order)
        for i in range(n):
            assert graph.parents(i) == set(parents[i])
            assert graph.children(i) == {b for a, b in edges if a == i}
        assert graph.leaves() == {i for i in range(n) if not any(a == i for a, _ in edges)}
        for j in range(n):
            # Every objective with a path to j, found by a search up the parents.
            above, stack = set(), list(parents[j])
            while stack:
                i = stack.pop()
                if i not in above:
                    above.add(i)
                    stack.extend(parents[i])
            assert set(np.flatnonzero(graph.ancestors[j]).tolist()) == above
            assert set(np.flatnonzero(graph.ancestors_or_self[j]).tolist()) == above | {j}


def test_transitive_closure_matches_path_search() -> None:
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 8)
        edges = {(min(a, b), max(a, b))
                 for a, b in (rng.sample(range(n), 2) for _ in range(n + 2))}
        graph = build_graph(n, edges)

        def reachable(src: int, dst: int) -> bool:
            stack, seen = [src], set()
            while stack:
                node = stack.pop()
                for child in graph.children(node):
                    if child == dst:
                        return True
                    if child not in seen:
                        seen.add(child)
                        stack.append(child)
            return False

        for a in range(n):
            for b in range(n):
                assert graph.strictly_precedes(a, b) == reachable(a, b)


def test_repr_mentions_structure() -> None:
    assert "edges=[(0, 1)]" in repr(PreorderGraph(2, [(0, 1)]))
