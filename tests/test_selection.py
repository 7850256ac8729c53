"""Tests for the preorder-guided survivor filter."""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from preorder_rl.comparators import (
    ComparatorConfig,
    HeadStack,
    QuantileMatrix,
    action_scores,
    classify_pairs,
    score_heads,
)
from preorder_rl.config import parse_config
from preorder_rl.envs import make_env
from preorder_rl.errors import ConfigError, EmptySetError, ShapeMismatch
from preorder_rl.learner import QuantileTensor, train
from preorder_rl import selection
from preorder_rl.preorder import build_graph
from preorder_rl.selection import (
    SelectionState,
    aggregate_survivor_sets,
    global_leaf_survivors,
    sample_action,
    select,
)

from ._reference import ref_aggregate, ref_global_leaf, ref_select

QD = ComparatorConfig("qd", epsilon=0.2)


def matrix(columns: list[list[float]]) -> QuantileMatrix:
    """Build a matrix from per-action columns."""
    return QuantileMatrix(np.array(columns, dtype=float).T)


def test_aggregate_intersection_wins() -> None:
    merged = aggregate_survivor_sets([frozenset({0, 1}), frozenset({1, 2})])
    assert merged == frozenset({1})


def test_aggregate_union_fallback() -> None:
    merged = aggregate_survivor_sets([frozenset({0}), frozenset({1})])
    assert merged == frozenset({0, 1})


def test_aggregate_rejects_empty_input() -> None:
    with pytest.raises(EmptySetError):
        aggregate_survivor_sets([])


def test_chain_inherited_elimination_sticks() -> None:
    # First objective: actions 0 and 1 tie, action 2 clearly behind.
    # Second ranks 1 over 0 over 2, so only 1 survives the chain; 2 was
    # already gone before the second objective ever saw it.
    graph = build_graph(2, [(0, 1)])
    first = matrix([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    second = matrix([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])
    state = select(graph, [first, second], QD)
    assert state.survivors == {0: frozenset({0, 1}), 1: frozenset({1})}
    assert state.fallbacks == ()


def test_single_objective_identical_columns_keeps_everyone() -> None:
    graph = build_graph(1, [])
    column = [0.5, 1.5, 2.5]
    state = select(graph, [matrix([column] * 4)], QD)
    assert state.survivors[0] == frozenset(range(4))


def test_conflicting_parents_cancel_and_both_actions_survive() -> None:
    # Two incomparable roots pull in opposite directions; their child
    # sees the pair decided both ways, drops the verdict entirely and
    # keeps both actions.
    graph = build_graph(3, [(0, 2), (1, 2)])
    prefers_first = matrix([[1.0, 1.0], [0.0, 0.0]])
    prefers_second = matrix([[0.0, 0.0], [1.0, 1.0]])
    neutral = matrix([[1.0, 1.0], [1.0, 1.0]])
    state = select(graph, [prefers_first, prefers_second, neutral], QD)
    assert state.survivors[0] == frozenset({0})
    assert state.survivors[1] == frozenset({1})
    assert state.survivors[2] == frozenset({0, 1})
    assert state.fallbacks == ()
    conflict = state.dom[2] & state.dom_by[2]
    assert conflict[0, 1] and conflict[1, 0]


def test_decided_pairs_are_never_reopened() -> None:
    # The child's own data says 1 beats 0 by a mile, but the parent
    # already ruled the other way, so the child never evaluates the pair
    # and the parent's verdict stands.
    graph = build_graph(2, [(0, 1)])
    parent = matrix([[5.0, 5.0], [0.0, 0.0]])
    child = matrix([[0.0, 0.0], [9.0, 9.0]])
    state = select(graph, [parent, child], QD)
    assert state.dom[1][0, 1]
    assert not state.dom_by[1][0, 1]
    assert state.survivors[1] == frozenset({0})


def test_multi_parent_cycle_triggers_score_fallback() -> None:
    # Three roots each decide one pair of a three-action cycle.  Their
    # child inherits the union of disjoint survivor sets, every action
    # is dominated by another inherited one, and the filter falls back
    # to the best-scored actions rather than returning nothing.
    graph = build_graph(4, [(0, 3), (1, 3), (2, 3)])
    loose = ComparatorConfig("qd", epsilon=1.3)
    mats = [
        matrix([[0.0], [1.0], [0.5]]),
        matrix([[0.5], [0.0], [1.0]]),
        matrix([[1.0], [0.5], [0.0]]),
        matrix([[0.0], [0.0], [0.0]]),
    ]
    state = select(graph, mats, loose)
    assert state.survivors[0] == frozenset({1, 2})
    assert state.survivors[1] == frozenset({0, 2})
    assert state.survivors[2] == frozenset({0, 1})
    assert state.survivors[3] == frozenset({0, 1, 2})
    assert state.fallbacks == (3,)


def test_select_validates_matrix_count_and_action_count() -> None:
    graph = build_graph(2, [(0, 1)])
    two = matrix([[1.0, 1.0], [0.0, 0.0]])
    three = matrix([[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])
    with pytest.raises(ShapeMismatch):
        select(graph, [two], QD)
    with pytest.raises(ShapeMismatch):
        select(graph, [two, three], QD)
    with pytest.raises(ConfigError, match="^config "):
        select(graph, [two, two], [QD, QD])


def test_global_leaf_on_chain_is_last_objective() -> None:
    graph = build_graph(2, [(0, 1)])
    first = matrix([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    second = matrix([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])
    state = select(graph, [first, second], QD)
    assert global_leaf_survivors(state, graph) == state.survivors[1]


def test_global_leaf_intersects_leaf_sets() -> None:
    graph = build_graph(3, [(0, 1), (0, 2)])
    neutral = matrix([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    drop_last = matrix([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    drop_first = matrix([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    state = select(graph, [neutral, drop_last, drop_first], QD)
    assert state.survivors[1] == frozenset({0, 1})
    assert state.survivors[2] == frozenset({1, 2})
    assert global_leaf_survivors(state, graph) == frozenset({1})


def test_global_leaf_uses_union_when_leaves_disagree() -> None:
    graph = build_graph(3, [(0, 1), (0, 2)])
    neutral = matrix([[1.0, 1.0], [1.0, 1.0]])
    prefers_first = matrix([[1.0, 1.0], [0.0, 0.0]])
    prefers_second = matrix([[0.0, 0.0], [1.0, 1.0]])
    state = select(graph, [neutral, prefers_first, prefers_second], QD)
    assert global_leaf_survivors(state, graph) == frozenset({0, 1})


def test_sample_action_singleton_and_empty() -> None:
    rng = np.random.default_rng(3)
    assert all(sample_action(frozenset({3}), rng) == 3 for _ in range(10))
    with pytest.raises(EmptySetError):
        sample_action(frozenset(), rng)


def test_sample_action_draws_only_from_a_set_of_two_or_more() -> None:
    rng = np.random.default_rng(47)
    before = rng.bit_generator.state
    assert sample_action(frozenset({4}), rng) == 4
    assert rng.bit_generator.state == before
    sample_action(frozenset({0, 1, 2}), rng)
    assert rng.bit_generator.state != before


def test_sample_action_uniform_within_three_sigma() -> None:
    rng = np.random.default_rng(2026)
    draws = 30_000
    counts = np.zeros(3)
    for _ in range(draws):
        counts[sample_action(frozenset({0, 1, 2}), rng)] += 1
    sigma = np.sqrt(draws * (1 / 3) * (2 / 3))
    assert np.all(np.abs(counts - draws / 3) <= 3 * sigma)


def test_sample_action_deterministic_per_seed() -> None:
    survivors = frozenset({0, 2, 5})
    a = np.random.default_rng(11)
    b = np.random.default_rng(11)
    assert [sample_action(survivors, a) for _ in range(50)] == [
        sample_action(survivors, b) for _ in range(50)
    ]


def random_instance(rng: np.random.Generator):
    n_objectives = int(rng.integers(1, 6))
    edges = [(i, j) for i in range(n_objectives) for j in range(i + 1, n_objectives)
             if rng.random() < 0.4]
    n_actions = int(rng.integers(2, 7))
    n_quantiles = int(rng.integers(1, 9))
    matrices = [rng.normal(size=(n_quantiles, n_actions)).round(3)
                for _ in range(n_objectives)]
    kinds = ("qd", "cvar", "mv")
    config = ComparatorConfig(kinds[int(rng.integers(3))],
                              epsilon=float(rng.uniform(0.0, 0.5)),
                              cvar_alpha=float(rng.uniform(0.1, 1.0)),
                              mv_lambda=float(rng.uniform(0.0, 2.0)))
    return n_objectives, edges, matrices, config


def pair_sets(verdicts: np.ndarray) -> dict[int, set[tuple[int, int]]]:
    """(objectives, actions, actions) boolean verdicts as sets of
    (row, column) pairs per objective."""
    return {obj: {(a, b) for a, b in np.argwhere(m).tolist()} for obj, m in enumerate(verdicts)}


def test_select_matches_plain_python_reference() -> None:
    rng = np.random.default_rng(515377)
    for _ in range(60):
        n_objectives, edges, matrices, config = random_instance(rng)
        graph = build_graph(n_objectives, edges)
        state = select(graph, [QuantileMatrix(m) for m in matrices], config)
        expected = ref_select(n_objectives, set(edges), [m.tolist() for m in matrices],
                              [asdict(config)] * n_objectives)
        assert {o: set(s) for o, s in state.survivors.items()} == expected.survivors
        assert pair_sets(state.dom) == expected.dom
        assert pair_sets(state.dom_by) == expected.dom_by
        assert state.fallbacks == expected.fallbacks
        leaf = global_leaf_survivors(state, graph)
        assert set(leaf) == ref_global_leaf(n_objectives, set(edges), expected.survivors)


def test_mask_marks_exactly_the_survivors() -> None:
    rng = np.random.default_rng(4242)
    for _ in range(200):
        n_objectives, edges, matrices, config = random_instance(rng)
        state = select(build_graph(n_objectives, edges),
                       [QuantileMatrix(m) for m in matrices], config)
        assert state.mask.shape == (n_objectives, matrices[0].shape[1])
        assert state.mask.dtype == bool
        for obj in range(n_objectives):
            assert set(np.flatnonzero(state.mask[obj]).tolist()) == state.survivors[obj]


def test_select_handles_more_actions_than_int64_has_bits() -> None:
    # The high-index action is the only one that beats the rest, so its
    # bit alone decides every elimination.
    rng = np.random.default_rng(6363)
    edges = [(0, 1), (0, 2)]
    for n_actions, best in ((63, 62), (70, 63), (70, 69)):
        matrices = [rng.normal(scale=0.01, size=(3, n_actions)) for _ in range(3)]
        matrices[0][:, best] += 5.0
        state = select(build_graph(3, edges), [QuantileMatrix(m) for m in matrices],
                       ComparatorConfig("qd", epsilon=0.3))
        expected = ref_select(3, set(edges), [m.tolist() for m in matrices],
                              [dict(kind="qd", epsilon=0.3)] * 3)
        assert state.survivors[0] == frozenset({best})
        assert {o: set(s) for o, s in state.survivors.items()} == expected.survivors
        assert pair_sets(state.dom) == expected.dom


def test_survivors_never_empty_and_nested_in_inherited_set() -> None:
    rng = np.random.default_rng(90210)
    for _ in range(60):
        n_objectives, edges, matrices, config = random_instance(rng)
        graph = build_graph(n_objectives, edges)
        state = select(graph, [QuantileMatrix(m) for m in matrices], config)
        for obj in range(n_objectives):
            assert state.survivors[obj]
            parents = sorted(graph.parents(obj))
            if parents:
                inherited = aggregate_survivor_sets([state.survivors[p] for p in parents])
                assert state.survivors[obj] <= inherited


def test_chain_survivors_shrink_monotonically() -> None:
    rng = np.random.default_rng(64)
    for _ in range(20):
        n_objectives = int(rng.integers(2, 6))
        edges = [(i, i + 1) for i in range(n_objectives - 1)]
        graph = build_graph(n_objectives, edges)
        n_actions = int(rng.integers(2, 7))
        mats = [QuantileMatrix(rng.normal(size=(4, n_actions)))
                for _ in range(n_objectives)]
        state = select(graph, mats, ComparatorConfig("qd", epsilon=float(rng.uniform(0, 0.5))))
        for obj in range(1, n_objectives):
            assert state.survivors[obj] <= state.survivors[obj - 1]


def test_permuting_actions_permutes_survivors() -> None:
    rng = np.random.default_rng(555)
    for _ in range(30):
        n_objectives, edges, matrices, config = random_instance(rng)
        graph = build_graph(n_objectives, edges)
        base = select(graph, [QuantileMatrix(m) for m in matrices], config)
        perm = rng.permutation(matrices[0].shape[1])
        shuffled = select(graph, [QuantileMatrix(m[:, perm]) for m in matrices],
                          config)
        for obj in range(n_objectives):
            relabeled = frozenset(int(np.flatnonzero(perm == a)[0])
                                  for a in base.survivors[obj])
            assert shuffled.survivors[obj] == relabeled


@pytest.mark.parametrize("layout", ["tensor", "c-order", "mixed", "head-stack"])
def test_unordered_objectives_keep_each_matrix_own_verdicts(layout) -> None:
    # With no edges every objective is a root, so its verdicts are
    # exactly what the comparator says about its matrix alone, whatever
    # the other heads stacked beside it, in whatever memory layout.
    rng = np.random.default_rng(8080)
    kinds = ("qd", "cvar", "mv")
    for _ in range(150):
        n_objectives = int(rng.integers(1, 6))
        n_actions = int(rng.integers(2, 7))
        n_quantiles = int(rng.choice([1, 2, 4, 8, 9]))
        tensor = rng.normal(size=(n_objectives, 2, n_actions, n_quantiles))
        if rng.random() < 0.3:
            tensor[int(rng.integers(n_objectives))] = 0.5
        mats = [QuantileMatrix(tensor[h, 0].T) for h in range(n_objectives)]
        if layout == "head-stack":
            mats = QuantileTensor(tensor).matrices(0)
        elif layout != "tensor":
            mats = [QuantileMatrix(np.ascontiguousarray(m.values))
                    if layout == "c-order" or rng.random() < 0.5 else m for m in mats]
        # The epsilon is a gap one matrix shows alone, so that pair sits
        # on the verdict boundary, where one ulp of score decides.
        edge = int(rng.integers(n_objectives))
        base = ComparatorConfig(kinds[int(rng.integers(3))],
                                cvar_alpha=float(rng.uniform(0.1, 1.0)),
                                mv_lambda=float(rng.uniform(0.0, 2.0)))
        edge_scores = action_scores(mats[edge], base)
        a, b = rng.choice(n_actions, size=2, replace=False)
        config = replace(base, epsilon=float(abs(edge_scores[a] - edge_scores[b])))
        state = select(build_graph(n_objectives, []), mats, config)
        for obj in range(n_objectives):
            alone = classify_pairs(mats[obj], config)
            assert np.array_equal(state.dom[obj], alone.dom)
            assert np.array_equal(state.dom_by[obj], alone.dom_by)


def test_head_stack_filters_exactly_as_its_list_of_views() -> None:
    # select scores a HeadStack as one block and a list head by head; the
    # epsilon sits on one pair's gap, where one ulp of score decides.
    rng = np.random.default_rng(2424)
    kinds = ("qd", "cvar", "mv")
    for _ in range(300):
        n_objectives = int(rng.integers(1, 6))
        edges = [(i, j) for i in range(n_objectives) for j in range(i + 1, n_objectives)
                 if rng.random() < 0.5]
        n_actions = int(rng.integers(2, 7))
        n_quantiles = int(rng.choice([1, 2, 4, 8, 9]))
        values = rng.normal(size=(n_objectives, 3, n_actions, n_quantiles))
        if rng.random() < 0.5:
            values = values.round(1)
        state = int(rng.integers(3))
        if rng.random() < 0.3:
            values[int(rng.integers(n_objectives)), state] = 0.5
        stack = QuantileTensor(values).matrices(state)
        base = ComparatorConfig(kinds[int(rng.integers(3))],
                                cvar_alpha=float(rng.uniform(0.1, 1.0)),
                                mv_lambda=float(rng.uniform(0.0, 2.0)))
        edge_scores = action_scores(stack[int(rng.integers(n_objectives))], base)
        a, b = rng.choice(n_actions, size=2, replace=False)
        config = replace(base, epsilon=float(abs(edge_scores[a] - edge_scores[b])))
        graph = build_graph(n_objectives, edges)
        whole = select(graph, stack, config)
        by_head = select(graph, list(stack), config)
        assert np.array_equal(whole.dom, by_head.dom)
        assert np.array_equal(whole.dom_by, by_head.dom_by)
        assert np.array_equal(whole.mask, by_head.mask)
        assert whole.survivors == by_head.survivors
        assert whole.fallbacks == by_head.fallbacks


def test_head_stack_is_a_read_only_sequence_of_tensor_views() -> None:
    values = np.arange(3 * 2 * 4 * 5, dtype=float).reshape(3, 2, 4, 5)
    tensor = QuantileTensor(values)
    stack = tensor.matrices(1)
    assert isinstance(stack, HeadStack) and isinstance(stack, Sequence)
    assert len(stack) == 3
    views = list(stack)
    assert len(views) == 3
    for head, view in enumerate(views):
        assert type(view) is QuantileMatrix
        assert np.shares_memory(view.values, values)
        assert np.array_equal(view.values, values[head, 1].T)
        assert np.array_equal(view.fractions, tensor.fractions)
        assert np.array_equal(stack[head].values, view.values)
        assert np.array_equal(stack[head - 3].values, view.values)
    for index in (3, -4):
        with pytest.raises(IndexError):
            stack[index]
        with pytest.raises(IndexError):
            views[index]
    for index in ("0", slice(1, None), np.array([0, 1])):
        with pytest.raises(TypeError):
            stack[index]
    with pytest.raises(TypeError):
        stack[0] = views[0]
    for n_objectives in (2, 4):
        graph = build_graph(n_objectives, [])
        with pytest.raises(ShapeMismatch) as from_stack:
            select(graph, stack, QD)
        with pytest.raises(ShapeMismatch) as from_list:
            select(graph, views, QD)
        assert str(from_stack.value) == str(from_list.value)


@pytest.mark.parametrize("kind", ["qd", "cvar", "mv"])
def test_roots_with_different_quantile_counts_keep_each_matrix_own_verdicts(kind) -> None:
    # Matrices of different quantile counts cannot stack, so select scores
    # them in separate groups; each root still gets its matrix's own verdicts.
    rng = np.random.default_rng(1949)
    for _ in range(50):
        n_actions = int(rng.integers(2, 7))
        mats = [QuantileMatrix(rng.normal(size=(k, n_actions))) for k in (1, 4, 9)]
        config = ComparatorConfig(kind, epsilon=float(rng.uniform(0.0, 0.5)),
                                  cvar_alpha=float(rng.uniform(0.1, 1.0)),
                                  mv_lambda=float(rng.uniform(0.0, 2.0)))
        state = select(build_graph(3, []), mats, config)
        for obj, m in enumerate(mats):
            alone = classify_pairs(m, config)
            assert np.array_equal(state.dom[obj], alone.dom)
            assert np.array_equal(state.dom_by[obj], alone.dom_by)


# sha256 of the filter's output over every state of a small trained
# grid tensor, recorded before the packed-traffic crossing grid; the
# transition-stream and artifact digests miss a one-ulp score change.
FILTER_GOLDEN = "3845408aa169af45850fe1f123d5a7c106a2a59e70564caf44f588400f21f645"


def test_filter_output_on_a_trained_grid_tensor_matches_recorded_golden() -> None:
    # Imported here: test_acceptance imports this module.
    from .test_acceptance import GRID_CONFIG

    config = parse_config({**GRID_CONFIG, "episodes": 200, "variants": GRID_CONFIG["variants"][:1]})
    variant = config.variants[0]
    tensor, _ = train(make_env(config.env), variant.learner, variant.graph, 0, config.episodes)
    comparator = variant.learner.comparator
    golden = hashlib.sha256()
    for s in range(tensor.n_states):
        chosen = select(variant.graph, tensor.matrices(s), comparator)
        golden.update(score_heads(tensor.values[:, s], comparator).tobytes())
        for array in (chosen.mask, chosen.dom, chosen.dom_by):
            golden.update(array.tobytes())
        golden.update(repr(chosen.fallbacks).encode())
    assert golden.hexdigest() == FILTER_GOLDEN


def golden_graph(shape: str, n_objectives: int):
    """A chain, an edgeless graph, or a diamond: objective 0 above every
    middle objective, each middle one above the last."""
    if shape == "chain":
        return build_graph(n_objectives, [(i, i + 1) for i in range(n_objectives - 1)])
    if shape == "edgeless" or n_objectives == 1:
        return build_graph(n_objectives, [])
    last = n_objectives - 1
    middles = range(1, last) if n_objectives > 2 else ()
    return build_graph(n_objectives, [(0, m) for m in middles] + [(m, last) for m in middles]
                       or [(0, 1)])


# sha256 of the filter's output on seeded random tensor blocks whose values
# are rounded so that ties are common, recorded before QuantileTensor stopped
# carrying fractions; unlike FILTER_GOLDEN, almost no block is constant.
BLOCK_GOLDEN = "cf680a89c9c01de845f1dde14e4254315ded7d28bbc7a9a75121e7cc46bae590"


def test_filter_output_on_random_tensor_blocks_matches_recorded_golden() -> None:
    rng = np.random.default_rng(2828)
    golden = hashlib.sha256()
    for i in range(360):
        shape = ("chain", "diamond", "edgeless")[i % 3]
        kind = ("qd", "cvar", "mv")[(i // 3) % 3]
        n_objectives = int(rng.integers(1, 6))
        n_actions = int(rng.integers(2, 7))
        n_quantiles = int(rng.choice([1, 2, 3, 8]))
        values = rng.normal(size=(n_objectives, 2, n_actions, n_quantiles)).round(1)
        base = ComparatorConfig(kind, cvar_alpha=float(rng.choice([0.2, 0.25, 0.5, 1.0])),
                                mv_lambda=float(rng.choice([0.0, 0.5, 1.0])))
        scores = score_heads(values[:, 1], base)
        head = int(rng.integers(n_objectives))
        a, b = rng.choice(n_actions, size=2, replace=False)
        # Half the blocks threshold at 0, half on one pair's exact gap.
        gap = float(abs(scores[head, a] - scores[head, b])) if i % 2 else 0.0
        config = replace(base, epsilon=gap)
        chosen = select(golden_graph(shape, n_objectives),
                        QuantileTensor(values).matrices(1),
                        config)
        golden.update(scores.tobytes())
        for array in (chosen.mask, chosen.dom, chosen.dom_by):
            golden.update(array.tobytes())
        golden.update(repr(chosen.fallbacks).encode())
    assert golden.hexdigest() == BLOCK_GOLDEN


def test_survivors_take_one_form_on_graphs_with_several_leaves() -> None:
    # The walk stores mask and the global-leaf set; survivors is read from mask.
    assert "survivors" not in {f.name for f in fields(SelectionState)}
    rng = np.random.default_rng(2929)
    union_merges = 0
    for i in range(300):
        shape = ("diamond", "fork", "edgeless")[i % 3]
        n_objectives = int(rng.integers(1, 6))
        n_actions = int(rng.integers(2, 7))
        values = rng.normal(size=(n_objectives, 2, n_actions, int(rng.choice([1, 2, 3, 8]))))
        graph = (build_graph(n_objectives, [(0, j) for j in range(1, n_objectives)])
                 if shape == "fork" else golden_graph(shape, n_objectives))
        config = ComparatorConfig(("qd", "cvar", "mv")[i // 3 % 3],
                                  epsilon=float(rng.uniform(0.0, 0.5)))
        stack = QuantileTensor(values).matrices(1)
        state = select(graph, stack, config)
        expected = ref_select(n_objectives, set(graph.edges),
                              [m.values.tolist() for m in stack], [asdict(config)] * n_objectives)
        union_merges += not set.intersection(*[expected.survivors[o] for o in graph.leaves()])
        leaf = global_leaf_survivors(state, graph)
        assert leaf == ref_global_leaf(n_objectives, set(graph.edges), expected.survivors)
        assert global_leaf_survivors(state, graph) is leaf
        assert state.survivors is state.survivors
        for obj in range(n_objectives):
            assert state.survivors[obj] == frozenset(np.flatnonzero(state.mask[obj]).tolist())
        by_views = select(graph, list(stack), config)
        assert np.array_equal(by_views.mask, state.mask)
        assert np.array_equal(by_views.dom, state.dom)
        assert np.array_equal(by_views.dom_by, state.dom_by)
        assert by_views.fallbacks == state.fallbacks
        assert by_views.leaf == leaf
        assert by_views.survivors == state.survivors
    assert union_merges > 0


def test_aggregate_survivor_sets_is_the_walks_one_merge_rule(monkeypatch) -> None:
    rng = np.random.default_rng(3030)
    disjoint = 0
    for _ in range(500):
        n_actions = int(rng.integers(1, 8))
        sets = [frozenset(np.flatnonzero(rng.random(n_actions) < 0.4).tolist())
                or frozenset({int(rng.integers(n_actions))})
                for _ in range(int(rng.integers(1, 5)))]
        disjoint += not frozenset.intersection(*sets)
        merged = aggregate_survivor_sets(sets)
        as_bits = aggregate_survivor_sets([sum(1 << a for a in s) for s in sets])
        assert type(merged) is frozenset
        assert merged == {a for a in range(n_actions) if as_bits >> a & 1}
        assert merged == ref_aggregate([set(s) for s in sets])
    assert disjoint > 0
    # The walk merges parent sets and leaf sets through the same function.
    calls = []

    def spy(sets):
        calls.append(list(sets))
        return aggregate_survivor_sets(sets)

    monkeypatch.setattr(selection, "aggregate_survivor_sets", spy)
    graph = build_graph(3, [(0, 1), (0, 2)])
    # Objective 0 ties its two actions; its children each keep a different one.
    state = select(graph, [matrix([[1.0, 0.0], [1.0, 0.0]]), matrix([[0.0, 0.0], [1.0, 1.0]]),
                           matrix([[1.0, 1.0], [0.0, 0.0]])], QD)
    assert calls == [[0b11], [0b11], [0b10, 0b01]]
    assert state.leaf == frozenset({0, 1})
