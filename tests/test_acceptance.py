"""Acceptance suite: one test per advertised guarantee.

Each test states its claim, measures it, and asserts the advertised
threshold, so a `pytest -v` run reads as a pass/fail checklist.  The
grid trainings are shared through a module fixture; every protocol is
deterministic for its fixed seeds.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict

import numpy as np
import pytest

from preorder_rl.cli import EXIT_OK, main
from preorder_rl.comparators import (
    ComparatorConfig,
    QuantileMatrix,
    classify_pairs,
    qd,
    zscore_normalize,
)
from preorder_rl.config import parse_config
from preorder_rl.envs import EnvSpec, make_env
from preorder_rl.learner import (
    WEIGHTED_SUM,
    EpsilonSchedule,
    LearnerConfig,
    QuantileTensor,
    VectorTransition,
    evaluate,
    td_update,
    train,
)
from preorder_rl.preorder import build_graph
from preorder_rl.relations import ActionRelation, relate
from preorder_rl.runner import run_evaluate, run_train
from preorder_rl.selection import select
from preorder_rl.stats import iqm, optimality_gap, prob_improvement

from ._reference import ref_select
from .test_selection import pair_sets, random_instance

# The risk override deepens the per-step bleed next to traffic: waiting
# between convoys becomes expensive enough that mean-style aggregation
# prefers gambling through them, while the safety head still vetoes.
GRID_CONFIG = {
    "schema_version": 1,
    "env": {"name": "crossing-grid", "episode_cap": 40,
            "params": {"density": "high", "risk_penalty": -0.5}},
    "preorder": {"n_objectives": 5,
                 "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]},
    "learner": {"gammas": 0.9, "learning_rate": 0.1, "learning_rate_end": 0.01,
                "quantile_count": 8, "epsilon_start": 1.0, "epsilon_end": 0.1,
                "epsilon_decay_episodes": 2500},
    "episodes": 5000,
    "seeds": [0, 1, 2],
    "eval_runs": 3,
    "eval_episodes": 200,
    "variants": [
        {"label": "preorder-qd", "comparator": {"kind": "qd", "epsilon": 0.2}},
        {"label": "weighted-sum", "mode": "weighted-sum", "training_preorder": False,
         "weights": [1, 1, 1, 1, 1]},
        {"label": "mean-aggregation", "mode": "mean-aggregation",
         "training_preorder": False},
        {"label": "qd-wide", "comparator": {"kind": "qd", "epsilon": 0.4}},
        {"label": "lower-tail", "comparator": {"kind": "cvar", "epsilon": 0.2}},
        {"label": "mean-variance", "comparator": {"kind": "mv", "epsilon": 0.2}},
    ],
}


@pytest.fixture(scope="module")
def instance_sweep() -> dict:
    """Run select against the brute-force reference on 1000 instances."""
    rng = np.random.default_rng(20260816)
    summary = {"mismatches": [], "verdict_mismatches": [], "fallback_mismatches": [],
               "empty": 0, "with_fallback": 0}
    started = time.perf_counter()
    for index in range(1000):
        n_objectives, edges, matrices, config = random_instance(rng)
        graph = build_graph(n_objectives, edges)
        state = select(graph, [QuantileMatrix(m) for m in matrices], config)
        expected = ref_select(n_objectives, set(edges), [m.tolist() for m in matrices],
                              [asdict(config)] * n_objectives)
        if {o: set(s) for o, s in state.survivors.items()} != expected.survivors:
            summary["mismatches"].append(index)
        if (pair_sets(state.dom), pair_sets(state.dom_by)) != (expected.dom, expected.dom_by):
            summary["verdict_mismatches"].append(index)
        if state.fallbacks != expected.fallbacks:
            summary["fallback_mismatches"].append(index)
        if any(not state.survivors[o] for o in range(n_objectives)):
            summary["empty"] += 1
        if state.fallbacks:
            summary["with_fallback"] += 1
    summary["elapsed"] = time.perf_counter() - started
    return summary


@pytest.fixture(scope="module")
def grid_summary(tmp_path_factory) -> tuple[dict, float]:
    """Train and evaluate every grid variant once, shared across tests."""
    out = tmp_path_factory.mktemp("grid")
    config = parse_config(GRID_CONFIG)
    started = time.perf_counter()
    run_train(config, out)
    path = run_evaluate(config, out)
    elapsed = time.perf_counter() - started
    with path.open(newline="") as handle:
        body = list(csv.reader(handle))[1:]
    means = {}
    for label in {row[0] for row in body}:
        sample = np.array([[float(v) for v in row[3:]]
                           for row in body if row[0] == label])
        mean = sample.mean(axis=0)
        means[label] = {"success": mean[0], "collision": mean[1], "safety": mean[4]}
    return means, elapsed


def test_select_matches_bruteforce_reference(instance_sweep) -> None:
    print(f"reference sweep: {instance_sweep['elapsed']:.1f}s, "
          f"mismatches {instance_sweep['mismatches']}")
    assert instance_sweep["mismatches"] == []
    assert instance_sweep["verdict_mismatches"] == []
    assert instance_sweep["fallback_mismatches"] == []
    assert instance_sweep["elapsed"] < 60.0


def test_survivor_sets_nonempty_with_rare_fallbacks(instance_sweep) -> None:
    print(f"empty sets {instance_sweep['empty']}, "
          f"fallback instances {instance_sweep['with_fallback']}/1000")
    assert instance_sweep["empty"] == 0
    assert instance_sweep["with_fallback"] < 10


def test_pairwise_score_gaps_are_antisymmetric() -> None:
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10_000):
        shape = (int(rng.integers(1, 9)), int(rng.integers(2, 7)))
        gaps = qd(zscore_normalize(QuantileMatrix(rng.normal(size=shape))))
        worst = max(worst, float(np.abs(gaps + gaps.T).max()))
    print(f"worst antisymmetry residual {worst:.2e}")
    assert worst <= 1e-9


def test_pair_classification_is_affine_invariant() -> None:
    rng = np.random.default_rng(11)
    kinds = ("qd", "cvar", "mv")
    for _ in range(100):
        shape = (int(rng.integers(1, 9)), int(rng.integers(2, 7)))
        values = rng.normal(size=shape)
        config = ComparatorConfig(kinds[int(rng.integers(3))],
                                  epsilon=float(rng.uniform(0.0, 0.5)))
        base = classify_pairs(QuantileMatrix(values), config)
        for _ in range(100):
            alpha = float(rng.uniform(0.1, 10.0))
            beta = float(rng.uniform(-10.0, 10.0))
            moved = classify_pairs(
                QuantileMatrix(alpha * values + beta), config)
            assert np.array_equal(moved.dom, base.dom)
            assert np.array_equal(moved.dom_by, base.dom_by)


def test_reward_relation_flips_and_matches_scalar_order() -> None:
    flipped = {
        ActionRelation.DOMINATES: ActionRelation.DOMINATED_BY,
        ActionRelation.DOMINATED_BY: ActionRelation.DOMINATES,
        ActionRelation.INDIFFERENT: ActionRelation.INDIFFERENT,
        ActionRelation.INCOMPARABLE: ActionRelation.INCOMPARABLE,
    }
    rng = np.random.default_rng(13)
    scalar_draws = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 6))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        graph = build_graph(n, edges)
        # Integer rewards keep ties common enough to exercise every verdict.
        a = rng.integers(-2, 3, size=n).astype(float)
        b = rng.integers(-2, 3, size=n).astype(float)
        verdict = relate(graph, a, b)
        assert relate(graph, b, a) is flipped[verdict]
        if n == 1:
            scalar_draws += 1
            if a[0] > b[0]:
                assert verdict is ActionRelation.DOMINATES
            elif a[0] < b[0]:
                assert verdict is ActionRelation.DOMINATED_BY
            else:
                assert verdict is ActionRelation.INDIFFERENT
    print(f"scalar draws {scalar_draws}")
    assert scalar_draws > 100


def test_quantile_regression_converges_on_canonical_targets() -> None:
    started = time.perf_counter()
    graph = build_graph(1, [])

    config = LearnerConfig(n_objectives=1, gammas=(0.0,), quantile_count=8)
    tensor = QuantileTensor.zeros(1, 1, 1, 8)
    hit = VectorTransition(0, 0, (1.0,), 0, False)
    for step in range(10_000):
        config.learning_rate = 4.0 / (step + 4)
        td_update(tensor, hit, config, graph)
    point_error = float(np.abs(tensor.values - 1.0).max())

    rng = np.random.default_rng(99)
    config = LearnerConfig(n_objectives=1, gammas=(0.0,), quantile_count=2)
    tensor = QuantileTensor.zeros(1, 1, 1, 2)
    for step in range(40_000):
        config.learning_rate = 0.5 / (step + 1) ** 0.7
        reward = float(rng.integers(2))
        td_update(tensor, VectorTransition(0, 0, (reward,), 0, False), config, graph)
    low, high = tensor.values[0, 0, 0]

    env = make_env(EnvSpec("chain-mdp", params={"length": 4}))
    config = LearnerConfig(n_objectives=1, gammas=(0.9,), learning_rate=0.2,
                           learning_rate_end=0.01, quantile_count=8)
    tensor, _ = train(env, config, graph, seed=2, episodes=2000)
    chain_value = float(tensor.values[0, 0, 0].mean())

    elapsed = time.perf_counter() - started
    print(f"point error {point_error:.2e}, bernoulli ({low:.3f}, {high:.3f}), "
          f"chain {chain_value:.4f}, {elapsed:.1f}s")
    assert point_error <= 1e-3
    assert abs(low - 0.0) <= 0.05
    assert abs(high - 1.0) <= 0.05
    assert chain_value == pytest.approx(0.729, abs=1e-2)
    assert elapsed < 30.0


def test_bandit_probe_separates_the_aggregation_families() -> None:
    graph = build_graph(2, [(0, 1)])
    env = make_env(EnvSpec("conflict-bandit", episode_cap=1))
    safe_fractions = []
    risky_fractions = []
    for seed in (0, 1, 2):
        config = LearnerConfig(n_objectives=2, gammas=(0.9, 0.9),
                               comparator=ComparatorConfig("qd", epsilon=0.2),
                               epsilon=EpsilonSchedule(1.0, 0.1, 1000))
        tensor, _ = train(env, config, graph, seed=seed, episodes=2000)
        records = evaluate(env, tensor, config, graph, seed=seed + 100,
                           episodes=1000)
        # The safe arm pays progress 0.5, the risky arm pays 1.0.
        safe_fractions.append(float(np.mean([r.returns[1] == 0.5 for r in records])))

        config = LearnerConfig(n_objectives=2, gammas=(0.9, 0.9),
                               mode=WEIGHTED_SUM, weights=(1.0, 1.0),
                               training_preorder=False,
                               epsilon=EpsilonSchedule(1.0, 0.1, 1000))
        tensor, _ = train(env, config, graph, seed=seed, episodes=2000)
        records = evaluate(env, tensor, config, graph, seed=seed + 100,
                           episodes=1000)
        risky_fractions.append(float(np.mean([r.returns[1] == 1.0 for r in records])))
    print(f"safe arm {safe_fractions}, risky arm {risky_fractions}")
    assert min(safe_fractions) >= 0.95
    assert min(risky_fractions) >= 0.90


@pytest.mark.slow
def test_grid_direction_of_effect(grid_summary) -> None:
    means, elapsed = grid_summary
    pr = means["preorder-qd"]
    ws = means["weighted-sum"]
    ma = means["mean-aggregation"]
    print(f"safety pr {pr['safety']:+.3f} ws {ws['safety']:+.3f} "
          f"ma {ma['safety']:+.3f}; collision pr {pr['collision']:.3f} "
          f"ws {ws['collision']:.3f} ma {ma['collision']:.3f}; {elapsed:.0f}s")
    assert pr["safety"] > ws["safety"]
    assert pr["safety"] > ma["safety"]
    assert pr["collision"] < ws["collision"]
    assert pr["collision"] < ma["collision"]
    assert elapsed < 600.0


@pytest.mark.slow
def test_grid_comparator_ablation(grid_summary) -> None:
    means, _ = grid_summary
    narrow = means["preorder-qd"]["success"]
    wide = means["qd-wide"]["success"]
    tail = means["lower-tail"]["success"]
    spread = means["mean-variance"]["success"]
    print(f"success qd {narrow:.3f} qd-wide {wide:.3f} "
          f"lower-tail {tail:.3f} mean-variance {spread:.3f}")
    assert narrow >= wide
    assert narrow > tail
    assert narrow > spread


def test_statistics_match_hand_computed_values() -> None:
    assert iqm(np.arange(1.0, 9.0)) == 4.5
    assert optimality_gap(np.array([0.5, 1.5]), target=1.0) == 0.25
    assert prob_improvement(np.array([1.0, 2.0]), np.array([0.0, 1.0])) == 0.875
    scores = np.array([0.3, 0.7, 1.1])
    assert prob_improvement(scores, scores) == 0.5


def test_train_evaluate_rerun_is_byte_identical(tmp_path) -> None:
    raw = {
        "schema_version": 1,
        "env": {"name": "conflict-bandit", "episode_cap": 1},
        "preorder": {"n_objectives": 2, "edges": [[0, 1]]},
        "learner": {"gammas": 0.9, "epsilon_start": 1.0, "epsilon_end": 0.1,
                    "epsilon_decay_episodes": 300},
        "episodes": 500,
        "seeds": [0, 1],
        "eval_runs": 2,
        "eval_episodes": 100,
        "variants": [{"label": "pr", "comparator": {"kind": "qd", "epsilon": 0.2}}],
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(raw))
    snapshots = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["train", "--config", str(config_path),
                     "--out", str(out)]) == EXIT_OK
        assert main(["evaluate", "--config", str(config_path),
                     "--out", str(out)]) == EXIT_OK
        run = next(out.iterdir())
        snapshots.append({str(p.relative_to(run)): p.read_bytes()
                          for p in sorted(run.rglob("*.csv"))})
    assert len(snapshots[0]) == 6
    assert snapshots[0] == snapshots[1]
