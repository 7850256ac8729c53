"""The benchmark's three crossing-grid workloads.

Every workload keeps the env, preorder and learner settings of
``GRID_CONFIG`` in ``tests/test_acceptance.py`` and scales only the
episode and seed counts; the exploration decay is scaled with the
episodes, so greedy steps dominate as in the full run.

A workload is built from training seeds drawn from ``SEED_POOL`` by the
workload seed.  It yields set-up operations and the operations of one
round, the timed section.  Every child process of a run does its own
set-up and one round, so nothing one round computes can be reused by
another.  Each operation returns the CSV artifacts it wrote, whose
sha256 must match ``digests.json``; the table covers every seed of the
pool, so every run is checked whatever its seed.
"""

from __future__ import annotations

import copy
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from preorder_rl import config, runner

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

# GRID_CONFIG trains 5000 episodes.  Every job writes a full tensor.csv,
# about 20% of a 150-episode preorder job (1% of a full one); short jobs
# let a run start enough round children for a steady estimate (README).
PREORDER_EPISODES = 150
SCALAR_EPISODES = 2500  # scalar modes train about 20x faster per episode
TENSOR_EPISODES = 200   # tensors grid-evaluate-report trains in set-up
EVAL_EPISODES = 50      # GRID_CONFIG evaluates 200
SEED_POOL = 16          # training seeds 0..15


def scaled_config(labels: list[str], seed: int, episodes: int) -> dict:
    raw = copy.deepcopy(GRID_CONFIG)
    raw["episodes"] = episodes
    raw["learner"]["epsilon_decay_episodes"] = (
        GRID_CONFIG["learner"]["epsilon_decay_episodes"] * episodes // GRID_CONFIG["episodes"])
    raw["seeds"] = [seed]
    raw["eval_episodes"] = EVAL_EPISODES
    raw["variants"] = [v for v in raw["variants"] if v["label"] in labels]
    return raw


@dataclass(frozen=True)
class Op:
    """One checked operation: ``key`` names its row in ``digests.json``;
    ``run`` returns the directory that ``files``, the CSVs it wrote, are
    relative to."""

    key: str
    run: Callable[[], Path]
    files: tuple[str, ...]


def _train_op(key: str, cfg: config.RunConfig, work: Path) -> Op:
    (seed,) = cfg.seeds
    files = tuple(f"{v.label}/{seed}/{name}" for v in cfg.variants
                  for name in ("tensor.csv", "episodes.csv"))
    return Op(key, _call(runner.run_dir(cfg, work), runner.run_train, cfg, work,
                         seeds=[seed], jobs=1), files)


def _train_labels(labels: list[str], episodes: int) -> Callable:
    """Train each label on its own pool seed, once per round."""

    def build(seeds: list[int], work: Path) -> tuple[list[Op], list[Op]]:
        ops = [_train_op(f"train/{label}/{seed}",
                         config.parse_config(scaled_config([label], seed, episodes)), work)
               for label, seed in zip(labels, seeds)]
        return [], ops

    return build


def _evaluate_report(seeds: list[int], work: Path) -> tuple[list[Op], list[Op]]:
    """Train ``preorder-qd`` and ``weighted-sum`` on each seed in set-up;
    each round evaluates, compares and summarizes every seed in turn."""
    setup_ops, round_ops = [], []
    for seed in seeds:
        cfg = config.parse_config(
            scaled_config(["preorder-qd", "weighted-sum"], seed, TENSOR_EPISODES))
        base = runner.run_dir(cfg, work)
        setup_ops.append(_train_op(f"train/{seed}", cfg, work))
        round_ops += [
            Op(f"evaluate/{seed}", _call(base, runner.run_evaluate, cfg, work, seeds=[seed]),
               ("evaluate.csv", "scores.csv")),
            Op(f"compare/{seed}", _call(base, runner.run_compare, cfg, work),
               ("ablation.csv", "rewards.csv")),
            Op(f"stats/{seed}",
               _call(base, runner.run_stats, base / "scores.csv", base / "stats", seed=seed),
               ("stats/stats_summary.csv", "stats/prob_improvement.csv")),
        ]
    return setup_ops, round_ops


def _call(base: Path, fn, *args, **kwargs) -> Callable[[], Path]:
    def run() -> Path:
        fn(*args, **kwargs)
        return base

    return run


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[list[int], Path], tuple[list[Op], list[Op]]]
    n_seeds: int
    expected: tuple[str, ...]  # span names that must record calls

    def seeds(self, workload_seed: int) -> list[int]:
        rng = np.random.default_rng(workload_seed)
        return [int(s) for s in rng.choice(SEED_POOL, size=self.n_seeds, replace=False)]


_COMMON = ("config.parse_config", "config.config_hash", "preorder.build_graph",
           "envs.step", "envs.reset", "learner.greedy_target_action", "learner._pinball_step")
_TRAIN = ("runner.run_train", "learner.train", "learner.save_tensor", "learner.save_episode_log")
_SELECT = ("selection.select", "selection.global_leaf_survivors",
           "learner.QuantileTensor.matrices", "comparators.zscore_normalize")

WORKLOADS = {w.name: w for w in (
    Workload("grid-train-preorder",
             _train_labels(["preorder-qd", "lower-tail", "mean-variance"], PREORDER_EPISODES),
             n_seeds=3,
             expected=_COMMON + _TRAIN + _SELECT + (
                 "learner.act.preorder", "learner.td_update.preorder",
                 "comparators.classify_pairs.qd", "comparators.classify_pairs.cvar",
                 "comparators.classify_pairs.mv", "comparators.action_scores.qd",
                 "comparators.action_scores.cvar", "comparators.action_scores.mv")),
    Workload("grid-train-scalar",
             _train_labels(["weighted-sum", "mean-aggregation"], SCALAR_EPISODES),
             n_seeds=2,
             expected=_COMMON + _TRAIN + (
                 "learner.act.weighted-sum", "learner.act.mean-aggregation",
                 "learner.td_update.weighted-sum", "learner.td_update.mean-aggregation")),
    Workload("grid-evaluate-report", _evaluate_report,
             n_seeds=3,
             expected=_COMMON + _TRAIN + _SELECT + (
                 "runner.run_evaluate", "runner.run_compare", "runner.run_stats",
                 "learner.evaluate", "learner.load_tensor", "learner.act.preorder",
                 "learner.act.weighted-sum", "comparators.classify_pairs.qd",
                 "comparators.action_scores.qd", "stats.bootstrap_ci",
                 "plots.interval_plot_svg")),
)}
