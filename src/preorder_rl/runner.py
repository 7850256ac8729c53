"""End-to-end run orchestration on top of the learner.

Artifacts live under ``<out>/<key>/<variant-label>/<seed>/``:
``tensor.csv`` holds the trained quantile tensor and ``episodes.csv``
the training log.  The key hashes the config without its seed list and
evaluation budget, so changing those reuses the trained tensors, and
``config.json`` holds exactly the hashed fields.  Evaluation and
comparison write CSV summaries of the latest evaluation at the
run-directory root.  Everything re-derives its inputs from the config,
so the steps can run in separate processes or sessions.
"""

from __future__ import annotations

import json
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np

from . import stats as stats_mod
from .artifacts import (SCORE_HEADER, load_scores, load_tensor, parse_rows, read_rows,
                        save_episode_log, save_tensor, write_rows)
from .comparators import ComparatorConfig, QuantileMatrix
from .config import RunConfig, Variant, _seeds, config_hash, parse_config
from .envs import make_env
from .errors import ConfigError, _integer, _real
from .learner import WEIGHTED_SUM, _check_env, evaluate, train
from .plots import interval_plot_svg
from .preorder import PreorderGraph
from .selection import global_leaf_survivors, select

_EVAL_SEED_STRIDE = 1_000_003


def _keyed(config: RunConfig) -> dict:
    """The training fields the run directory's key hashes: the config
    without the seed list (which ``--seeds`` overrides anyway) and the
    evaluation budget, fields no trained tensor depends on."""
    return {k: v for k, v in config.raw.items()
            if k not in ("seeds", "eval_runs", "eval_episodes")}


def run_dir(config: RunConfig, out_dir) -> Path:
    """The run directory, keyed by the hash of the config's training fields."""
    return Path(out_dir) / config_hash(_keyed(config))


def artifact_dir(config: RunConfig, out_dir, label: str, seed: int) -> Path:
    return run_dir(config, out_dir) / label / str(seed)


def _train_one(config: RunConfig, variant: Variant, seed: int, out_dir) -> Path:
    """Train one (variant, seed) pair, then write ``config.json`` and its artifacts."""
    env = make_env(config.env)
    try:
        tensor, records = train(env, variant.learner, variant.graph, seed, config.episodes)
    except ValueError as exc:
        exc.args = (f"variant {variant.label}, seed {seed}: {exc}",)
        raise
    base = run_dir(config, out_dir)
    base.mkdir(parents=True, exist_ok=True)
    (base / "config.json").write_text(json.dumps(_keyed(config), indent=2, sort_keys=True) + "\n")
    target = base / variant.label / str(seed)
    save_tensor(tensor, target / "tensor.csv")
    save_episode_log(records, target / "episodes.csv")
    return target


def _train_job(raw: dict, label: str, seed: int, out_dir: str) -> str:
    config = parse_config(raw)
    variant = next(v for v in config.variants if v.label == label)
    return str(_train_one(config, variant, seed, out_dir))


def run_train(config: RunConfig, out_dir, seeds=None, jobs: int = 1) -> Path:
    """Train every variant for every seed; returns the run directory.

    ``seeds``, ``jobs`` and ``out_dir`` are checked before any pair trains;
    the run directory appears with the first pair that trains without error.
    """
    seeds = config.seeds if seeds is None else _seeds(seeds, "seeds")
    if _integer(jobs, "jobs") < 1:
        raise ConfigError(f"jobs: must be >= 1, got {jobs}")
    env = make_env(config.env)
    for variant in config.variants:
        _check_env(env, variant.learner, variant.graph)
    # The nearest existing one of out_dir and its ancestors must be a
    # directory, or mkdir would fail only after the first pair trained.
    nearest = Path(out_dir).absolute()
    while not nearest.exists():
        nearest = nearest.parent
    if not nearest.is_dir():
        raise NotADirectoryError(f"{nearest} is not a directory")
    pairs = [(variant, seed) for variant in config.variants for seed in seeds]
    if jobs > 1:
        # Imported here: the pool pulls in multiprocessing, which serial runs never use.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_train_job, config.raw, variant.label, seed, str(out_dir))
                       for variant, seed in pairs]
            for future in futures:
                future.result()
    else:
        for variant, seed in pairs:
            _train_one(config, variant, seed, out_dir)
    return run_dir(config, out_dir)


def run_evaluate(config: RunConfig, out_dir, seeds=None) -> Path:
    """Greedy evaluation of every trained artifact.

    Writes ``evaluate.csv`` (per variant, seed and evaluation run:
    rates, mean progress, mean per-objective returns) and ``scores.csv``
    in the ``algorithm,seed,run,score`` layout consumed by the stats
    step, scoring each run by its success rate.  The runs of one tensor
    share a selection memo, so each state is filtered once.  Raises
    :class:`MissingArtifact` when a tensor is missing,
    :class:`ShapeMismatch` when its shape disagrees with the config and
    ``ValueError`` when it holds a non-finite value; both of the last
    name the variant and seed.
    """
    seeds = config.seeds if seeds is None else _seeds(seeds, "seeds")
    base = run_dir(config, out_dir)
    n = config.graph.n_objectives
    eval_rows: list[list] = []
    score_rows: list[list] = []
    for variant in config.variants:
        learner = variant.learner
        for seed in seeds:
            path = artifact_dir(config, out_dir, variant.label, seed) / "tensor.csv"
            env = make_env(config.env)
            try:
                tensor = load_tensor(path, (learner.n_heads, env.n_states,
                                            env.n_actions, learner.quantile_count))
            except ValueError as exc:
                exc.args = (f"variant {variant.label}, seed {seed}: {exc}",)
                raise
            memo: dict = {}
            for run in range(config.eval_runs):
                records = evaluate(env, tensor, learner, variant.graph,
                                   seed * _EVAL_SEED_STRIDE + run, config.eval_episodes,
                                   memo=memo)
                count = len(records)
                success = sum(r.success for r in records) / count
                collision = sum(r.collision for r in records) / count
                offroad = sum(r.offroad for r in records) / count
                # A left fold from 0.0: from Python 3.12 on, sum compensates
                # float rounding, so its result would depend on the version.
                progress = reduce(add, (r.progress for r in records), 0.0) / count
                returns = np.array([r.returns for r in records]).mean(axis=0)
                eval_rows.append([variant.label, seed, run, success, collision, offroad,
                                  progress, *returns])
                score_rows.append([variant.label, seed, run, success])
    header = ["variant", "seed", "run", "success_rate", "collision_rate", "offroad_rate",
              "progress"] + [f"return_{i}" for i in range(n)]
    write_rows(base / "evaluate.csv", header, eval_rows)
    write_rows(base / "scores.csv", SCORE_HEADER, score_rows)
    return base / "evaluate.csv"


def run_compare(config: RunConfig, out_dir) -> Path:
    """Aggregate the evaluation into per-variant comparison tables.

    ``ablation.csv`` carries one row per variant (rates and progress
    averaged over seeds and runs); ``rewards.csv`` the mean per-objective
    returns, with percent deltas against the first weighted-sum variant
    when one exists.  A fixed-width rendering goes to ``ablation.txt``.
    """
    base = run_dir(config, out_dir)
    path = base / "evaluate.csv"
    _, rows = read_rows(path, "evaluation summary (run evaluate first)")
    n = config.graph.n_objectives
    by_label: dict[str, list[np.ndarray]] = {}
    for label, measures in parse_rows(path, rows,
                                      lambda row: (row[0], [float(v) for v in row[3:]])):
        by_label.setdefault(label, []).append(np.array(measures))
    labels = [v.label for v in config.variants if v.label in by_label]

    means = {label: np.mean(by_label[label], axis=0) for label in labels}
    variant_by_label = {v.label: v for v in config.variants}
    ablation_rows = []
    for label in labels:
        learner = variant_by_label[label].learner
        m = means[label]
        ablation_rows.append([
            label, learner.mode, learner.comparator.kind,
            float(learner.comparator.epsilon), int(learner.training_preorder), *m[:4],
        ])
    write_rows(base / "ablation.csv",
               ["variant", "mode", "comparator", "epsilon", "training_preorder",
                "success_rate", "collision_rate", "offroad_rate", "progress"],
               ablation_rows)

    baseline = next((v.label for v in config.variants
                     if v.learner.mode == WEIGHTED_SUM and v.label in means), None)
    reward_header = ["variant"] + [f"return_{i}" for i in range(n)]
    if baseline is not None:
        reward_header += [f"delta_pct_{i}" for i in range(n)]
    reward_rows = []
    for label in labels:
        returns = means[label][4:4 + n]
        row = [label, *returns]
        if baseline is not None:
            ref = means[baseline][4:4 + n]
            deltas = [100.0 * (v - b) / abs(b) if abs(b) > 1e-12 else 0.0
                      for v, b in zip(returns, ref)]
            row += deltas
        reward_rows.append(row)
    write_rows(base / "rewards.csv", reward_header, reward_rows)

    text = _render_table(
        ["variant", "mode", "cmp", "eps", "pre", "SR", "CR", "OR", "progress"],
        [[r[0], r[1], r[2], f"{float(r[3]):.2f}", str(r[4]),
          f"{float(r[5]):.3f}", f"{float(r[6]):.3f}", f"{float(r[7]):.3f}",
          f"{float(r[8]):.3f}"] for r in ablation_rows])
    (base / "ablation.txt").write_text(text)
    return base / "ablation.csv"


def _render_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(str(cell)) for cell in column)
              for column in zip(header, *rows)] if rows else [len(h) for h in header]
    lines = [
        "  ".join(str(cell).ljust(w) for cell, w in zip(header, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def run_select(graph: PreorderGraph, matrices: list[QuantileMatrix],
               comparator: ComparatorConfig, out_dir) -> Path:
    """One-shot filter over externally supplied quantile matrices.

    Writes ``survivors.csv`` with one row per objective plus a final
    ``global`` row; surviving action indices are space-separated.
    """
    state = select(graph, matrices, comparator)
    out = Path(out_dir)
    rows = [[str(obj), " ".join(str(a) for a in sorted(state.survivors[obj]))]
            for obj in range(graph.n_objectives)]
    rows.append(["global", " ".join(str(a) for a in sorted(global_leaf_survivors(state, graph)))])
    return write_rows(out / "survivors.csv", ["objective", "actions"], rows)


def run_stats(scores_path, out_dir, seed: int = 0, n_resamples: int = 2000,
              gap_target: float = 1.0) -> Path:
    """Robust summaries of a score file.

    Writes ``stats_summary.csv`` (IQM and optimality gap with bootstrap
    intervals per algorithm), ``prob_improvement.csv`` (all ordered
    pairs), and ``stats.svg`` (IQM intervals).  Deterministic for a
    fixed ``seed``.  A negative or non-integer ``seed``, fewer than
    ``stats.MIN_RESAMPLES`` resamples and a non-finite ``gap_target``
    raise ``ConfigError`` before anything is read or written, and a
    resample matrix over ``stats.MAX_RESAMPLE_BYTES`` before ``out_dir`` is made.
    """
    for name, value, least in (("seed", seed, 0),
                               ("n_resamples", n_resamples, stats_mod.MIN_RESAMPLES)):
        if _integer(value, name) < least:
            raise ConfigError(f"{name}: expected an integer >= {least}, got {value!r}")
    gap_target = _real(gap_target, "gap_target")
    grouped = load_scores(scores_path)
    names = sorted(grouped)
    summary_rows = []
    plot_entries = []
    for i, name in enumerate(names):
        scores = grouped[name]
        rng = np.random.default_rng([seed, i])
        point = stats_mod.iqm(scores)
        lo, hi = stats_mod.bootstrap_ci(stats_mod.iqm, scores, n_resamples, rng=rng)
        gap = stats_mod.optimality_gap(scores, gap_target)
        gap_lo, gap_hi = stats_mod.bootstrap_ci(
            lambda s: stats_mod.optimality_gap(s, gap_target), scores, n_resamples, rng=rng)
        summary_rows.append([name, len(scores), point, lo, hi, gap, gap_lo, gap_hi])
        plot_entries.append((name, point, min(lo, point), max(hi, point)))
    pairs = [[a, b, stats_mod.prob_improvement(grouped[a], grouped[b])]
             for a in names for b in names if a != b]
    svg = interval_plot_svg(plot_entries, title="score IQM, 95% CI")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_rows(out / "stats_summary.csv",
               ["algorithm", "n", "iqm", "iqm_lo", "iqm_hi",
                "opt_gap", "opt_gap_lo", "opt_gap_hi"],
               summary_rows)
    write_rows(out / "prob_improvement.csv", ["algorithm_x", "algorithm_y", "prob"], pairs)
    (out / "stats.svg").write_text(svg)
    return out / "stats_summary.csv"
