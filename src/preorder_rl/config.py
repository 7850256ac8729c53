"""Run configuration: a JSON schema, its validation, and hashing.

A run config bundles one environment, a base priority preorder, shared
learner settings, and a list of algorithm variants to train side by
side.  Output directories are keyed by a short hash of the canonical
JSON so different configs never collide.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .comparators import ComparatorConfig
from .envs import EnvSpec, make_env
from .errors import ConfigError
from .learner import MODES, PREORDER, WEIGHTED_SUM, EpsilonSchedule, LearnerConfig
from .preorder import PreorderGraph, build_graph

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Variant:
    """One trainable algorithm within a run."""

    label: str
    mode: str
    comparator: ComparatorConfig
    training_preorder: bool
    weights: tuple[float, ...] | None
    graph: PreorderGraph

    def learner_config(self, run: "RunConfig") -> LearnerConfig:
        return LearnerConfig(
            n_objectives=run.graph.n_objectives,
            gammas=run.gammas,
            learning_rate=run.learning_rate,
            learning_rate_end=run.learning_rate_end,
            epsilon=run.epsilon,
            quantile_count=run.quantile_count,
            comparator=self.comparator,
            training_preorder=self.training_preorder,
            mode=self.mode,
            weights=self.weights,
            huber_kappa=run.huber_kappa,
            initial_value=run.initial_value,
        )


@dataclass(frozen=True)
class RunConfig:
    raw: dict
    env: EnvSpec
    graph: PreorderGraph
    gammas: tuple[float, ...]
    learning_rate: float
    learning_rate_end: float | None
    quantile_count: int
    epsilon: EpsilonSchedule
    huber_kappa: float
    initial_value: float
    episodes: int
    seeds: tuple[int, ...]
    eval_runs: int
    eval_episodes: int
    variants: tuple[Variant, ...]


def _get(raw: dict, field: str, kind, where: str):
    if field not in raw:
        raise ConfigError(f"{where}.{field}: missing")
    value = raw[field]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{where}.{field}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _opt(raw: dict, field: str, kind, where: str, default):
    return _get(raw, field, kind, where) if field in raw else default


def _parse_env(raw: dict) -> EnvSpec:
    env = _get(raw, "env", dict, "config")
    name = _get(env, "name", str, "env")
    cap = _opt(env, "episode_cap", int, "env", 100)
    params = _opt(env, "params", dict, "env", {})
    try:
        spec = EnvSpec(name, cap, params)
        make_env(spec)
    except ConfigError as exc:
        raise ConfigError(f"env: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"env.params: {exc}") from exc
    return spec


def _parse_preorder(raw: dict, where: str) -> PreorderGraph:
    n = _get(raw, "n_objectives", int, where)
    edges = _opt(raw, "edges", list, where, [])
    for i, edge in enumerate(edges):
        if not (isinstance(edge, list) and len(edge) == 2
                and all(isinstance(v, int) and not isinstance(v, bool) for v in edge)):
            raise ConfigError(f"{where}.edges[{i}]: expected a [higher, lower] pair of ints")
    try:
        return build_graph(n, [(e[0], e[1]) for e in edges])
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_comparator(raw: dict, where: str) -> ComparatorConfig:
    kind = _opt(raw, "kind", str, where, "qd")
    epsilon = _opt(raw, "epsilon", float, where, 0.0)
    alpha = _opt(raw, "cvar_alpha", float, where, 0.25)
    lam = _opt(raw, "mv_lambda", float, where, 1.0)
    unknown = set(raw) - {"kind", "epsilon", "cvar_alpha", "mv_lambda"}
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    try:
        return ComparatorConfig(kind, epsilon, alpha, lam)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_variant(raw: dict, index: int, base: PreorderGraph) -> Variant:
    where = f"variants[{index}]"
    label = _get(raw, "label", str, where)
    if not label or any(ch in label for ch in "/\\ "):
        raise ConfigError(f"{where}.label: must be non-empty, without spaces or slashes")
    mode = _opt(raw, "mode", str, where, PREORDER)
    if mode not in MODES:
        raise ConfigError(f"{where}.mode: {mode!r} not one of {MODES}")
    comparator = _parse_comparator(_opt(raw, "comparator", dict, where, {}),
                                   f"{where}.comparator")
    training = _opt(raw, "training_preorder", bool, where, True)
    weights = None
    if "weights" in raw:
        weights_raw = _get(raw, "weights", list, where)
        try:
            weights = tuple(float(w) for w in weights_raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}.weights: {exc}") from exc
    if mode == WEIGHTED_SUM and weights is None:
        raise ConfigError(f"{where}.weights: required by weighted-sum mode")
    graph = base
    if "preorder" in raw:
        graph = _parse_preorder(_get(raw, "preorder", dict, where), f"{where}.preorder")
        if graph.n_objectives != base.n_objectives:
            raise ConfigError(f"{where}.preorder.n_objectives: must match the base preorder")
    unknown = set(raw) - {"label", "mode", "comparator", "training_preorder", "weights", "preorder"}
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    return Variant(label, mode, comparator, training, weights, graph)


def parse_config(raw: dict) -> RunConfig:
    """Validate a parsed JSON document into a :class:`RunConfig`.

    Raises :class:`ConfigError` naming the offending field.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"config: expected an object, got {type(raw).__name__}")
    version = _get(raw, "schema_version", int, "config")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"config.schema_version: expected {SCHEMA_VERSION}, got {version}")
    env = _parse_env(raw)
    graph = _parse_preorder(_get(raw, "preorder", dict, "config"), "preorder")

    learner = _opt(raw, "learner", dict, "config", {})
    gammas_raw = learner.get("gammas", 0.95)
    if isinstance(gammas_raw, (int, float)) and not isinstance(gammas_raw, bool):
        gammas = tuple(float(gammas_raw) for _ in range(graph.n_objectives))
    elif isinstance(gammas_raw, list):
        try:
            gammas = tuple(float(g) for g in gammas_raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"learner.gammas: {exc}") from exc
        if len(gammas) != graph.n_objectives:
            raise ConfigError(f"learner.gammas: expected {graph.n_objectives} values, "
                              f"got {len(gammas)}")
    else:
        raise ConfigError("learner.gammas: expected a number or a list of numbers")
    epsilon = EpsilonSchedule(
        _opt(learner, "epsilon_start", float, "learner", 1.0),
        _opt(learner, "epsilon_end", float, "learner", 0.05),
        _opt(learner, "epsilon_decay_episodes", int, "learner", 1),
    )
    known = {"gammas", "learning_rate", "learning_rate_end", "quantile_count",
             "epsilon_start", "epsilon_end", "epsilon_decay_episodes", "huber_kappa",
             "initial_value"}
    unknown = set(learner) - known
    if unknown:
        raise ConfigError(f"learner: unknown fields {sorted(unknown)}")

    episodes = _get(raw, "episodes", int, "config")
    if episodes < 1:
        raise ConfigError(f"config.episodes: must be >= 1, got {episodes}")
    seeds_raw = _opt(raw, "seeds", list, "config", [0])
    if not seeds_raw or not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0
                                for s in seeds_raw):
        raise ConfigError("config.seeds: expected a non-empty list of ints >= 0")
    if len(set(seeds_raw)) != len(seeds_raw):
        raise ConfigError("config.seeds: duplicate seeds")
    eval_runs = _opt(raw, "eval_runs", int, "config", 1)
    eval_episodes = _opt(raw, "eval_episodes", int, "config", 100)
    if eval_runs < 1 or eval_episodes < 1:
        raise ConfigError("config.eval_runs and config.eval_episodes must be >= 1")

    variants_raw = _get(raw, "variants", list, "config")
    if not variants_raw:
        raise ConfigError("config.variants: must list at least one variant")
    variants = tuple(_parse_variant(v, i, graph) if isinstance(v, dict)
                     else _raise_variant(i) for i, v in enumerate(variants_raw))
    labels = [v.label for v in variants]
    if len(set(labels)) != len(labels):
        raise ConfigError("config.variants: duplicate labels")

    known_top = {"schema_version", "env", "preorder", "learner", "episodes", "seeds",
                 "eval_runs", "eval_episodes", "variants"}
    unknown = set(raw) - known_top
    if unknown:
        raise ConfigError(f"config: unknown fields {sorted(unknown)}")

    run = RunConfig(
        raw=raw,
        env=env,
        graph=graph,
        gammas=gammas,
        learning_rate=_opt(learner, "learning_rate", float, "learner", 0.1),
        learning_rate_end=_opt(learner, "learning_rate_end", float, "learner", None),
        quantile_count=_opt(learner, "quantile_count", int, "learner", 8),
        epsilon=epsilon,
        huber_kappa=_opt(learner, "huber_kappa", float, "learner", 0.0),
        initial_value=_opt(learner, "initial_value", float, "learner", 0.0),
        episodes=episodes,
        seeds=tuple(seeds_raw),
        eval_runs=eval_runs,
        eval_episodes=eval_episodes,
        variants=variants,
    )
    for variant in variants:
        try:
            variant.learner_config(run)
        except ConfigError as exc:
            raise ConfigError(f"variants[{labels.index(variant.label)}]: {exc}") from exc
    return run


def _raise_variant(index: int):
    raise ConfigError(f"variants[{index}]: expected an object")


def load_config(path) -> RunConfig:
    """Read and validate a JSON run config from disk."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_config(raw)


def config_hash(raw: dict) -> str:
    """Twelve hex chars of the SHA-256 of the canonical JSON encoding."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]
