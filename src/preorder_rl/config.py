"""Run configuration: a JSON schema, its validation, and hashing.

A run config bundles one environment, a base priority preorder, shared
learner settings, and a list of algorithm variants to train side by
side.  Each variant carries the one validated :class:`LearnerConfig` it
trains and evaluates with: the shared settings plus its own mode,
comparator, bootstrap filter and weights.  Output directories are keyed
by a short hash of the canonical JSON so different configs never collide.
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
    """One trainable algorithm within a run: the validated learner
    configuration it trains and evaluates with, and its preorder."""

    label: str
    learner: LearnerConfig
    graph: PreorderGraph


@dataclass(frozen=True)
class RunConfig:
    raw: dict
    env: EnvSpec
    graph: PreorderGraph
    episodes: int
    seeds: tuple[int, ...]
    eval_runs: int
    eval_episodes: int
    variants: tuple[Variant, ...]


def _typed(value, kind, name: str):
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{name}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _get(raw: dict, field: str, kind, where: str):
    if field not in raw:
        raise ConfigError(f"{where}.{field}: missing")
    return _typed(raw[field], kind, f"{where}.{field}")


def _floats(values: list, name: str) -> tuple[float, ...]:
    return tuple(_typed(v, float, f"{name}[{i}]") for i, v in enumerate(values))


def _opt(raw: dict, field: str, kind, where: str, default):
    return _get(raw, field, kind, where) if field in raw else default


def _seeds(values: list, name: str) -> tuple[int, ...]:
    if not values or not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0
                             for s in values):
        raise ConfigError(f"{name}: expected a non-empty list of ints >= 0")
    if len(set(values)) != len(values):
        raise ConfigError(f"{name}: duplicate seeds")
    return tuple(values)


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


def _parse_variant(raw: dict, index: int, base: PreorderGraph, shared: dict) -> Variant:
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
        weights = _floats(_get(raw, "weights", list, where), f"{where}.weights")
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
    try:
        learner = LearnerConfig(n_objectives=base.n_objectives, comparator=comparator,
                                training_preorder=training, mode=mode, weights=weights,
                                **shared)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return Variant(label, learner, graph)


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
        gammas = _floats(gammas_raw, "learner.gammas")
        if len(gammas) != graph.n_objectives:
            raise ConfigError(f"learner.gammas: expected {graph.n_objectives} values, "
                              f"got {len(gammas)}")
    else:
        raise ConfigError("learner.gammas: expected a number or a list of numbers")
    known = {"gammas", "learning_rate", "learning_rate_end", "quantile_count",
             "epsilon_start", "epsilon_end", "epsilon_decay_episodes", "huber_kappa",
             "initial_value"}
    unknown = set(learner) - known
    if unknown:
        raise ConfigError(f"learner: unknown fields {sorted(unknown)}")
    schedule = (_opt(learner, "epsilon_start", float, "learner", 1.0),
                _opt(learner, "epsilon_end", float, "learner", 0.05),
                _opt(learner, "epsilon_decay_episodes", int, "learner", 1))
    shared = dict(
        gammas=gammas,
        learning_rate=_opt(learner, "learning_rate", float, "learner", 0.1),
        learning_rate_end=_opt(learner, "learning_rate_end", float, "learner", None),
        quantile_count=_opt(learner, "quantile_count", int, "learner", 8),
        huber_kappa=_opt(learner, "huber_kappa", float, "learner", 0.0),
        initial_value=_opt(learner, "initial_value", float, "learner", 0.0),
    )
    # The shared values are checked once here, so an out-of-range one is
    # blamed on the learner block rather than on the first variant.
    try:
        shared["epsilon"] = EpsilonSchedule(*schedule)
        LearnerConfig(n_objectives=graph.n_objectives, **shared)
    except ConfigError as exc:
        raise ConfigError(f"learner: {exc}") from exc

    episodes = _get(raw, "episodes", int, "config")
    if episodes < 1:
        raise ConfigError(f"config.episodes: must be >= 1, got {episodes}")
    seeds = _seeds(_opt(raw, "seeds", list, "config", [0]), "config.seeds")
    eval_runs = _opt(raw, "eval_runs", int, "config", 1)
    eval_episodes = _opt(raw, "eval_episodes", int, "config", 100)
    if eval_runs < 1 or eval_episodes < 1:
        raise ConfigError("config.eval_runs and config.eval_episodes must be >= 1")

    variants_raw = _get(raw, "variants", list, "config")
    if not variants_raw:
        raise ConfigError("config.variants: must list at least one variant")
    variants = []
    for i, v in enumerate(variants_raw):
        if not isinstance(v, dict):
            raise ConfigError(f"variants[{i}]: expected an object")
        variants.append(_parse_variant(v, i, graph, shared))
    labels = [v.label for v in variants]
    if len(set(labels)) != len(labels):
        raise ConfigError("config.variants: duplicate labels")

    known_top = {"schema_version", "env", "preorder", "learner", "episodes", "seeds",
                 "eval_runs", "eval_episodes", "variants"}
    unknown = set(raw) - known_top
    if unknown:
        raise ConfigError(f"config: unknown fields {sorted(unknown)}")

    return RunConfig(raw=raw, env=env, graph=graph, episodes=episodes, seeds=seeds,
                     eval_runs=eval_runs, eval_episodes=eval_episodes, variants=tuple(variants))


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
