"""Run configuration: a JSON schema, its validation, and hashing.

A run config bundles one environment, a base priority preorder, shared
learner settings, and a list of algorithm variants to train side by
side.  The shared ``learner`` block parses to one validated
:class:`LearnerConfig`, and each variant is a ``dataclasses.replace`` of
it with its own mode, comparator, bootstrap filter and weights.  Output
directories are keyed by a short hash of the canonical JSON of the
training fields, so configs that train differently never collide.

The schema is the field tables ``_TOP``, ``_ENV``, ``_PREORDER``,
``_LEARNER``, ``_VARIANT`` and ``_COMPARATOR``, one per JSON block.
:func:`_fields` reads every block, and the ``select --preorder`` file,
against its table, so each rejects fields its table does not name.
Each default is read from the dataclass field it fills; only the
``gammas`` default, one number for every objective, is the config's own.

:func:`_fields` checks only JSON container types, and ``_integer`` on the
top-level counts; every other value is checked by the object it fills,
with the form rules of :mod:`~preorder_rl.errors`, and its error comes back
with the block's prefix (``learner: learning_rate must be finite, got nan``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

from .comparators import ComparatorConfig
from .envs import EnvSpec, make_env
from .errors import ConfigError, _integer
from .learner import EpsilonSchedule, LearnerConfig
from .preorder import PreorderGraph, build_graph

SCHEMA_VERSION = 1
_REQUIRED = object()

# {field: (kind, default or _REQUIRED)}; kind is a JSON container type,
# _integer, or None where the object the field fills checks its form.
_TOP = {"schema_version": (_integer, _REQUIRED), "env": (dict, _REQUIRED),
        "preorder": (dict, _REQUIRED), "learner": (dict, {}), "episodes": (_integer, _REQUIRED),
        "seeds": (list, [0]), "eval_runs": (_integer, 1), "eval_episodes": (_integer, 100),
        "variants": (list, _REQUIRED)}
_ENV = {"name": (None, _REQUIRED), "episode_cap": (None, EnvSpec.episode_cap), "params": (dict, {})}
_PREORDER = {"n_objectives": (None, _REQUIRED), "edges": (list, [])}
_LEARNER = {"gammas": (None, 0.95), "learning_rate": (None, LearnerConfig.learning_rate),
            "learning_rate_end": (None, LearnerConfig.learning_rate_end),
            "quantile_count": (None, LearnerConfig.quantile_count),
            "epsilon_start": (None, EpsilonSchedule.start),
            "epsilon_end": (None, EpsilonSchedule.end),
            "epsilon_decay_episodes": (None, EpsilonSchedule.decay_episodes),
            "huber_kappa": (None, LearnerConfig.huber_kappa),
            "initial_value": (None, LearnerConfig.initial_value)}
_VARIANT = {"label": (str, _REQUIRED), "mode": (None, LearnerConfig.mode), "comparator": (dict, {}),
            "training_preorder": (None, LearnerConfig.training_preorder),
            "weights": (None, LearnerConfig.weights), "preorder": (dict, None)}
_COMPARATOR = {"kind": (None, ComparatorConfig.kind), "epsilon": (None, ComparatorConfig.epsilon),
               "cvar_alpha": (None, ComparatorConfig.cvar_alpha),
               "mv_lambda": (None, ComparatorConfig.mv_lambda)}


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


def _fields(raw, where: str, spec: dict) -> dict:
    """Read the JSON object ``raw`` against its field table ``spec``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object, got {type(raw).__name__}")
    unknown = set(raw) - set(spec)
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    values = {}
    for field, (kind, default) in spec.items():
        name = f"{where}.{field}"
        if field not in raw:
            if default is _REQUIRED:
                raise ConfigError(f"{name}: missing")
            values[field] = default
        elif kind is _integer:
            values[field] = _integer(raw[field], name)
        elif kind is not None and not isinstance(raw[field], kind):
            raise ConfigError(f"{name}: expected {kind.__name__}, got {type(raw[field]).__name__}")
        else:
            values[field] = raw[field]
    return values


def _seeds(values, name: str) -> tuple[int, ...]:
    if not isinstance(values, (list, tuple, range)):
        raise ConfigError(f"{name}: expected a non-empty list of ints >= 0")
    values = tuple(_integer(s, f"{name}[{i}]") for i, s in enumerate(values))
    if not values or min(values) < 0:
        raise ConfigError(f"{name}: expected a non-empty list of ints >= 0")
    if len(set(values)) != len(values):
        raise ConfigError(f"{name}: duplicate seeds")
    return values


def _parse_env(raw: dict) -> EnvSpec:
    fields = _fields(raw, "env", _ENV)
    try:
        spec = EnvSpec(**fields)
        make_env(spec)
    except ConfigError as exc:
        raise ConfigError(f"env: {exc}") from exc
    return spec


def _parse_preorder(raw, where: str) -> PreorderGraph:
    fields = _fields(raw, where, _PREORDER)
    try:
        return build_graph(fields["n_objectives"], fields["edges"])
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_comparator(raw: dict, where: str) -> ComparatorConfig:
    fields = _fields(raw, where, _COMPARATOR)
    try:
        return ComparatorConfig(**fields)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_learner(raw: dict, n_objectives: int) -> LearnerConfig:
    """The shared settings, checked once so a bad value is blamed on the learner block."""
    shared = _fields(raw, "learner", _LEARNER)
    if isinstance(shared["gammas"], (int, float)) and not isinstance(shared["gammas"], bool):
        shared["gammas"] = [shared["gammas"]] * n_objectives
    try:
        epsilon = EpsilonSchedule(shared.pop("epsilon_start"), shared.pop("epsilon_end"),
                                  shared.pop("epsilon_decay_episodes"))
        return LearnerConfig(n_objectives=n_objectives, epsilon=epsilon, **shared)
    except ConfigError as exc:
        raise ConfigError(f"learner: {exc}") from exc


def _parse_variant(raw, index: int, base: PreorderGraph, shared: LearnerConfig) -> Variant:
    where = f"variants[{index}]"
    fields = _fields(raw, where, _VARIANT)
    label = fields["label"]
    if label in ("", ".", "..") or any(ch in label for ch in "/\\ "):
        raise ConfigError(f"{where}.label: must be non-empty, not . or .., "
                          "without spaces or slashes")
    comparator = _parse_comparator(fields["comparator"], f"{where}.comparator")
    graph = base
    if fields["preorder"] is not None:
        graph = _parse_preorder(fields["preorder"], f"{where}.preorder")
        if graph.n_objectives != base.n_objectives:
            raise ConfigError(f"{where}.preorder.n_objectives: must match the base preorder")
    try:
        learner = replace(shared, mode=fields["mode"], comparator=comparator,
                          weights=fields["weights"], training_preorder=fields["training_preorder"])
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return Variant(label, learner, graph)


def parse_config(raw: dict) -> RunConfig:
    """Validate a parsed JSON document into a :class:`RunConfig`.

    Raises :class:`ConfigError` naming the offending field.
    """
    top = _fields(raw, "config", _TOP)
    if top["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"config.schema_version: expected {SCHEMA_VERSION}, "
                          f"got {top['schema_version']}")
    env = _parse_env(top["env"])
    graph = _parse_preorder(top["preorder"], "preorder")
    shared = _parse_learner(top["learner"], graph.n_objectives)

    if top["episodes"] < 1:
        raise ConfigError(f"config.episodes: must be >= 1, got {top['episodes']}")
    seeds = _seeds(top["seeds"], "config.seeds")
    if top["eval_runs"] < 1 or top["eval_episodes"] < 1:
        raise ConfigError("config.eval_runs and config.eval_episodes must be >= 1")

    if not top["variants"]:
        raise ConfigError("config.variants: must list at least one variant")
    variants = tuple(_parse_variant(v, i, graph, shared) for i, v in enumerate(top["variants"]))
    labels = [v.label for v in variants]
    if len(set(labels)) != len(labels):
        raise ConfigError("config.variants: duplicate labels")

    return RunConfig(raw=raw, env=env, graph=graph, episodes=top["episodes"], seeds=seeds,
                     eval_runs=top["eval_runs"], eval_episodes=top["eval_episodes"],
                     variants=variants)


def _read_json(path, what: str):
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{what} file not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def load_config(path) -> RunConfig:
    """Read and validate a JSON run config from disk."""
    return parse_config(_read_json(path, "config"))


def load_preorder(path) -> PreorderGraph:
    """Read and validate a JSON preorder file, checked like a config's
    ``preorder`` block: ``{"n_objectives": N, "edges": [[higher, lower], ...]}``."""
    return _parse_preorder(_read_json(path, "preorder"), "preorder")


def config_hash(raw: dict) -> str:
    """Twelve hex chars of the SHA-256 of the canonical JSON encoding."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]
