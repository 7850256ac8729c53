"""Run configuration: a JSON schema, its validation, and hashing.

A run config bundles one environment, a base priority preorder, shared
learner settings, and a list of algorithm variants to train side by
side.  Each variant carries the one validated :class:`LearnerConfig` it
trains and evaluates with: the shared settings plus its own mode,
comparator, bootstrap filter and weights.  Output directories are keyed
by a short hash of the canonical JSON of the training fields, so configs
that train differently never collide.

The schema is the field tables ``_TOP``, ``_ENV``, ``_PREORDER``,
``_LEARNER``, ``_VARIANT`` and ``_COMPARATOR``, one per JSON block.
:func:`_fields` reads every block, and the ``select --preorder`` file,
against its table, so each rejects fields its table does not name.
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
_REQUIRED = object()

# {field: (type, default or _REQUIRED)}; type None: the block's parser checks it.
_TOP = {"schema_version": (int, _REQUIRED), "env": (dict, _REQUIRED),
        "preorder": (dict, _REQUIRED), "learner": (dict, {}), "episodes": (int, _REQUIRED),
        "seeds": (list, [0]), "eval_runs": (int, 1), "eval_episodes": (int, 100),
        "variants": (list, _REQUIRED)}
_ENV = {"name": (str, _REQUIRED), "episode_cap": (int, 100), "params": (dict, {})}
_PREORDER = {"n_objectives": (int, _REQUIRED), "edges": (list, [])}
_LEARNER = {"gammas": (None, 0.95), "learning_rate": (float, 0.1),
            "learning_rate_end": (float, None), "quantile_count": (int, 8),
            "epsilon_start": (float, 1.0), "epsilon_end": (float, 0.05),
            "epsilon_decay_episodes": (int, 1), "huber_kappa": (float, 0.0),
            "initial_value": (float, 0.0)}
_VARIANT = {"label": (str, _REQUIRED), "mode": (str, PREORDER), "comparator": (dict, {}),
            "training_preorder": (bool, True), "weights": (list, None),
            "preorder": (dict, None)}
_COMPARATOR = {"kind": (str, "qd"), "epsilon": (float, 0.0), "cvar_alpha": (float, 0.25),
               "mv_lambda": (float, 1.0)}


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


def _fields(raw, where: str, spec: dict) -> dict:
    """Read the JSON object ``raw`` against its field table ``spec``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object, got {type(raw).__name__}")
    unknown = set(raw) - set(spec)
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    values = {}
    for field, (kind, default) in spec.items():
        if field in raw:
            value = raw[field]
            values[field] = value if kind is None else _typed(value, kind, f"{where}.{field}")
        elif default is _REQUIRED:
            raise ConfigError(f"{where}.{field}: missing")
        else:
            values[field] = default
    return values


def _floats(values: list, name: str) -> tuple[float, ...]:
    return tuple(_typed(v, float, f"{name}[{i}]") for i, v in enumerate(values))


def _seeds(values, name: str) -> tuple[int, ...]:
    values = list(values)
    if not values or not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0
                             for s in values):
        raise ConfigError(f"{name}: expected a non-empty list of ints >= 0")
    if len(set(values)) != len(values):
        raise ConfigError(f"{name}: duplicate seeds")
    return tuple(values)


def _parse_env(raw: dict) -> EnvSpec:
    fields = _fields(raw, "env", _ENV)
    try:
        spec = EnvSpec(**fields)
        make_env(spec)
    except ConfigError as exc:
        raise ConfigError(f"env: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"env.params: {exc}") from exc
    return spec


def _parse_preorder(raw, where: str) -> PreorderGraph:
    fields = _fields(raw, where, _PREORDER)
    edges = fields["edges"]
    for i, edge in enumerate(edges):
        if not (isinstance(edge, list) and len(edge) == 2
                and all(isinstance(v, int) and not isinstance(v, bool) for v in edge)):
            raise ConfigError(f"{where}.edges[{i}]: expected a [higher, lower] pair of ints")
    try:
        return build_graph(fields["n_objectives"], [(e[0], e[1]) for e in edges])
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_comparator(raw: dict, where: str) -> ComparatorConfig:
    fields = _fields(raw, where, _COMPARATOR)
    try:
        return ComparatorConfig(**fields)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_learner(raw: dict, n_objectives: int) -> dict:
    """The learner settings every variant shares, as ``LearnerConfig`` keywords."""
    shared = _fields(raw, "learner", _LEARNER)
    gammas = shared["gammas"]
    if isinstance(gammas, (int, float)) and not isinstance(gammas, bool):
        shared["gammas"] = tuple(float(gammas) for _ in range(n_objectives))
    elif isinstance(gammas, list):
        shared["gammas"] = _floats(gammas, "learner.gammas")
        if len(gammas) != n_objectives:
            raise ConfigError(f"learner.gammas: expected {n_objectives} values, "
                              f"got {len(gammas)}")
    else:
        raise ConfigError("learner.gammas: expected a number or a list of numbers")
    # The shared values are checked once here, so an out-of-range one is
    # blamed on the learner block rather than on the first variant.
    try:
        shared["epsilon"] = EpsilonSchedule(shared.pop("epsilon_start"),
                                            shared.pop("epsilon_end"),
                                            shared.pop("epsilon_decay_episodes"))
        LearnerConfig(n_objectives=n_objectives, **shared)
    except ConfigError as exc:
        raise ConfigError(f"learner: {exc}") from exc
    return shared


def _parse_variant(raw, index: int, base: PreorderGraph, shared: dict) -> Variant:
    where = f"variants[{index}]"
    fields = _fields(raw, where, _VARIANT)
    label, mode = fields["label"], fields["mode"]
    if not label or any(ch in label for ch in "/\\ "):
        raise ConfigError(f"{where}.label: must be non-empty, without spaces or slashes")
    if mode not in MODES:
        raise ConfigError(f"{where}.mode: {mode!r} not one of {MODES}")
    comparator = _parse_comparator(fields["comparator"], f"{where}.comparator")
    weights = fields["weights"]
    if weights is not None:
        weights = _floats(weights, f"{where}.weights")
    elif mode == WEIGHTED_SUM:
        raise ConfigError(f"{where}.weights: required by weighted-sum mode")
    graph = base
    if fields["preorder"] is not None:
        graph = _parse_preorder(fields["preorder"], f"{where}.preorder")
        if graph.n_objectives != base.n_objectives:
            raise ConfigError(f"{where}.preorder.n_objectives: must match the base preorder")
    try:
        learner = LearnerConfig(n_objectives=base.n_objectives, comparator=comparator,
                                training_preorder=fields["training_preorder"], mode=mode,
                                weights=weights, **shared)
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
    if not path.exists():
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
