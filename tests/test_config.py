"""Run-config parsing, validation messages, and hashing."""

from __future__ import annotations

import hashlib
import json
import re

import pytest

from preorder_rl.cli import _build_parser
from preorder_rl.comparators import ComparatorConfig
from preorder_rl.config import config_hash, load_config, parse_config
from preorder_rl.envs import EnvSpec
from preorder_rl.errors import ConfigError
from preorder_rl.learner import (
    MEAN_AGGREGATION,
    PREORDER,
    WEIGHTED_SUM,
    EpsilonSchedule,
    LearnerConfig,
)


def minimal(**overrides) -> dict:
    raw = {
        "schema_version": 1,
        "env": {"name": "conflict-bandit"},
        "preorder": {"n_objectives": 2, "edges": [[0, 1]]},
        "episodes": 10,
        "variants": [{"label": "pr"}],
    }
    raw.update(overrides)
    return raw


def test_minimal_config_fills_defaults() -> None:
    run = parse_config(minimal())
    assert run.env.name == "conflict-bandit"
    assert run.env.episode_cap == 100
    assert dict(run.env.params) == {}
    assert run.graph.n_objectives == 2
    (variant,) = run.variants
    learner = variant.learner
    assert learner.gammas == (0.95, 0.95)
    assert learner.learning_rate == pytest.approx(0.1)
    assert learner.learning_rate_end is None
    assert learner.quantile_count == 8
    assert learner.epsilon == EpsilonSchedule(1.0, 0.05, 1)
    assert learner.huber_kappa == 0.0
    assert learner.initial_value == 0.0
    assert run.episodes == 10
    assert run.seeds == (0,)
    assert run.eval_runs == 1
    assert run.eval_episodes == 100
    assert variant.label == "pr"
    assert learner.mode == PREORDER
    assert learner.training_preorder is True
    assert learner.weights is None
    assert learner.comparator == ComparatorConfig("qd", 0.0)
    assert variant.graph is run.graph


def test_each_default_has_one_declaration() -> None:
    # The config tables and the select flags read their defaults from the
    # dataclasses; only the gammas default is the config's own.
    run = parse_config(minimal())
    assert run.variants[0].learner == LearnerConfig(n_objectives=2, gammas=(0.95,) * 2)
    assert run.env.episode_cap == EnvSpec.episode_cap
    args = _build_parser().parse_args(["select", "a.csv", "--preorder", "p.json", "--out", "o"])
    flags = ComparatorConfig(args.kind, args.epsilon, args.cvar_alpha, args.mv_lambda)
    assert flags == ComparatorConfig()


def test_full_config_round_trip() -> None:
    raw = minimal(
        env={"name": "crossing-grid", "episode_cap": 40,
             "params": {"density": "high", "risk_penalty": -0.5}},
        preorder={"n_objectives": 3, "edges": [[0, 1], [1, 2]]},
        learner={"gammas": [0.9, 0.8, 0.7], "learning_rate": 0.2,
                 "learning_rate_end": 0.01, "quantile_count": 4,
                 "epsilon_start": 0.9, "epsilon_end": 0.1,
                 "epsilon_decay_episodes": 50, "huber_kappa": 1.0,
                 "initial_value": -1.0},
        seeds=[3, 1, 4],
        eval_runs=2,
        eval_episodes=25,
        variants=[
            {"label": "pr", "comparator": {"kind": "cvar", "cvar_alpha": 0.5}},
            {"label": "ws", "mode": "weighted-sum", "weights": [1, 2, 3],
             "training_preorder": False},
            {"label": "flat", "mode": "mean-aggregation", "training_preorder": False,
             "preorder": {"n_objectives": 3}},
        ],
    )
    run = parse_config(raw)
    assert run.raw is raw
    assert run.env.episode_cap == 40
    assert run.env.params["risk_penalty"] == -0.5
    for variant in run.variants:
        assert variant.learner.gammas == (0.9, 0.8, 0.7)
        assert variant.learner.learning_rate_end == pytest.approx(0.01)
        assert variant.learner.quantile_count == 4
        assert variant.learner.epsilon == EpsilonSchedule(0.9, 0.1, 50)
        assert variant.learner.huber_kappa == 1.0
        assert variant.learner.initial_value == -1.0
    assert run.seeds == (3, 1, 4)
    assert run.eval_runs == 2 and run.eval_episodes == 25

    pr, ws, flat = run.variants
    assert pr.learner.comparator == ComparatorConfig("cvar", 0.0, cvar_alpha=0.5)
    assert ws.learner.mode == WEIGHTED_SUM
    assert ws.learner.weights == (1.0, 2.0, 3.0)
    assert ws.learner.training_preorder is False
    assert flat.learner.mode == MEAN_AGGREGATION
    assert flat.graph is not run.graph
    assert flat.graph.n_objectives == 3
    assert not flat.graph.edges


def test_scalar_gamma_broadcasts() -> None:
    raw = minimal(preorder={"n_objectives": 4}, learner={"gammas": 0.8})
    assert parse_config(raw).variants[0].learner.gammas == (0.8, 0.8, 0.8, 0.8)


def test_learner_config_wiring() -> None:
    raw = minimal(
        learner={"gammas": 0.9, "learning_rate": 0.3, "learning_rate_end": 0.05,
                 "quantile_count": 2, "epsilon_start": 0.7, "epsilon_end": 0.2,
                 "epsilon_decay_episodes": 9, "huber_kappa": 0.5, "initial_value": 1.5},
        variants=[{"label": "ws", "mode": "weighted-sum", "weights": [2, 1],
                   "training_preorder": False}],
    )
    run = parse_config(raw)
    cfg = run.variants[0].learner
    assert cfg.n_objectives == 2
    assert cfg.gammas == (0.9, 0.9)
    assert cfg.learning_rate == pytest.approx(0.3)
    assert cfg.learning_rate_end == pytest.approx(0.05)
    assert cfg.quantile_count == 2
    assert cfg.epsilon == EpsilonSchedule(0.7, 0.2, 9)
    assert cfg.huber_kappa == 0.5
    assert cfg.initial_value == 1.5
    assert cfg.mode == WEIGHTED_SUM
    assert cfg.weights == (2.0, 1.0)
    assert cfg.training_preorder is False
    assert cfg.comparator == ComparatorConfig("qd", 0.0)


def test_errors_name_the_offending_field() -> None:
    with pytest.raises(ConfigError, match="config: expected an object"):
        parse_config([])
    with pytest.raises(ConfigError, match="config.schema_version: missing"):
        parse_config({})
    with pytest.raises(ConfigError, match="schema_version: expected 1, got 2"):
        parse_config(minimal(schema_version=2))
    with pytest.raises(ConfigError, match="^config.schema_version must be one integer, got True"):
        parse_config(minimal(schema_version=True))
    with pytest.raises(ConfigError, match="^env: name must be one string, got 7"):
        parse_config(minimal(env={"name": 7}))
    with pytest.raises(ConfigError, match="env:"):
        parse_config(minimal(env={"name": "conflict-bandit", "params": {"turbo": 1}}))
    with pytest.raises(ConfigError, match="preorder.n_objectives: missing"):
        parse_config(minimal(preorder={}))
    with pytest.raises(ConfigError, match=r"^preorder: edges\[0\] must be one \(higher, lower\) pair"):
        parse_config(minimal(preorder={"n_objectives": 2, "edges": [[0, 1, 2]]}))
    with pytest.raises(ConfigError, match="preorder:"):
        parse_config(minimal(preorder={"n_objectives": 2, "edges": [[0, 1], [1, 0]]}))
    with pytest.raises(ConfigError, match="^learner: gammas must hold 2 values, got 3"):
        parse_config(minimal(learner={"gammas": [0.9, 0.9, 0.9]}))
    with pytest.raises(ConfigError, match="learner: unknown fields"):
        parse_config(minimal(learner={"momentum": 0.9}))
    with pytest.raises(ConfigError,
                       match="^learner: gammas must be a sequence of real numbers, got True"):
        parse_config(minimal(learner={"gammas": True}))
    with pytest.raises(ConfigError, match="config.episodes: must be >= 1"):
        parse_config(minimal(episodes=0))
    with pytest.raises(ConfigError, match="config.seeds"):
        parse_config(minimal(seeds=[]))
    with pytest.raises(ConfigError, match="config.seeds"):
        parse_config(minimal(seeds=[0, -1]))
    with pytest.raises(ConfigError, match="duplicate seeds"):
        parse_config(minimal(seeds=[1, 1]))
    with pytest.raises(ConfigError, match="eval_runs and config.eval_episodes"):
        parse_config(minimal(eval_runs=0))
    with pytest.raises(ConfigError, match="config: unknown fields"):
        parse_config(minimal(checkpoints=True))


def test_variant_errors_name_the_offending_entry() -> None:
    with pytest.raises(ConfigError, match="at least one variant"):
        parse_config(minimal(variants=[]))
    with pytest.raises(ConfigError, match=r"variants\[0\]: expected an object"):
        parse_config(minimal(variants=["pr"]))
    for label in ("has space", ".", ".."):
        with pytest.raises(ConfigError, match=r"variants\[0\].label"):
            parse_config(minimal(variants=[{"label": label}]))
    with pytest.raises(ConfigError, match=r"^variants\[1\]: mode must be one of"):
        parse_config(minimal(variants=[{"label": "a"}, {"label": "b", "mode": "maximal"}]))
    with pytest.raises(ConfigError, match=r"variants\[0\].comparator"):
        parse_config(minimal(variants=[{"label": "a", "comparator": {"kind": "median"}}]))
    with pytest.raises(ConfigError, match=r"variants\[0\].comparator: unknown fields"):
        parse_config(minimal(variants=[{"label": "a", "comparator": {"tau": 0.5}}]))
    with pytest.raises(ConfigError, match=r"^variants\[0\]: weights are required"):
        parse_config(minimal(variants=[{"label": "a", "mode": "weighted-sum"}]))
    with pytest.raises(ConfigError, match="must match the base preorder"):
        parse_config(minimal(variants=[{"label": "a", "preorder": {"n_objectives": 3}}]))
    with pytest.raises(ConfigError, match=r"variants\[0\]: unknown fields"):
        parse_config(minimal(variants=[{"label": "a", "seed": 3}]))
    with pytest.raises(ConfigError, match="duplicate labels"):
        parse_config(minimal(variants=[{"label": "a"}, {"label": "a"}]))
    # Wrong weight count passes parsing but fails the learner-config check.
    with pytest.raises(ConfigError, match=r"variants\[0\]"):
        parse_config(minimal(variants=[{"label": "a", "mode": "weighted-sum",
                                        "weights": [1.0]}]))


@pytest.mark.parametrize(("learner", "message"), [
    ({"learning_rate": -1}, "learning_rate must be positive, got -1.0"),
    ({"quantile_count": 0}, "quantile_count must be >= 1, got 0"),
    ({"gammas": 1.5}, "gammas must lie in [0, 1), got (1.5, 1.5)"),
    ({"huber_kappa": -0.5}, "huber_kappa must be >= 0, got -0.5"),
    ({"initial_value": float("nan")}, "initial_value must be finite, got nan"),
    ({"learning_rate_end": 0.5}, "learning_rate_end must lie in (0, learning_rate], got 0.5"),
    ({"epsilon_start": 0.01, "epsilon_end": 0.5}, "need 0 <= end <= start <= 1"),
    ({"epsilon_decay_episodes": 0}, "decay_episodes must be >= 1, got 0"),
    ({"huber_kappa": float("inf")}, "huber_kappa must be finite, got inf"),
    ({"huber_kappa": float("nan")}, "huber_kappa must be finite, got nan")])
def test_shared_learner_values_are_blamed_on_the_learner_block(learner, message) -> None:
    raw = minimal(learner=learner,
                  variants=[{"label": "a"}, {"label": "b", "mode": "mean-aggregation"}])
    with pytest.raises(ConfigError, match="^learner: " + re.escape(message)):
        parse_config(raw)


@pytest.mark.parametrize("entry", ["0.9", False, None],
                         ids=["0.9-str", "False-bool", "None-NoneType"])
def test_gamma_list_entries_must_be_numbers(entry) -> None:
    raw = minimal(learner={"gammas": [0.9, entry]})
    message = f"learner: gammas[1] must be one real number, got {entry!r}"
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        parse_config(raw)


@pytest.mark.parametrize("entry", ["1", True, [1]], ids=["1-str", "True-bool", "entry2-list"])
def test_weight_list_entries_must_be_numbers(entry) -> None:
    raw = minimal(variants=[{"label": "ws", "mode": "weighted-sum", "weights": [1, entry]}])
    message = f"variants[0]: weights[1] must be one real number, got {entry!r}"
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        parse_config(raw)


@pytest.mark.parametrize(("params", "message"), [
    ({"width": 7.9}, "env: width must be one integer, got 7.9"),
    ({"width": "9"}, "env: width must be one integer, got '9'"),
    ({"lane_halfwidth": -3}, "env: lane_halfwidth must be >= 0, got -3")])
def test_env_integer_params_are_config_errors(params, message) -> None:
    raw = minimal(env={"name": "crossing-grid", "params": params})
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(raw)


def test_load_config_reads_json(tmp_path) -> None:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(minimal()))
    run = load_config(path)
    assert run.raw == minimal()

    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(broken)


def test_config_hash_is_canonical() -> None:
    assert config_hash({"b": 1, "a": [2, 3]}) == config_hash({"a": [2, 3], "b": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})
    digest = config_hash({})
    assert digest == hashlib.sha256(b"{}").hexdigest()[:12]
    assert len(digest) == 12
    assert all(ch in "0123456789abcdef" for ch in digest)
