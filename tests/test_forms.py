"""One form rule at every settings boundary.

Each library constructor and ``run_*`` entry point rejects a value of the
wrong form, or one beyond a documented upper bound, with a
``ConfigError`` whose message starts with the field's name, before it
reads or writes anything.  ``WRONG_FORMS`` is shared with
the env-param and ``LearnerConfig`` tables in ``test_envs.py`` and
``test_learner.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from preorder_rl.comparators import ComparatorConfig
from preorder_rl.config import parse_config
from preorder_rl.envs import ChainMDP, EnvSpec, make_env
from preorder_rl.errors import ConfigError
from preorder_rl.learner import (MAX_TENSOR_BYTES, EpsilonSchedule, LearnerConfig, QuantileTensor,
                                 evaluate, train)
from preorder_rl.preorder import MAX_OBJECTIVES, PreorderGraph, build_graph
from preorder_rl.runner import run_evaluate, run_stats, run_train

HUGE = 10**400

# Values of the wrong form, by the kind of the field they are given to.
WRONG_FORMS = {
    int: (True, np.bool_(False), None, "3", 2.5, 2.0),
    float: (True, np.bool_(False), None, "0.5", HUGE),
    str: (True, np.bool_(False), None, 3, 2.5),
    bool: (None, "no", 1, 2.5),
}


def form_id(value) -> str | None:
    """A short test id for a value whose default id would run to 400 digits."""
    return "10**400" if isinstance(value, int) and value == HUGE else None


def _bandit() -> tuple:
    return (make_env(EnvSpec("conflict-bandit", episode_cap=1)),
            LearnerConfig(n_objectives=2, gammas=(0.9, 0.9)), build_graph(2, [(0, 1)]))


def _train(out, **kw):
    return train(*_bandit(), seed=0, **{"episodes": 1, **kw})


def _evaluate(out, **kw):
    env, config, graph = _bandit()
    tensor = QuantileTensor.zeros(2, env.n_states, env.n_actions, config.quantile_count)
    return evaluate(env, tensor, config, graph, seed=0, **{"episodes": 1, **kw})


def _run(run, out, **kw):
    raw = {"schema_version": 1, "env": {"name": "conflict-bandit", "episode_cap": 1},
           "preorder": {"n_objectives": 2, "edges": [[0, 1]]}, "episodes": 1,
           "variants": [{"label": "pr"}]}
    return run(parse_config(raw), out, **kw)


def _run_stats(out, **kw):
    # The scores file does not exist: the settings must fail before it is read.
    return run_stats(out.parent / "scores.csv", out, **kw)


MAKERS = {
    "EnvSpec": lambda out, **kw: EnvSpec(**{"name": "chain-mdp", **kw}),
    "PreorderGraph": lambda out, **kw: PreorderGraph(**{"n_objectives": 2, **kw}),
    "EpsilonSchedule": lambda out, **kw: EpsilonSchedule(**kw),
    "ComparatorConfig": lambda out, **kw: ComparatorConfig(**kw),
    "train": _train, "evaluate": _evaluate,
    "run_train": lambda out, **kw: _run(run_train, out, **kw),
    "run_evaluate": lambda out, **kw: _run(run_evaluate, out, **kw),
    "run_stats": _run_stats,
    "make_env": lambda out, **kw: make_env(EnvSpec("crossing-grid", params=kw)),
    "LearnerConfig": lambda out, **kw: LearnerConfig(**{"gammas": (0.9,), **kw}),
    "chain-mdp": lambda out, **kw: make_env(EnvSpec("chain-mdp", params=kw)),
    # One head on the default 4-state chain: 32 bytes per quantile.
    "train on chain-mdp": lambda out, **kw: train(
        make_env(EnvSpec("chain-mdp")), LearnerConfig(1, gammas=(0.9,), **kw), build_graph(1),
        seed=0, episodes=1),
}

SCALARS = [
    ("EnvSpec", "name", str), ("EnvSpec", "episode_cap", int),
    ("PreorderGraph", "n_objectives", int),
    ("EpsilonSchedule", "start", float), ("EpsilonSchedule", "end", float),
    ("EpsilonSchedule", "decay_episodes", int),
    ("ComparatorConfig", "kind", str), ("ComparatorConfig", "epsilon", float),
    ("ComparatorConfig", "cvar_alpha", float), ("ComparatorConfig", "mv_lambda", float),
    ("train", "episodes", int), ("evaluate", "episodes", int),
    ("run_train", "jobs", int),
    ("run_stats", "seed", int), ("run_stats", "n_resamples", int),
    ("run_stats", "gap_target", float),
]

COLLECTIONS = [
    ("EnvSpec", "params", (True, None, "width", [("width", 3)])),
    ("PreorderGraph", "edges", (True, None, "01", 3, [(0, 1, 1)], [0, 1], [(0,)])
     + tuple([(0, value)] for value in WRONG_FORMS[int])),
]
SEEDS = [
    ("run_train", "seeds", (True, "0", 3) + tuple((0, value) for value in WRONG_FORMS[int])),
    ("run_evaluate", "seeds", (True, "0", 3) + tuple((0, value) for value in WRONG_FORMS[int])),
]

# Values of the right form beyond a documented upper bound.
SIZES = [("make_env", "width", HUGE), ("make_env", "height", HUGE)] + [
    (maker, "n_objectives", value) for maker in ("PreorderGraph", "LearnerConfig", "chain-mdp")
    for value in (HUGE, MAX_OBJECTIVES + 1)]
LENGTHS = [
    ("chain-mdp", "length", HUGE), ("chain-mdp", "length", ChainMDP.MAX_LENGTH + 1),
    ("chain-mdp", "length", 2**61),
    ("train on chain-mdp", "quantile_count", HUGE),
    ("train on chain-mdp", "quantile_count", MAX_TENSOR_BYTES // 32 + 1)]

# Pytest ids a tuple value by its position in CASES (``run_train-seeds-value116``),
# so a case added or removed before it renames it: add new cases at the end.
CASES = ([(maker, field, value) for maker, field, kind in SCALARS for value in WRONG_FORMS[kind]]
         + [(maker, field, value) for maker, field, values in COLLECTIONS for value in values]
         + SIZES
         + [(maker, field, value) for maker, field, values in SEEDS for value in values]
         + LENGTHS)


@pytest.mark.parametrize(("maker", "field", "value"), CASES, ids=form_id)
def test_every_boundary_rejects_each_wrong_form_by_name(tmp_path, maker, field, value) -> None:
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=rf"^{field}[ :\[]"):
        MAKERS[maker](out, **{field: value})
    assert not out.exists()
