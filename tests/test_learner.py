"""Tests for the tabular quantile-TD learner and its policy modes."""

from __future__ import annotations

import re
import tracemalloc
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest

from preorder_rl.artifacts import load_episode_log, load_tensor, save_episode_log, save_tensor
from preorder_rl.comparators import ComparatorConfig, midpoint_fractions
from preorder_rl.envs import EnvSpec, make_env
from preorder_rl.errors import ConfigError, EmptySetError, MissingArtifact, ShapeMismatch
from preorder_rl.learner import (
    MEAN_AGGREGATION,
    PREORDER,
    WEIGHTED_SUM,
    EpisodeRecord,
    EpsilonSchedule,
    LearnerConfig,
    QuantileTensor,
    VectorTransition,
    _pinball_step,
    act,
    evaluate,
    greedy_target_action,
    td_update,
    train,
)
from preorder_rl.preorder import PreorderGraph, build_graph
from preorder_rl.selection import select

from ._reference import ref_load_tensor, ref_tensor_csv
from .test_forms import WRONG_FORMS, form_id

ONE = build_graph(1, [])
CHAIN2 = build_graph(2, [(0, 1)])


def test_vector_transition_is_an_immutable_named_tuple() -> None:
    transition = VectorTransition(2, 1, (0.5,), 3, False)
    assert repr(transition) == ("VectorTransition(state=2, action=1, rewards=(0.5,), "
                                "next_state=3, terminal=False)")
    state, action, rewards, next_state, terminal = transition
    assert (state, action, rewards, next_state, terminal) == (2, 1, (0.5,), 3, False)
    with pytest.raises(AttributeError):
        transition.state = 0  # type: ignore[misc]


def single_config(**kw) -> LearnerConfig:
    args = dict(n_objectives=1, gammas=(0.9,), mode=PREORDER)
    args.update(kw)
    return LearnerConfig(**args)


def test_epsilon_schedule_is_linear_then_flat() -> None:
    schedule = EpsilonSchedule(1.0, 0.2, 4)
    assert schedule.value(0) == 1.0
    assert schedule.value(2) == pytest.approx(0.6)
    assert schedule.value(4) == pytest.approx(0.2)
    assert schedule.value(400) == pytest.approx(0.2)


def test_epsilon_schedule_validation() -> None:
    with pytest.raises(ConfigError):
        EpsilonSchedule(0.2, 0.5, 1)
    with pytest.raises(ConfigError):
        EpsilonSchedule(1.0, 0.1, 0)


def test_learner_config_validation() -> None:
    good = dict(n_objectives=2, gammas=(0.9, 0.9))
    LearnerConfig(**good)
    with pytest.raises(ConfigError):
        LearnerConfig(**{**good, "mode": "maximal"})
    with pytest.raises(ConfigError):
        LearnerConfig(n_objectives=0, gammas=())
    with pytest.raises(ConfigError):
        LearnerConfig(n_objectives=2, gammas=(0.9,))
    with pytest.raises(ConfigError):
        LearnerConfig(n_objectives=2, gammas=(0.9, 1.0))
    with pytest.raises(ConfigError):
        LearnerConfig(**{**good, "learning_rate": 0.0})
    with pytest.raises(ConfigError):
        LearnerConfig(**{**good, "learning_rate": 0.1, "learning_rate_end": 0.2})
    with pytest.raises(ConfigError):
        LearnerConfig(**{**good, "quantile_count": 0})
    with pytest.raises(ConfigError):
        LearnerConfig(**{**good, "huber_kappa": -1.0})
    with pytest.raises(ConfigError):
        LearnerConfig(**{**good, "mode": WEIGHTED_SUM})
    with pytest.raises(ConfigError):
        LearnerConfig(**{**good, "mode": WEIGHTED_SUM, "weights": (1.0,)})
    with pytest.raises(ConfigError):
        LearnerConfig(**{**good, "comparator": (ComparatorConfig(),)})
    with pytest.raises(ConfigError):
        LearnerConfig(**{**good, "initial_value": (0.0,)})
    with pytest.raises(ConfigError):
        LearnerConfig(**{**good, "initial_value": float("nan")})


LEARNER_FORMS = (("n_objectives", int), ("learning_rate", float), ("learning_rate_end", float),
                 ("quantile_count", int), ("mode", str), ("training_preorder", bool),
                 ("huber_kappa", float), ("initial_value", float))


@pytest.mark.parametrize(("field", "value"), [
    ("comparator", "qd"),
    ("comparator", (ComparatorConfig(),) * 2),
    ("initial_value", "05"),
    ("initial_value", (0.0, 0.0)),
    ("weights", "12"),
    ("weights", (True, False)),
    ("gammas", 0.9),
    ("gammas", "09")]
    # None is the unset learning_rate_end, so it is the right form there.
    + [(field, value) for field, kind in LEARNER_FORMS for value in WRONG_FORMS[kind]
       if not (field == "learning_rate_end" and value is None)]
    + [(field, value) for field in ("gammas", "weights") for value in (True, None, 10**400)]
    + [(field, (0.9, value)) for field in ("gammas", "weights") for value in WRONG_FORMS[float]]
    + [(field, value) for field in ("comparator", "epsilon") for value in (True, None, 0.5)],
    ids=form_id)
def test_each_setting_takes_one_form(field, value) -> None:
    good = dict(n_objectives=2, gammas=(0.9, 0.9), mode=WEIGHTED_SUM, weights=(1.0, 1.0))
    LearnerConfig(**good)
    with pytest.raises(ConfigError, match=rf"^{field}[ \[]"):
        LearnerConfig(**{**good, field: value})


def two_objectives(**kw) -> LearnerConfig:
    return LearnerConfig(**{"n_objectives": 2, "gammas": (0.9, 0.9), **kw})


@pytest.mark.parametrize(("make", "field", "value"), [
    (ComparatorConfig, "epsilon", "0.1"),
    (ComparatorConfig, "cvar_alpha", "0.5"),
    (ComparatorConfig, "mv_lambda", "1"),
    (EpsilonSchedule, "start", "1"),
    (EpsilonSchedule, "decay_episodes", 2.5),
    (two_objectives, "learning_rate_end", "0.05"),
    (two_objectives, "quantile_count", 2.5),
    (two_objectives, "quantile_count", True),
    (two_objectives, "n_objectives", 2.0),
    (two_objectives, "training_preorder", "no"),
    (two_objectives, "epsilon", (1, 0.1, 5))])
def test_setting_of_the_wrong_form_is_a_config_error_naming_it(make, field, value) -> None:
    make()
    with pytest.raises(ConfigError, match=f"^{field} "):
        make(**{field: value})


@pytest.mark.parametrize("field", ["gammas", "learning_rate", "huber_kappa", "initial_value"])
def test_integer_beyond_float_range_is_a_config_error(field) -> None:
    huge = (10**400,) if field == "gammas" else 10**400
    name = re.escape("gammas[0]") if field == "gammas" else field
    with pytest.raises(ConfigError, match=f"^{name} must be finite, got an integer beyond"):
        LearnerConfig(**{"n_objectives": 1, "gammas": (0.9,), field: huge})


def test_head_count_per_mode() -> None:
    assert LearnerConfig(n_objectives=3, gammas=(0.9,) * 3).n_heads == 3
    assert LearnerConfig(n_objectives=3, gammas=(0.9,) * 3,
                         mode=MEAN_AGGREGATION).n_heads == 3
    assert LearnerConfig(n_objectives=3, gammas=(0.9,) * 3, mode=WEIGHTED_SUM,
                         weights=(1.0, 1.0, 1.0)).n_heads == 1


def _mask(n_actions: int, *rows) -> np.ndarray:
    """A (heads, actions) boolean mask with the given allowed actions per row."""
    mask = np.zeros((len(rows), n_actions), dtype=bool)
    for head, allowed in enumerate(rows):
        mask[head, list(allowed)] = True
    return mask


def test_greedy_target_action_prefers_best_mean() -> None:
    tensor = QuantileTensor.zeros(1, 1, 3, 4)
    tensor.values[0, 0] = np.array([[0.2] * 4, [1.0] * 4, [0.5] * 4])
    assert greedy_target_action(tensor, 0).tolist() == [1]
    assert greedy_target_action(tensor, 0, _mask(3, {0, 2})).tolist() == [2]


def test_greedy_target_action_breaks_ties_low() -> None:
    tensor = QuantileTensor.zeros(2, 1, 4, 2)
    assert greedy_target_action(tensor, 0).tolist() == [0, 0]
    assert greedy_target_action(tensor, 0, _mask(4, {2, 3}, {1, 3})).tolist() == [2, 1]
    with pytest.raises(EmptySetError):
        greedy_target_action(tensor, 0, _mask(4, {1}, set()))


def test_greedy_target_action_picks_per_head() -> None:
    # Each head maximizes its own means within its own row of the mask,
    # lowest index first among ties, as a sorted-candidate argmax does.
    rng = np.random.default_rng(1213)
    for _ in range(200):
        tensor = QuantileTensor.zeros(3, 2, 5, 4)
        tensor.values[:] = rng.integers(-2, 3, size=tensor.values.shape)
        rows = [set(rng.choice(5, size=int(rng.integers(1, 6)), replace=False).tolist())
                for _ in range(3)]
        means = tensor.values[:, 1].mean(axis=2)
        expected = []
        for head, allowed in enumerate(rows):
            candidates = sorted(allowed)
            expected.append(candidates[int(np.argmax(means[head, candidates]))])
        assert greedy_target_action(tensor, 1, _mask(5, *rows)).tolist() == expected


def test_greedy_target_action_skips_masked_actions_when_allowed_means_are_minus_inf() -> None:
    # Means of values near the float64 floor overflow to -inf; the pick
    # still comes from the allowed actions.
    tensor = QuantileTensor.zeros(1, 1, 3, 2)
    tensor.values[0, 0, 1:] = -1.7e308
    with np.errstate(over="ignore"):
        assert greedy_target_action(tensor, 0, _mask(3, {1, 2})).tolist() == [1]


def test_masked_actions_cannot_affect_the_target() -> None:
    rng = np.random.default_rng(404)
    for _ in range(50):
        tensor = QuantileTensor.zeros(2, 3, 5, 4)
        tensor.values[:] = rng.normal(size=tensor.values.shape)
        rows = [frozenset(int(a) for a in rng.choice(5, size=3, replace=False))
                for _ in range(2)]
        state = int(rng.integers(3))
        before = greedy_target_action(tensor, state, _mask(5, *rows))
        for head, allowed in enumerate(rows):
            outside = [a for a in range(5) if a not in allowed]
            tensor.values[head, state, outside] *= float(rng.uniform(0.1, 10.0))
            tensor.values[head, state, outside] += float(rng.uniform(-10.0, 10.0))
        assert np.array_equal(greedy_target_action(tensor, state, _mask(5, *rows)), before)


def test_point_mass_fixed_point() -> None:
    config = single_config(gammas=(0.0,), quantile_count=8)
    tensor = QuantileTensor.zeros(1, 1, 1, 8)
    transition = VectorTransition(0, 0, (1.0,), 0, False)
    for step in range(10_000):
        config.learning_rate = 4.0 / (step + 4)
        td_update(tensor, transition, config, ONE)
    assert np.all(np.abs(tensor.values - 1.0) <= 1e-3)


def test_bernoulli_quantiles_split_to_support() -> None:
    rng = np.random.default_rng(99)
    config = single_config(gammas=(0.0,), quantile_count=2)
    tensor = QuantileTensor.zeros(1, 1, 1, 2)
    for step in range(40_000):
        config.learning_rate = 0.5 / (step + 1) ** 0.7
        reward = float(rng.integers(2))
        td_update(tensor, VectorTransition(0, 0, (reward,), 0, False), config, ONE)
    assert abs(tensor.values[0, 0, 0, 0] - 0.0) <= 0.05
    assert abs(tensor.values[0, 0, 0, 1] - 1.0) <= 0.05


def test_terminal_transitions_never_bootstrap() -> None:
    config = single_config(quantile_count=4)
    plain = QuantileTensor.zeros(1, 2, 2, 4)
    poisoned = plain.copy()
    poisoned.values[0, 1] = 1e6
    transition = VectorTransition(0, 0, (0.7,), 1, True)
    td_update(plain, transition, config, ONE)
    td_update(poisoned, VectorTransition(0, 0, (0.7,), 1, True), config, ONE)
    assert np.array_equal(plain.values[0, 0], poisoned.values[0, 0])


def test_unfiltered_heads_update_independently() -> None:
    rng = np.random.default_rng(31)
    graph = CHAIN2
    for _ in range(30):
        config = LearnerConfig(n_objectives=2, gammas=(0.9, 0.8), mode=PREORDER,
                               training_preorder=False, quantile_count=3)
        a = QuantileTensor.zeros(2, 4, 3, 3)
        a.values[:] = rng.normal(size=a.values.shape)
        b = a.copy()
        b.values[1] = rng.normal(size=b.values[1].shape)
        transition = VectorTransition(int(rng.integers(4)), int(rng.integers(3)),
                                      (0.5, -0.5), int(rng.integers(4)), False)
        td_update(a, transition, config, graph)
        td_update(b, transition, config, graph)
        assert np.array_equal(a.values[0], b.values[0])


def test_preorder_training_filters_bootstrap_targets() -> None:
    # At the successor state the first objective rules out action 1, so
    # the filtered learner bootstraps objective 2 from action 0 while
    # the unfiltered one is free to chase action 1's higher mean.
    base = QuantileTensor.zeros(2, 2, 2, 2)
    base.values[0, 1, 0] = 1.0
    base.values[0, 1, 1] = -1.0
    base.values[1, 1, 0] = 0.0
    base.values[1, 1, 1] = 5.0
    # Sit the updated cell between the two bootstrap targets so the
    # subgradient signs differ.
    base.values[1, 0, 0] = 1.0
    transition = VectorTransition(0, 0, (0.0, 0.0), 1, False)
    filtered, free = base.copy(), base.copy()
    td_update(filtered, transition,
              LearnerConfig(n_objectives=2, gammas=(0.9, 0.9), quantile_count=2,
                            comparator=ComparatorConfig("qd", epsilon=0.2),
                            training_preorder=True), CHAIN2)
    td_update(free, transition,
              LearnerConfig(n_objectives=2, gammas=(0.9, 0.9), quantile_count=2,
                            comparator=ComparatorConfig("qd", epsilon=0.2),
                            training_preorder=False), CHAIN2)
    assert np.array_equal(filtered.values[0], free.values[0])
    assert not np.array_equal(filtered.values[1, 0, 0], free.values[1, 0, 0])
    assert np.all(free.values[1, 0, 0] >= filtered.values[1, 0, 0])


def test_weighted_sum_update_bootstraps_the_weighted_reward() -> None:
    weights, rewards = (0.5, 2.0), (1.5, -0.25)
    config = LearnerConfig(n_objectives=2, gammas=(0.8, 0.3), mode=WEIGHTED_SUM,
                           weights=weights, quantile_count=4, learning_rate=0.3)
    tensor = QuantileTensor.zeros(1, 2, 3, 4)
    tensor.values[:] = np.random.default_rng(17).normal(size=tensor.values.shape)
    expected = tensor.values[0, 0, 2].copy()
    best = int(np.argmax(tensor.values[0, 1].mean(axis=1)))
    targets = np.dot(weights, rewards) + 0.8 * tensor.values[0, 1, best]
    _pinball_step(expected, targets, tensor.fractions, 0.3, 0.0)
    after = tensor.values.copy()
    after[0, 0, 2] = expected
    td_update(tensor, VectorTransition(0, 2, rewards, 1, False), config, CHAIN2)
    assert np.array_equal(tensor.values, after)


def test_huber_pinball_step_matches_plain_python_reference() -> None:
    kappa, rate = 0.5, 0.3
    fractions = midpoint_fractions(4)
    theta = np.array([-0.4, 0.1, 0.35, 1.2])
    # Targets on both sides of every quantile, some beyond kappa.
    targets = np.array([-1.5, -0.2, 0.15, 0.3, 0.9, 2.0])
    expected = []
    for tau, value in zip(fractions.tolist(), theta.tolist()):
        total = 0.0
        for target in targets.tolist():
            delta = target - value
            weight = abs(tau - (1.0 if delta < 0.0 else 0.0))
            total += weight * max(-kappa, min(kappa, delta)) / kappa
        expected.append(value + rate * total / len(targets))
    _pinball_step(theta, targets, fractions, rate, kappa)
    assert theta.tolist() == pytest.approx(expected, rel=0.0, abs=1e-12)


def _per_head_td_update(tensor: QuantileTensor, transition: VectorTransition,
                        config: LearnerConfig, graph: PreorderGraph) -> None:
    """One 1-D pinball step per head, in head order."""
    s, a, s2 = transition.state, transition.action, transition.next_state
    allowed = {}
    if config.mode == PREORDER and config.training_preorder and not transition.terminal:
        allowed = select(graph, tensor.matrices(s2), config.comparator).survivors
    for i in range(config.n_heads):
        reward = float(transition.rewards[i])
        if transition.terminal:
            targets = np.array([reward])
        else:
            means = tensor.values[i, s2].mean(axis=1)
            candidates = sorted(allowed.get(i, range(len(means))))
            best = candidates[int(np.argmax(means[candidates]))]
            targets = reward + config.gammas[i] * tensor.values[i, s2, best]
        _pinball_step(tensor.values[i, s, a], targets, tensor.fractions,
                      config.learning_rate, config.huber_kappa)


@pytest.mark.parametrize("kappa", [0.0, 0.5])
@pytest.mark.parametrize(("mode", "training_preorder"), [
    (MEAN_AGGREGATION, False), (PREORDER, True), (PREORDER, False)])
def test_batched_update_matches_per_head_steps(mode, training_preorder, kappa) -> None:
    rng = np.random.default_rng(2718)
    graph = build_graph(3, [(0, 1), (0, 2)])
    config = LearnerConfig(n_objectives=3, gammas=(0.9, 0.7, 0.4), mode=mode,
                           training_preorder=training_preorder, huber_kappa=kappa,
                           comparator=ComparatorConfig("qd", epsilon=0.1),
                           quantile_count=8, learning_rate=0.2)
    for trial in range(40):
        tensor = QuantileTensor.zeros(3, 4, 5, 8)
        tensor.values[:] = rng.normal(size=tensor.values.shape)
        reference = tensor.copy()
        transition = VectorTransition(int(rng.integers(4)), int(rng.integers(5)),
                                      tuple(rng.normal(size=3).tolist()),
                                      int(rng.integers(4)), trial % 2 == 0)
        td_update(tensor, transition, config, graph)
        _per_head_td_update(reference, transition, config, graph)
        assert np.array_equal(tensor.values, reference.values)


def test_act_modes() -> None:
    rng = np.random.default_rng(0)
    dominant = QuantileTensor.zeros(1, 1, 5, 2)
    dominant.values[0, 0, 2] = 1.0
    config = single_config(comparator=ComparatorConfig("qd", epsilon=0.2))
    assert act(dominant, 0, config, ONE, rng) == 2

    collapse = QuantileTensor.zeros(2, 1, 2, 1)
    collapse.values[0, 0, 0] = 1.0
    collapse.values[1, 0, 1] = 0.9
    ma = LearnerConfig(n_objectives=2, gammas=(0.9, 0.9), mode=MEAN_AGGREGATION)
    assert act(collapse, 0, ma, CHAIN2, rng) == 0

    ws = LearnerConfig(n_objectives=2, gammas=(0.9, 0.9), mode=WEIGHTED_SUM,
                       weights=(1.0, 1.0))
    scalar = QuantileTensor.zeros(1, 1, 3, 2)
    scalar.values[0, 0, 1] = 2.0
    assert act(scalar, 0, ws, CHAIN2, rng) == 1


def test_act_with_full_exploration_is_uniform() -> None:
    rng = np.random.default_rng(12)
    tensor = QuantileTensor.zeros(1, 1, 4, 2)
    tensor.values[0, 0, 3] = 100.0
    config = single_config()
    counts = np.zeros(4)
    draws = 8000
    for _ in range(draws):
        counts[act(tensor, 0, config, ONE, rng, epsilon=1.0)] += 1
    sigma = np.sqrt(draws * 0.25 * 0.75)
    assert np.all(np.abs(counts - draws / 4) <= 3 * sigma)


@pytest.mark.parametrize("mode", [WEIGHTED_SUM, MEAN_AGGREGATION])
def test_scalar_act_matches_the_mean_of_means(mode) -> None:
    # Small integer values make ties common; the lowest index must win
    # exactly as with the ndarray.mean expression.
    rng = np.random.default_rng(31337)
    config = LearnerConfig(n_objectives=3, gammas=(0.9,) * 3, mode=mode, weights=(1, 1, 1))
    for trial in range(400):
        tensor = QuantileTensor.zeros(config.n_heads, 2, int(rng.integers(2, 6)),
                                      int(rng.choice([1, 2, 8])))
        if trial % 2:
            tensor.values[:] = rng.integers(-2, 3, size=tensor.values.shape)
        else:
            tensor.values[:] = rng.normal(size=tensor.values.shape)
        expected = int(np.argmax(tensor.values[:, 1].mean(axis=2).mean(axis=0)))
        assert act(tensor, 1, config, build_graph(3, []), rng) == expected


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("mode", [PREORDER, WEIGHTED_SUM, MEAN_AGGREGATION])
def test_update_that_overflows_names_the_cell(mode) -> None:
    # theta 1e308 stepping toward a 1.7e308 target at rate 1e308: every
    # quantile from tau = 13/16 up overflows to inf.  Only the last head
    # starts that high, so it is the first bad head.
    config = LearnerConfig(n_objectives=2, gammas=(0.9, 0.9), mode=mode, weights=(0.0, 1.0),
                           learning_rate=1e308, quantile_count=8)
    tensor = QuantileTensor.filled(config.n_heads, 3, 2, 8, 1.0)
    tensor.values[-1, 0, 1] = 1.0e308
    transition = VectorTransition(0, 1, (1.0, 1.7e308), 2, False)
    with pytest.raises(ValueError, match=f"state 0, action 1, head {config.n_heads - 1} "):
        td_update(tensor, transition, config, CHAIN2)


def _transition_stream(seed: int, n_states: int):
    """2000 random (state, rewards, next_state, terminal) tuples."""
    rng = np.random.default_rng(seed)
    for _ in range(2000):
        yield (int(rng.integers(n_states)), tuple(rng.normal(size=3).tolist()),
               int(rng.integers(n_states)), bool(rng.random() < 0.1))


@pytest.mark.parametrize("kind", ["qd", "cvar"])
def test_selection_memo_changes_no_action_and_no_value(kind) -> None:
    graph = build_graph(3, [(0, 1), (0, 2)])
    config = LearnerConfig(n_objectives=3, gammas=(0.9, 0.8, 0.7), quantile_count=4,
                           comparator=ComparatorConfig(kind, epsilon=0.1), learning_rate=0.3)
    runs = []
    for memo in (None, {}):
        rng = np.random.default_rng(6)
        tensor = QuantileTensor.zeros(3, 5, 4, 4)
        tensor.values[:] = np.random.default_rng(7).normal(size=tensor.values.shape)
        actions = []
        hits = 0
        for state, rewards, next_state, terminal in _transition_stream(8, 5):
            hits += memo is not None and state in memo
            action = act(tensor, state, config, graph, rng, epsilon=0.2, memo=memo)
            td_update(tensor, VectorTransition(state, action, rewards, next_state, terminal),
                      config, graph, memo=memo)
            actions.append(action)
        runs.append((actions, tensor.values))
        if memo is not None:
            assert hits > 500
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])


def test_update_drops_only_the_written_state_from_the_memo() -> None:
    graph = build_graph(2, [(0, 1)])
    config = LearnerConfig(n_objectives=2, gammas=(0.9, 0.9), quantile_count=4)
    tensor = QuantileTensor.zeros(2, 4, 3, 4)
    tensor.values[:] = np.random.default_rng(3).normal(size=tensor.values.shape)
    rng = np.random.default_rng(4)
    memo = {}
    for state in range(4):
        act(tensor, state, config, graph, rng, memo=memo)
    assert sorted(memo) == [0, 1, 2, 3]
    cached = memo[3]
    td_update(tensor, VectorTransition(1, 0, (1.0, 1.0), 3, False), config, graph, memo=memo)
    assert sorted(memo) == [0, 2, 3]
    assert memo[3] is cached
    td_update(tensor, VectorTransition(2, 0, (1.0, 1.0), 2, False), config, graph, memo=memo)
    assert sorted(memo) == [0, 3]


@dataclass
class _DriftWorld:
    """Two-state one-objective world with action-dependent noisy payoff."""

    spec: EnvSpec
    n_states: int = 2
    n_actions: int = 3
    n_objectives: int = 1
    _state: int = 0

    def reset(self, rng: np.random.Generator) -> int:
        self._state = 0
        return 0

    def step(self, action, rng):
        from preorder_rl.envs import StepResult

        reward = float(rng.normal(loc=action * 0.1, scale=0.5))
        self._state = int(rng.integers(2))
        return StepResult(self._state, (reward,), bool(rng.random() < 0.1))


def test_single_objective_preorder_equals_weighted_sum() -> None:
    # With one objective, no target filtering and exploration pinned at
    # 1.0 the two modes consume randomness identically, so the whole
    # training trajectory must coincide.
    def run(mode: str, weights=None):
        env = _DriftWorld(EnvSpec("drift", episode_cap=20))
        config = LearnerConfig(n_objectives=1, gammas=(0.9,), mode=mode,
                               weights=weights, training_preorder=False,
                               epsilon=EpsilonSchedule(1.0, 1.0, 1),
                               quantile_count=4)
        return train(env, config, ONE, seed=77, episodes=30)

    pr_tensor, pr_log = run(PREORDER)
    ws_tensor, ws_log = run(WEIGHTED_SUM, weights=(1.0,))
    assert np.array_equal(pr_tensor.values, ws_tensor.values)
    assert pr_log == ws_log


def test_episodes_respect_the_cap() -> None:
    @dataclass
    class Endless:
        spec: EnvSpec
        n_states: int = 1
        n_actions: int = 2
        n_objectives: int = 1
        longest: int = 0
        _steps: int = 0

        def reset(self, rng):
            self._steps = 0
            return 0

        def step(self, action, rng):
            from preorder_rl.envs import StepResult

            self._steps += 1
            self.longest = max(self.longest, self._steps)
            return StepResult(0, (0.0,), False)

    env = Endless(EnvSpec("endless", episode_cap=9))
    train(env, single_config(), ONE, seed=0, episodes=3)
    assert env.longest == 9


def test_train_rejects_mismatched_objective_counts() -> None:
    env = make_env(EnvSpec("conflict-bandit"))
    with pytest.raises(ConfigError):
        train(env, single_config(), ONE, seed=0, episodes=1)
    config = LearnerConfig(n_objectives=2, gammas=(0.9, 0.9))
    with pytest.raises(ConfigError):
        train(env, config, ONE, seed=0, episodes=1)


def test_training_is_deterministic_per_seed() -> None:
    env = make_env(EnvSpec("conflict-bandit", episode_cap=1))
    config = LearnerConfig(n_objectives=2, gammas=(0.9, 0.9),
                           comparator=ComparatorConfig("qd", epsilon=0.2),
                           epsilon=EpsilonSchedule(1.0, 0.1, 100))
    runs = []
    for _ in range(2):
        tensor, log = train(env, config, CHAIN2, seed=5, episodes=300)
        records = evaluate(env, tensor, config, CHAIN2, seed=6, episodes=50)
        runs.append((tensor.values.copy(), log, records))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]
    assert runs[0][2] == runs[1][2]


def test_initial_value_fills_unvisited_cells_per_head() -> None:
    env = make_env(EnvSpec("conflict-bandit", episode_cap=1))
    config = LearnerConfig(n_objectives=2, gammas=(0.9, 0.9), initial_value=-1.0)
    tensor, _ = train(env, config, CHAIN2, seed=1, episodes=0)
    assert tensor.n_heads == 2
    assert np.all(tensor.values == -1.0)


def test_learning_rate_anneal_reaches_the_floor() -> None:
    env = make_env(EnvSpec("chain-mdp", params={"length": 3}))
    config = single_config(learning_rate=0.5, learning_rate_end=0.005,
                           quantile_count=1)
    slow, _ = train(env, config, ONE, seed=3, episodes=800)
    frozen = replace(config)
    frozen.learning_rate_end = None
    fast, _ = train(env, frozen, ONE, seed=3, episodes=800)
    target = 0.9 ** 2
    assert abs(slow.values[0, 0, 0, 0] - target) < abs(fast.values[0, 0, 0, 0] - target)


def test_bandit_learner_prefers_the_safe_arm() -> None:
    env = make_env(EnvSpec("conflict-bandit", episode_cap=1))
    config = LearnerConfig(n_objectives=2, gammas=(0.9, 0.9),
                           comparator=ComparatorConfig("qd", epsilon=0.2),
                           epsilon=EpsilonSchedule(1.0, 0.1, 1000))
    tensor, _ = train(env, config, CHAIN2, seed=11, episodes=2000)
    records = evaluate(env, tensor, config, CHAIN2, seed=12, episodes=200)
    safe = np.mean([r.returns[1] == 0.5 for r in records])
    assert safe >= 0.9


def test_chain_value_matches_geometric_return() -> None:
    env = make_env(EnvSpec("chain-mdp", params={"length": 4}))
    config = single_config(learning_rate=0.2, learning_rate_end=0.01,
                           quantile_count=8)
    tensor, _ = train(env, config, ONE, seed=2, episodes=2000)
    assert tensor.values[0, 0, 0].mean() == pytest.approx(0.729, abs=1e-2)


def test_tensor_csv_roundtrip(tmp_path) -> None:
    rng = np.random.default_rng(8)
    tensor = QuantileTensor.zeros(2, 3, 4, 5)
    tensor.values[:] = rng.normal(size=tensor.values.shape)
    # Signed zero, the smallest subnormal and both largest finite values.
    tensor.values[1, 2, 3, :4] = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    path = tmp_path / "tensor.csv"
    save_tensor(tensor, path)
    loaded = load_tensor(path, (2, 3, 4, 5))
    assert loaded.values.tobytes() == tensor.values.tobytes()
    assert np.array_equal(loaded.fractions, tensor.fractions)


EDGE_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e-5,
               0.1 + 0.2]


@pytest.mark.parametrize("shape", [(2, 101, 3, 12), (3, 4, 2, 1), (2, 3, 1, 4), (1, 1, 1, 1)],
                         ids=["multi-digit", "one-quantile", "one-action", "one-cell"])
def test_tensor_csv_bytes_match_the_per_row_reference(tmp_path, shape) -> None:
    rng = np.random.default_rng(9)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape)
    values.flat[:len(EDGE_VALUES)] = EDGE_VALUES[:values.size]
    path = tmp_path / "tensor.csv"
    save_tensor(QuantileTensor(values), path)
    assert path.read_bytes() == ref_tensor_csv(values).encode()


def _repeated_blocks(case: str) -> np.ndarray:
    rng = np.random.default_rng(11)
    values = np.full((3, 6, 2, 3), 0.25)
    if case == "negative-zero":
        values[0, 2:] = 0.0
        values[0, 3] = -0.0
    elif case == "head-boundary":
        values[0, -1] = values[1, 0] = rng.normal(size=(2, 3))
    elif case == "between-distinct":
        values[1, 1:4] = rng.normal(size=(3, 2, 3))
        values[1, 2] = values[1, 0]
    elif case == "strided":
        values = rng.normal(size=(3, 12, 2, 3))
        values[:, 4:8] = 1.5
        values = values[:, ::2]
    return values


@pytest.mark.parametrize("case", ["identical-run", "negative-zero", "head-boundary",
                                  "between-distinct", "strided"])
def test_tensor_csv_bytes_match_the_reference_on_repeated_blocks(tmp_path, case) -> None:
    # The writer reuses a block's text only when its bytes repeat the
    # previous block's; a -0.0 block must not take a 0.0 block's text.
    values = _repeated_blocks(case)
    path = tmp_path / "tensor.csv"
    save_tensor(QuantileTensor(values), path)
    assert path.read_bytes() == ref_tensor_csv(values).encode()


def test_tensor_loader_returns_contiguous_float64_values(tmp_path) -> None:
    # A tensor left at a non-zero initial_value is the common grid case.
    tensor = QuantileTensor.filled(2, 4, 3, 5, -0.1)
    tensor.values[1, 2] = 7.0
    path = tmp_path / "tensor.csv"
    save_tensor(tensor, path)
    loaded = load_tensor(path, (2, 4, 3, 5)).values
    assert loaded.dtype == np.float64 and loaded.flags.c_contiguous
    assert loaded.tobytes() == tensor.values.tobytes()


def test_tensor_writer_holds_one_block_in_memory(tmp_path) -> None:
    # A grid-shaped tensor: 112,000 rows, 3.4 MB of text.  A writer that
    # built the whole file as one string would peak above the bound.
    tensor = QuantileTensor(np.random.default_rng(10).normal(size=(5, 560, 5, 8)))
    tracemalloc.start()
    try:
        save_tensor(tensor, tmp_path / "tensor.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_tensor_loader_rejects_bad_files(tmp_path) -> None:
    with pytest.raises(MissingArtifact):
        load_tensor(tmp_path / "absent.csv", (1, 1, 1, 2))
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("a,b,c\n")
    with pytest.raises(ShapeMismatch):
        load_tensor(bad_header, (1, 1, 1, 2))
    truncated = tmp_path / "short.csv"
    truncated.write_text("objective,state,action,k,value\n0,0,0,1,0.5\n")
    with pytest.raises(ShapeMismatch):
        load_tensor(truncated, (1, 1, 1, 2))
    # A row copied over its neighbour keeps the row count but loses a cell.
    duplicated = tmp_path / "duplicated.csv"
    duplicated.write_text("objective,state,action,k,value\n"
                          "0,0,0,0,0.5\n0,0,0,0,0.5\n0,0,0,2,0.25\n")
    with pytest.raises(ShapeMismatch, match="line 3") as caught:
        load_tensor(duplicated, (1, 1, 1, 3))
    assert str(duplicated) in str(caught.value)
    for bad in ("nan", "inf", "-inf"):
        diverged = tmp_path / f"{bad}.csv"
        diverged.write_text(f"objective,state,action,k,value\n0,0,0,0,{bad}\n")
        with pytest.raises(ValueError, match="finite") as caught:
            load_tensor(diverged, (1, 1, 1, 1))
        assert str(diverged) in str(caught.value)


@pytest.mark.parametrize("row, line", [
    ("0,0,0,1,abc", 3), ("0,0,0", 3), ("0,0,0,0,0.5,6", 2), ("0,0,0,1.0,0.5", 3),
    ("0,0,0,1e0,0.5", 3), ("0,0,0,9223372036854775808,0.5", 3)],
    ids=["non-number", "short-row", "long-row", "float-index", "exponent-index",
         "index-beyond-int64"])
def test_tensor_loader_names_the_line_it_rejects(tmp_path, row, line) -> None:
    rows = ["0,0,0,0,0.5", "0,0,0,1,0.5", "0,0,0,2,0.5", "0,0,0,3,0.5"]
    rows[line - 2] = row
    path = tmp_path / "tensor.csv"
    path.write_text("objective,state,action,k,value\r\n" + "".join(r + "\r\n" for r in rows))
    with pytest.raises(ShapeMismatch, match=rf"tensor\.csv, line {line}: "):
        load_tensor(path, (1, 1, 1, 4))


def test_header_only_tensor_is_a_shape_mismatch_without_a_warning(tmp_path) -> None:
    # An interrupted write can leave exactly this file.
    path = tmp_path / "tensor.csv"
    path.write_text("objective,state,action,k,value\r\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ShapeMismatch, match=r"tensor\.csv, line 2: "):
            load_tensor(path, (1, 1, 1, 2))


def _outcomes(path, shape) -> list:
    """What ``load_tensor`` and ``ref_load_tensor`` make of the file at
    ``path``: the values' bytes, or the error's type and the line it names."""
    outcomes = []
    for load in (lambda: load_tensor(path, shape).values, lambda: ref_load_tensor(path, shape)):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                outcomes.append(load().tobytes())
        except ValueError as exc:
            named = re.search(r", line (\d+): ", str(exc))
            outcomes.append((type(exc), named and int(named[1])))
    return outcomes


# A constant tensor: every block but the first repeats the one before it.
CONSTANT = np.full((3, 6, 2, 3), 0.25)
# Physical line of row (a=1, k=0) of block (1, 2), a repeated block.
MUTATED_LINE = 2 + (1 * 6 + 2) * 6 + 3
LINE_EDITS = {
    "wrong-head": (lambda line: "2" + line[1:], MUTATED_LINE),
    "wrong-state": (lambda line: line.replace("1,2,", "1,3,", 1), MUTATED_LINE),
    "wrong-action": (lambda line: line.replace("1,2,1,0,", "1,2,0,0,", 1), MUTATED_LINE),
    "wrong-quantile": (lambda line: line.replace("1,2,1,0,", "1,2,1,2,", 1), MUTATED_LINE),
    "changed-value": (lambda line: line.replace("0.25", "0.5"), None),
    "nan": (lambda line: line.replace("0.25", "nan"), MUTATED_LINE),
    "dropped-line": (lambda line: "", MUTATED_LINE),
    "duplicated-line": (lambda line: line + line, MUTATED_LINE + 1),
    # np.loadtxt skipped a blank line and shifted the line named after it.
    "blank-line-before": (lambda line: "\r\n" + line, MUTATED_LINE),
    "stray-carriage-return": (lambda line: line.replace("0.25", "0.2\r5"), MUTATED_LINE),
    "lf-ending": (lambda line: line.replace("\r\n", "\n"), None),
    "padded-index": (lambda line: " " + line, None),
}


@pytest.mark.parametrize("case", list(LINE_EDITS))
def test_tensor_loader_matches_the_per_row_reference_on_a_one_line_edit(tmp_path, case) -> None:
    edit, line = LINE_EDITS[case]
    lines = ref_tensor_csv(CONSTANT).splitlines(keepends=True)
    lines[MUTATED_LINE - 1] = edit(lines[MUTATED_LINE - 1])
    path = tmp_path / "tensor.csv"
    path.write_bytes("".join(lines).encode())
    loaded, expected = _outcomes(path, CONSTANT.shape)
    assert loaded == expected
    if line is None:
        assert isinstance(expected, bytes)
    else:
        assert expected == (ValueError if case == "nan" else ShapeMismatch, line)


def _copy_line_into_next_block(text: str) -> str:
    # The same unprefixed line in two blocks in a row: the second holds the
    # first block's state index, so it must not reuse the first block.
    lines = text.splitlines(keepends=True)
    lines[MUTATED_LINE - 1] = lines[MUTATED_LINE + 5] = " " + lines[MUTATED_LINE - 1]
    return "".join(lines)


FILE_EDITS = {
    "no-final-line-break": (lambda text: text.removesuffix("\r\n"), CONSTANT.size + 1),
    "cut-inside-the-last-row": (lambda text: text[:-4], CONSTANT.size + 1),
    "extra-row": (lambda text: text + "0,0,0,0,0.25\r\n", CONSTANT.size + 2),
    "trailing-blank-line": (lambda text: text + "\r\n", CONSTANT.size + 2),
    "lf-endings": (lambda text: text.replace("\r\n", "\n"), None),
    "header-only": (lambda text: text.partition("\n")[0] + "\n", 2),
    # A block of blank lines, on which np.loadtxt warned "input contained no data".
    "blank-body": (lambda text: text.partition("\n")[0] + "\n" + "\r\n" * 6, 2),
    "line-copied-into-next-block": (_copy_line_into_next_block, MUTATED_LINE + 6),
}


@pytest.mark.parametrize("case", list(FILE_EDITS))
def test_tensor_loader_matches_the_per_row_reference_on_a_file_edit(tmp_path, case) -> None:
    edit, line = FILE_EDITS[case]
    path = tmp_path / "tensor.csv"
    path.write_bytes(edit(ref_tensor_csv(CONSTANT)).encode())
    loaded, expected = _outcomes(path, CONSTANT.shape)
    assert loaded == expected
    if line is None:
        assert isinstance(expected, bytes)
    else:
        assert expected == (ShapeMismatch, line)


# Constant tensors whose runs cross the 9 -> 10 and 99 -> 100 state steps
# and head boundaries, where the prefix changes length.
PREFIX_STEPS = {"ten-states": (2, 11, 2, 2), "hundred-states": (2, 101, 1, 2),
                "constant-across-heads": (3, 5, 2, 3)}


@pytest.mark.parametrize("case", ["identical-run", "negative-zero", "head-boundary",
                                  "between-distinct", "strided", *PREFIX_STEPS])
def test_tensor_loader_matches_the_per_row_reference_on_repeated_blocks(tmp_path, case) -> None:
    values = np.full(PREFIX_STEPS[case], -0.1) if case in PREFIX_STEPS else _repeated_blocks(case)
    path = tmp_path / "tensor.csv"
    save_tensor(QuantileTensor(values), path)
    loaded, expected = _outcomes(path, values.shape)
    assert loaded == expected == values.tobytes()


def test_tensor_loader_holds_no_whole_file_temporaries(tmp_path) -> None:
    # A grid-shaped tensor left at initial_value outside 70 visited states:
    # 112,000 rows, 1.9 MB of text, about a quarter of its blocks distinct.
    # One more whole-file copy (a body slice, a newline mask or a list of
    # lines) would push the peak over the bound.
    rng = np.random.default_rng(12)
    values = np.zeros((5, 560, 5, 8))
    values[:, rng.choice(560, 70, replace=False)] = rng.normal(size=(5, 70, 5, 8))
    path = tmp_path / "tensor.csv"
    save_tensor(QuantileTensor(values), path)
    tracemalloc.start()
    try:
        loaded = load_tensor(path, values.shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.values.tobytes() == values.tobytes()
    assert peak < 5_000_000


def test_episode_log_roundtrip(tmp_path) -> None:
    records = [
        EpisodeRecord(0, (0.5, -1.0), True, False, False, 1.0),
        EpisodeRecord(1, (0.25, 0.125), False, True, False, 0.4),
    ]
    path = tmp_path / "log.csv"
    save_episode_log(records, path)
    assert load_episode_log(path) == records
    with pytest.raises(MissingArtifact):
        load_episode_log(tmp_path / "absent.csv")
    broken = tmp_path / "broken.csv"
    broken.write_text("episode,return_0\n0,1.0\n")
    with pytest.raises(ShapeMismatch):
        load_episode_log(broken)


@pytest.mark.parametrize("row", ["1,abc,0,1,0,0.4", "1,0.25,x,1,0,0.4"])
def test_episode_log_names_the_line_of_a_non_numeric_cell(tmp_path, row) -> None:
    path = tmp_path / "log.csv"
    path.write_text("episode,return_0,success,collision,offroad,progress\n"
                    f"0,0.5,1,0,0,1.0\n{row}\n")
    with pytest.raises(ShapeMismatch, match=r"log\.csv, line 3: "):
        load_episode_log(path)
