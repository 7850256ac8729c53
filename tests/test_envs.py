"""Tests for the bandit, chain and crossing-grid environments."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from preorder_rl.envs import (
    _ENV_TYPES,
    ChainMDP,
    ConflictBandit,
    CrossingGrid,
    EnvSpec,
    StepResult,
    make_env,
)
from preorder_rl.errors import ConfigError, InvalidAction

from .test_forms import WRONG_FORMS


def grid(density: str = "high", **params) -> CrossingGrid:
    return make_env(EnvSpec("crossing-grid", episode_cap=40,
                            params={"density": density, **params}))


def parse_render(text: str) -> tuple[tuple[int, int], set[tuple[int, int]]]:
    """Agent cell and car cells from the ASCII dump, row 0 at the bottom."""
    lines = text.splitlines()
    height = len(lines)
    agent = None
    cars = set()
    for i, line in enumerate(lines):
        row = height - 1 - i
        for col, glyph in enumerate(line.split(" ")):
            if glyph == "E":
                agent = (row, col)
            elif glyph in "><":
                cars.add((row, col))
    assert agent is not None
    return agent, cars


def test_make_env_accepts_name_variants() -> None:
    for name in ("ConflictBandit", "conflict-bandit", "conflict_bandit"):
        assert isinstance(make_env(EnvSpec(name)), ConflictBandit)
    assert isinstance(make_env(EnvSpec("ChainMDP")), ChainMDP)
    assert isinstance(make_env(EnvSpec("CrossingGrid")), CrossingGrid)


def test_make_env_rejects_unknown_name_and_params() -> None:
    with pytest.raises(ConfigError):
        make_env(EnvSpec("frogger"))
    with pytest.raises(ConfigError, match="turbo"):
        make_env(EnvSpec("chain-mdp", params={"turbo": 1}))


def test_env_spec_validates_cap_and_freezes_params() -> None:
    with pytest.raises(ConfigError):
        EnvSpec("chain-mdp", episode_cap=0)
    spec = EnvSpec("chain-mdp", params={"length": 5})
    with pytest.raises(TypeError):
        spec.params["length"] = 9  # type: ignore[index]


@pytest.mark.parametrize("cap", [2.5, True, "3"], ids=["float", "bool", "string"])
def test_env_spec_rejects_a_cap_that_is_not_an_integer(cap) -> None:
    # Accepted, a float cap would fail later in range() and True would cap at 1.
    with pytest.raises(ConfigError, match="episode_cap must be one integer"):
        EnvSpec("chain-mdp", episode_cap=cap)


def test_step_result_is_an_immutable_named_tuple() -> None:
    # The stream digests below hash this repr.
    result = StepResult(3, (0.0, -1.0), True, collision=True)
    assert repr(result) == ("StepResult(next_state=3, rewards=(0.0, -1.0), terminal=True, "
                            "collision=True, offroad=False, success=False, progress=0.0)")
    assert result == (3, (0.0, -1.0), True, True, False, False, 0.0)
    with pytest.raises(AttributeError):
        result.terminal = False  # type: ignore[misc]


def test_bandit_safe_arm_is_deterministic() -> None:
    env = make_env(EnvSpec("conflict-bandit"))
    rng = np.random.default_rng(1)
    assert env.reset(rng) == 0
    for _ in range(50):
        result = env.step(env.SAFE, rng)
        assert result.rewards == (0.0, 0.5)
        assert result.terminal and result.success and not result.collision


def test_bandit_risky_arm_crash_frequency() -> None:
    env = make_env(EnvSpec("conflict-bandit"))
    rng = np.random.default_rng(7)
    crashes = 0
    for _ in range(10_000):
        result = env.step(env.RISKY, rng)
        assert result.terminal
        assert result.rewards[1] == 1.0
        assert result.rewards[0] in (0.0, -1.0)
        assert result.collision == (result.rewards[0] < 0.0)
        assert result.success == (not result.collision)
        crashes += result.collision
    sigma = np.sqrt(10_000 * 0.2 * 0.8)
    assert abs(crashes - 2000) <= 3 * sigma


def test_bandit_validates_crash_prob() -> None:
    with pytest.raises(ConfigError):
        make_env(EnvSpec("conflict-bandit", params={"crash_prob": 1.5}))


@pytest.mark.parametrize(("name", "param"), [
    ("conflict-bandit", "crash_prob"), ("conflict-bandit", "crash_penalty"),
    ("crossing-grid", "risk_penalty"), ("crossing-grid", "goal_bonus")])
def test_non_finite_float_params_are_rejected_by_name(name, param) -> None:
    for value in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match=param):
            make_env(EnvSpec(name, params={param: value}))
    # A string is never a number, whatever it spells.
    for value in ("nan", "-inf"):
        with pytest.raises(ConfigError, match=f"^{param} must be one real number"):
            make_env(EnvSpec(name, params={param: value}))


@pytest.mark.parametrize(("name", "param"), [
    (name, param) for name, env_type in _ENV_TYPES.items() for param in env_type.PARAMS])
def test_every_param_is_typed_by_its_default(name, param) -> None:
    default = _ENV_TYPES[name].PARAMS[param]
    kind = type(default)
    for value in WRONG_FORMS[kind]:
        with pytest.raises(ConfigError, match=f"^{param} must be "):
            make_env(EnvSpec(name, params={param: value}))
    # Integers, numpy ones included, pass for int and float params alike.
    if kind in (int, float):
        env = make_env(EnvSpec(name, params={param: np.int16(int(default))}))
        assert getattr(env, param) == int(default) and type(getattr(env, param)) is kind


def test_chain_walks_right_and_pays_at_the_end() -> None:
    env = make_env(EnvSpec("chain-mdp", params={"length": 4}))
    rng = np.random.default_rng(0)
    assert env.reset(rng) == 0
    trace = [env.step(0, rng) for _ in range(4)]
    assert [(r.next_state, r.rewards[0], r.terminal) for r in trace] == [
        (1, 0.0, False), (2, 0.0, False), (3, 0.0, False), (3, 1.0, True)]
    assert trace[-1].success


def test_chain_broadcasts_reward_to_all_objectives() -> None:
    env = make_env(EnvSpec("chain-mdp", params={"length": 2, "n_objectives": 3}))
    rng = np.random.default_rng(0)
    env.reset(rng)
    assert env.step(0, rng).rewards == (0.0, 0.0, 0.0)
    result = env.step(0, rng)
    assert result.rewards == (1.0, 1.0, 1.0)
    assert result.terminal


def test_chain_rejects_short_corridors() -> None:
    with pytest.raises(ConfigError):
        make_env(EnvSpec("chain-mdp", params={"length": 1}))


def test_every_env_rejects_out_of_range_actions() -> None:
    rng = np.random.default_rng(0)
    for name in ("conflict-bandit", "chain-mdp", "crossing-grid"):
        env = make_env(EnvSpec(name))
        env.reset(rng)
        with pytest.raises(InvalidAction):
            env.step(99, rng)


def test_grid_validates_geometry_and_density() -> None:
    with pytest.raises(ConfigError):
        grid(width=2)
    with pytest.raises(ConfigError):
        grid(height=2)
    with pytest.raises(ConfigError):
        grid(density="rush-hour")
    with pytest.raises(ConfigError):
        grid(density="high", width=4)


@pytest.mark.parametrize("side", ["width", "height"])
def test_grid_sides_stop_at_the_documented_bound(side) -> None:
    env = grid(**{side: CrossingGrid.MAX_SIDE})
    assert getattr(env, side) == 256
    rng = np.random.default_rng(0)
    env.reset(rng)
    assert 0 <= env.step(env.SLOW, rng).next_state < env.n_states
    with pytest.raises(ConfigError, match=f"^{side} must be <= 256, got 257$"):
        grid(**{side: 257})


@pytest.mark.parametrize(("name", "param"), [
    ("crossing-grid", "width"), ("crossing-grid", "height"),
    ("crossing-grid", "lane_halfwidth"), ("chain-mdp", "length"),
    ("chain-mdp", "n_objectives")])
@pytest.mark.parametrize("value", [7.9, 5.0, "9", True, None])
def test_integer_params_reject_other_types_by_name(name, param, value) -> None:
    with pytest.raises(ConfigError, match=f"{param} must be one integer"):
        make_env(EnvSpec(name, params={param: value}))


@pytest.mark.parametrize(("name", "param", "value"), [
    ("crossing-grid", "lane_halfwidth", -3), ("chain-mdp", "n_objectives", 0),
    ("chain-mdp", "n_objectives", -1)])
def test_integer_params_below_their_minimum_are_rejected(name, param, value) -> None:
    with pytest.raises(ConfigError, match=f"{param} must be >= "):
        make_env(EnvSpec(name, params={param: value}))


def test_numpy_integer_params_follow_the_same_rules() -> None:
    env = make_env(EnvSpec("crossing-grid", params={"width": np.int64(9),
                                                     "lane_halfwidth": np.int32(1)}))
    assert (env.width, env.lane_halfwidth) == (9, 1)
    assert type(env.width) is int
    with pytest.raises(ConfigError, match="lane_halfwidth must be >= 0"):
        make_env(EnvSpec("crossing-grid", params={"lane_halfwidth": np.int64(-1)}))
    with pytest.raises(ConfigError, match="width must be one integer"):
        make_env(EnvSpec("crossing-grid", params={"width": np.bool_(True)}))


def test_grid_reset_is_reproducible() -> None:
    env = grid()
    first = env.reset(np.random.default_rng(42))
    layout = env.render()
    second = env.reset(np.random.default_rng(42))
    assert first == second
    assert env.render() == layout


def test_grid_episodes_are_reproducible() -> None:
    def rollout(seed: int) -> list[tuple]:
        env = grid()
        rng = np.random.default_rng(seed)
        env.reset(rng)
        out = []
        for _ in range(200):
            result = env.step(int(rng.integers(5)), rng)
            out.append((result.next_state, result.rewards, result.terminal,
                        result.collision, result.offroad, result.success))
            if result.terminal:
                env.reset(rng)
        return out

    assert rollout(99) == rollout(99)


def test_grid_flags_and_reward_ranges() -> None:
    env = grid()
    rng = np.random.default_rng(314)
    env.reset(rng)
    for _ in range(600):
        result = env.step(int(rng.integers(5)), rng)
        assert len(result.rewards) == 5
        assert 0 <= result.next_state < env.n_states
        if result.success:
            assert not result.collision and not result.offroad
        assert result.terminal == (result.collision or result.offroad or result.success)
        assert (result.rewards[0] == -1.0) == (result.collision or result.offroad)
        assert result.rewards[1] in (0.0, -0.2)
        assert result.rewards[2] in (0.0, -0.1)
        assert 0.0 <= result.rewards[3] <= 0.5
        assert result.rewards[4] in (0.0, -0.05)
        if result.terminal:
            env.reset(rng)


def test_grid_first_step_lane_and_comfort_are_deterministic() -> None:
    env = grid()
    rng = np.random.default_rng(8)
    env.reset(rng)
    result = env.step(env.STAY, rng)
    assert result.rewards[2] == 0.0
    assert result.rewards[3] == 0.0
    assert result.rewards[4] == 0.0

    env.reset(rng)
    result = env.step(env.RIGHT, rng)
    assert result.rewards[2] == -0.1
    assert result.rewards[4] == -0.05
    assert not result.offroad


def test_grid_offroad_is_terminal_and_penalized() -> None:
    for seed in range(200):
        env = grid(density="low")
        rng = np.random.default_rng(seed)
        env.reset(rng)
        for _ in range(env.width // 2 + 1):
            result = env.step(env.LEFT, rng)
            if result.terminal:
                break
        if result.offroad:
            assert result.terminal
            assert not result.collision
            assert result.rewards[0] == -1.0
            return
    pytest.fail("no offroad exit found in 200 seeds")


def test_grid_collision_is_terminal_and_penalized() -> None:
    for seed in range(200):
        env = grid()
        rng = np.random.default_rng(seed)
        env.reset(rng)
        result = env.step(env.SLOW, rng)
        if result.collision:
            assert result.terminal
            assert result.rewards[0] == -1.0
            assert not result.success
            return
    pytest.fail("no colliding first step found in 200 seeds")


def test_grid_blind_crossing_can_succeed() -> None:
    for seed in range(1000):
        env = grid()
        rng = np.random.default_rng(seed)
        env.reset(rng)
        for _ in range(env.height - 1):
            result = env.step(env.SLOW, rng)
            if result.terminal:
                break
        if result.success:
            assert result.rewards[3] == pytest.approx(0.4)
            assert result.rewards[0] == 0.0
            return
    pytest.fail("no clean crossing found in 1000 seeds")


def bit_for(env: CrossingGrid, state: int, action: int) -> int:
    slot = {env.LEFT: 0, env.SLOW: 1, env.RIGHT: 2, env.STAY: 3}[action]
    return (state % 16) >> slot & 1


def test_clear_threat_bit_means_safe_single_step() -> None:
    env = grid()
    rng = np.random.default_rng(2025)
    state = env.reset(rng)
    checked = 0
    for _ in range(500):
        options = [a for a in (env.STAY, env.SLOW, env.LEFT, env.RIGHT)
                   if bit_for(env, state, a) == 0]
        if options:
            action = options[int(rng.integers(len(options)))]
            result = env.step(action, rng)
            assert not result.collision and not result.offroad
            checked += 1
        else:
            result = env.step(env.STAY, rng)
        state = env.reset(rng) if result.terminal else result.next_state
    assert checked > 400


def test_set_threat_bit_means_blocked_single_step() -> None:
    env = grid()
    rng = np.random.default_rng(77)
    state = env.reset(rng)
    hits = 0
    for _ in range(2000):
        blocked = [a for a in (env.STAY, env.SLOW, env.LEFT, env.RIGHT)
                   if bit_for(env, state, a) == 1]
        if blocked:
            action = blocked[int(rng.integers(len(blocked)))]
            result = env.step(action, rng)
            assert result.collision or result.offroad
            hits += 1
        else:
            result = env.step(int(rng.integers(5)), rng)
        state = env.reset(rng) if result.terminal else result.next_state
    assert hits > 200


def test_risk_penalty_matches_rendered_adjacency() -> None:
    env = grid(density="mid")
    rng = np.random.default_rng(11)
    env.reset(rng)
    checked = 0
    for _ in range(800):
        result = env.step(int(rng.integers(5)), rng)
        if result.terminal:
            env.reset(rng)
            continue
        agent, cars = parse_render(env.render())
        near = any(max(abs(agent[0] - r), abs(agent[1] - c)) <= 1 for r, c in cars)
        assert (result.rewards[1] == -0.2) == near
        checked += 1
    assert checked > 150


def test_render_shape_and_glyphs() -> None:
    env = grid()
    env.reset(np.random.default_rng(5))
    lines = env.render().splitlines()
    assert len(lines) == env.height
    assert all(len(line.split(" ")) == env.width for line in lines)
    agent, cars = parse_render(env.render())
    assert agent == (0, env.width // 2)
    expected = env.cars_per_row * (env.height - 1)
    # The agent glyph can hide one car standing on the spawn cell.
    assert expected - 1 <= len(cars) <= expected


# sha256 of the transition stream below.  The first three were recorded
# on the array-based traffic model that the per-row bitmasks replaced,
# the fourth on the per-row bitmasks that the packed traffic ints replaced.
STREAM_DIGESTS = (
    ({"density": "high", "risk_penalty": -0.5},
     "87def2944ef6385707729ea927713860b5b7f28a4e3e2f275162f1eaa12c7304"),
    ({"density": "low"},
     "2b158bf2d3138a8fcf777920e61415cd971ccfbbe37f54b033911f4a8f9af4b3"),
    ({"density": "mid", "width": 9, "height": 6, "lane_halfwidth": 1},
     "9ae8c083c4dc1c442abf05d6d94fac8b09e062d75e4212cc429db5802a89f8fc"),
    # 85 cells: the packed traffic ints outgrow one 64-bit machine word.
    ({"density": "low", "width": 17, "height": 5},
     "61899f863f5b7b591eec895842329c3e54f2d7c10379e561e7d642e54b846e62"),
)


@pytest.mark.parametrize(("params", "digest"), STREAM_DIGESTS)
def test_grid_transition_stream_matches_recorded_digest(params, digest) -> None:
    stream = hashlib.sha256()
    for seed in range(3):
        env = grid(**params)
        rng = np.random.default_rng(seed)
        stream.update(repr(env.reset(rng)).encode())
        for step in range(5000):
            result = env.step(int(rng.integers(5)), rng)
            stream.update(repr(result).encode())
            if step % 500 == 0:
                stream.update(env.render().encode())
            if result.terminal:
                stream.update(repr(env.reset(rng)).encode())
    assert stream.hexdigest() == digest
