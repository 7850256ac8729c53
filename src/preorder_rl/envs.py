"""Tabular environments with vector rewards.

Three small worlds exercise the priority machinery:

* ``conflict-bandit``: one decision where safety and progress disagree.
* ``chain-mdp``: a single-action corridor with a terminal payoff, for
  checking value propagation.
* ``crossing-grid``: cross rows of moving traffic under a five-way
  objective hierarchy (safety, risk, lane keeping, progress, comfort).

Each environment declares its parameters once, in a ``PARAMS`` table of
defaults, and a param is typed by its default: an int param takes any
integer, a float param any finite real number, a str param a string,
and a bool is never a number.  This is the library's one form rule
(``errors._integer``, ``_real`` and ``_string``), applied when the
environment is built: a mistyped param raises ``ConfigError`` naming it,
as a mistyped ``EnvSpec`` field does (exit code 2 from the CLI).

Environments are stateful: ``reset(rng)`` returns the initial state id
and ``step(action, rng)`` advances the episode.  All randomness flows
through the generator passed in, so runs are reproducible.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InvalidAction, _integer, _real, _string
from .preorder import _objective_count


@dataclass(frozen=True)
class EnvSpec:
    """Name plus construction parameters for :func:`make_env`; a copy or
    an unpickled spec is rebuilt from ``(name, episode_cap, dict(params))``."""

    name: str
    episode_cap: int = 100
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _string(self.name, "name")
        if _integer(self.episode_cap, "episode_cap") < 1:
            raise ConfigError(f"episode_cap must be >= 1, got {self.episode_cap}")
        if not isinstance(self.params, Mapping):
            raise ConfigError(f"params must be a mapping, got {self.params!r}")
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    def __reduce__(self):
        return EnvSpec, (self.name, self.episode_cap, dict(self.params))


class StepResult(NamedTuple):
    """One transition: successor state id, reward vector, and episode flags.

    ``progress`` is the fraction of the route completed so far, in [0, 1].
    A named tuple: it unpacks and compares equal to a plain tuple.
    """

    next_state: int
    rewards: tuple[float, ...]
    terminal: bool
    collision: bool = False
    offroad: bool = False
    success: bool = False
    progress: float = 0.0


def _params(env, spec: EnvSpec) -> None:
    """Set each ``env.PARAMS`` entry as an attribute of the same name,
    ``spec.params`` taking precedence over the defaults, each checked
    by the form rule of its default's type."""
    unknown = set(spec.params) - set(env.PARAMS)
    if unknown:
        raise ConfigError(f"unknown params for env {spec.name!r}: {sorted(unknown)}")
    env.spec = spec
    for name, default in env.PARAMS.items():
        form = {int: _integer, float: _real, str: _string}[type(default)]
        setattr(env, name, form(spec.params.get(name, default), name))


class ConflictBandit:
    """One state, two actions, two objectives (safety, progress).

    The safe action always pays (0, 0.5).  The risky action always pays
    full progress but crashes with probability ``crash_prob``, costing
    ``crash_penalty`` on the safety objective.  Maximizing the equally
    weighted sum prefers the risky action; putting safety first prefers
    the safe one.
    """

    SAFE = 0
    RISKY = 1
    PARAMS = {"crash_prob": 0.2, "crash_penalty": -1.0, "safe_progress": 0.5,
              "risky_progress": 1.0}
    n_states = 1
    n_actions = 2
    n_objectives = 2

    def __init__(self, spec: EnvSpec) -> None:
        _params(self, spec)
        if not (0.0 <= self.crash_prob <= 1.0):
            raise ConfigError(f"crash_prob must lie in [0, 1], got {self.crash_prob}")

    def reset(self, rng: np.random.Generator) -> int:
        return 0

    def step(self, action: int, rng: np.random.Generator) -> StepResult:
        if action not in (self.SAFE, self.RISKY):
            raise InvalidAction(f"action {action} outside 0..1")
        if action == self.SAFE:
            return StepResult(0, (0.0, self.safe_progress), True, success=True, progress=1.0)
        crash = bool(rng.random() < self.crash_prob)
        safety = self.crash_penalty if crash else 0.0
        return StepResult(0, (safety, self.risky_progress), True,
                          collision=crash, success=not crash,
                          progress=0.0 if crash else 1.0)


class ChainMDP:
    """A corridor of ``length`` states with a single action.

    Every step moves one state to the right for zero reward; stepping
    out of the last state pays 1 on every objective and terminates, so
    the start state's discounted value is gamma ** (length - 1).
    ``length`` runs from 2 up to ``MAX_LENGTH``, the state count of the
    largest crossing grid.
    """

    MAX_LENGTH = 1 << 20
    PARAMS = {"length": 4, "n_objectives": 1}
    n_actions = 1

    def __init__(self, spec: EnvSpec) -> None:
        _params(self, spec)
        if self.length < 2:
            raise ConfigError(f"chain length must be >= 2, got {self.length}")
        if self.length > self.MAX_LENGTH:
            raise ConfigError(f"length must be <= {self.MAX_LENGTH}, got {self.length}")
        _objective_count(self.n_objectives)
        self.n_states = self.length
        self._state = 0

    def reset(self, rng: np.random.Generator) -> int:
        self._state = 0
        return 0

    def step(self, action: int, rng: np.random.Generator) -> StepResult:
        if action != 0:
            raise InvalidAction(f"action {action} outside the single-action set")
        nxt = self._state + 1
        done = nxt >= self.length
        rewards = tuple(1.0 if done else 0.0 for _ in range(self.n_objectives))
        self._state = min(nxt, self.length - 1)
        return StepResult(self._state, rewards, done, success=done,
                          progress=nxt / self.length)


class CrossingGrid:
    """Cross a road of wrap-around traffic, bottom row to top row.

    The grid is ``width`` columns by ``height`` rows, each side from 3
    up to ``MAX_SIDE`` (256) cells.  The agent starts in the middle of
    row 0 and must reach row height-1, the only row without traffic;
    every other row carries a convoy of evenly spread cars that advance
    one column per step, with direction and phase drawn per row at
    reset.  There is no safe place to park: standing still means a car
    eventually runs the agent over.  Actions: stay, advance one row,
    advance two rows, shift left, shift right.  The two-row advance
    also checks the cell it passes through.

    Rewards, one objective each, in priority order:

    * safety: ``crash_penalty`` on collision or on leaving the grid.
    * risk: ``risk_penalty`` whenever a car ends the step within one
      cell (Chebyshev) of the agent.
    * lane: ``lane_penalty`` when the agent is outside the central
      lane band of half-width ``lane_halfwidth``.
    * progress: ``progress_per_row`` per row gained, plus
      ``goal_bonus`` on reaching the goal row.
    * comfort: ``comfort_penalty`` whenever the speed class (0 for
      stay, 1 for single-row or lateral moves, 2 for the double
      advance) differs from the previous step's.

    The observed state packs the agent cell with four bits that flag
    which single-step destination (left neighbour, cell ahead, right
    neighbour, own cell) will be occupied after the next car advance;
    off-grid cells count as blocked.  The far cell of the two-row
    advance is not observed, so the fast move is always a gamble.

    The traffic is two ints over the whole grid, bit ``row * width +
    col`` set when a car stands in that cell: one holds the cars of the
    right-moving rows, the other those of the left-moving rows.  A car
    advance shifts each int by one bit and carries the cars of the edge
    column it leaves across their row to the other edge, so every car
    stays in its own row.  For byte-identical reruns ``reset`` draws,
    per traffic row from the bottom up, one ``rng.random()`` for the
    direction (right when below 0.5) and then one ``rng.integers(width)``
    for the phase; car ``i`` of the row starts in column ``(phase +
    width * i // cars_per_row) % width``.
    """

    STAY = 0
    SLOW = 1
    FAST = 2
    LEFT = 3
    RIGHT = 4

    # Cells each action passes through: one column offset, then the row
    # offsets in the order they are crossed.
    _PATHS = {STAY: (0, (0,)), SLOW: (0, (1,)), FAST: (0, (1, 2)),
              LEFT: (-1, (0,)), RIGHT: (1, (0,))}
    _SPEED = {STAY: 0, SLOW: 1, FAST: 2, LEFT: 1, RIGHT: 1}
    _DENSITY = {"low": 2, "mid": 3, "high": 4}
    MAX_SIDE = 256
    PARAMS = {"width": 7, "height": 5, "density": "mid", "lane_halfwidth": 0,
              "crash_penalty": -1.0, "risk_penalty": -0.2, "lane_penalty": -0.1,
              "progress_per_row": 0.1, "goal_bonus": 0.3, "comfort_penalty": -0.05}
    n_actions = 5
    n_objectives = 5

    def __init__(self, spec: EnvSpec) -> None:
        _params(self, spec)
        width, height = self.width, self.height
        if width < 3 or height < 3:
            raise ConfigError(f"grid must be at least 3x3, got {width}x{height}")
        for name in ("width", "height"):
            if getattr(self, name) > self.MAX_SIDE:
                raise ConfigError(f"{name} must be <= {self.MAX_SIDE}, got {getattr(self, name)}")
        if self.density not in self._DENSITY:
            raise ConfigError(f"density must be one of {sorted(self._DENSITY)}, "
                              f"got {self.density!r}")
        self.cars_per_row = self._DENSITY[self.density]
        if self.cars_per_row >= width:
            raise ConfigError("density leaves no free cell per row")
        if self.lane_halfwidth < 0:
            raise ConfigError(f"lane_halfwidth must be >= 0, got {self.lane_halfwidth}")
        self.n_states = width * height * 16
        self._full = (1 << width) - 1
        # The row-0 convoy at phase 0; reset rotates it by the drawn phase.
        self._convoy = sum(1 << (width * i // self.cars_per_row)
                           for i in range(self.cars_per_row))
        # Column 0 and column width-1 of every row, where an advance wraps.
        self._first = sum(1 << row * width for row in range(height))
        self._last = self._first << width - 1
        # Bits 0-2 of three consecutive rows: a 3x3 window.
        self._window = 0b111 * (1 | 1 << width | 1 << 2 * width)
        # Right- and left-moving cars now, and after the next advance.
        self._cars = self._coming = (0, 0)
        self._row = 0
        self._col = width // 2
        self._speed = 0

    def reset(self, rng: np.random.Generator) -> int:
        # Evenly spread convoys, random phase and direction per row: a
        # small pattern space keeps every car constellation revisited.
        width, convoy = self.width, self._convoy
        cars = [0, 0]
        for row in range(self.height - 1):
            leftward = rng.random() >= 0.5
            phase = int(rng.integers(width))
            lane = (convoy << phase | convoy >> width - phase) & self._full
            cars[leftward] |= lane << row * width
        self._cars = tuple(cars)
        self._row = 0
        self._col = width // 2
        self._speed = 0
        return self._observe()

    def step(self, action: int, rng: np.random.Generator) -> StepResult:
        if action not in self._PATHS:
            raise InvalidAction(f"action {action} outside 0..{self.n_actions - 1}")
        width, top = self.width, self.height - 1
        row, col = self._row, self._col
        dc, rows = self._PATHS[action]
        self._cars = self._coming
        cars = self._coming[0] | self._coming[1]

        end_row, end_col = min(row + rows[-1], top), col + dc
        offroad = not 0 <= end_col < width
        collision = False
        risk = 0.0
        if not offroad:
            for dr in rows:
                cell_row = min(row + dr, top)
                if cars >> cell_row * width + end_col & 1:
                    collision = True
                    end_row = cell_row
                    break
            # The 3x3 block around the end cell, less a column past an
            # edge, which would read the neighbouring row.
            window = self._window
            if end_col == 0:
                window &= ~self._first
            elif end_col == width - 1:
                window &= ~(self._first << 2)
            if cars << width + 1 >> end_row * width + end_col & window:
                risk = self.risk_penalty
        at_goal = not collision and not offroad and end_row == top
        safety = self.crash_penalty if (collision or offroad) else 0.0
        lane = self.lane_penalty if abs(end_col - width // 2) > self.lane_halfwidth else 0.0
        progress = self.progress_per_row * (end_row - row) + (self.goal_bonus if at_goal else 0.0)
        comfort = self.comfort_penalty if self._SPEED[action] != self._speed else 0.0

        self._row, self._col = end_row, min(max(end_col, 0), width - 1)
        self._speed = self._SPEED[action]
        return StepResult(self._observe(), (safety, risk, lane, progress, comfort),
                          collision or offroad or at_goal, collision, offroad, at_goal,
                          end_row / top)

    def _observe(self) -> int:
        """The state id, after storing the next car advance it observes."""
        right, left = self._cars
        width, row, col = self.width, self._row, self._col
        wrap_right, wrap_left = right & self._last, left & self._first
        self._coming = ((right ^ wrap_right) << 1 | wrap_right >> width - 1,
                        (left ^ wrap_left) >> 1 | wrap_left << width - 1)
        cell = row * width + col
        # Bits 0-2 of `near` are columns col-1, col and col+1 of the
        # agent's row after the advance, bit width + 1 the cell ahead.
        # Threat slots 0-3: left neighbour (blocked when off-grid), cell
        # ahead, right neighbour (likewise) and own cell; the two-row
        # advance's far cell is deliberately unobserved.
        near = (self._coming[0] | self._coming[1]) << 1 >> cell
        threat = ((near | (col == 0) | (col == width - 1) << 2) & 0b101
                  | near >> width & 0b10 | near << 2 & 0b1000)
        return cell * 16 + threat

    def render(self) -> str:
        """Plain-text picture, goal row on top."""
        right, left = self._cars
        width, agent = self.width, self._row * self.width + self._col
        glyphs = ["E" if bit == agent else ">" if right >> bit & 1 else "<" if left >> bit & 1
                  else "=" if bit >= (self.height - 1) * width else "."
                  for bit in range(self.height * width)]
        return "\n".join(" ".join(glyphs[row * width:(row + 1) * width])
                         for row in reversed(range(self.height)))


_ENV_TYPES = {"conflict-bandit": ConflictBandit, "chain-mdp": ChainMDP,
              "crossing-grid": CrossingGrid}


def make_env(spec: EnvSpec):
    """Construct the environment named by ``spec``, ignoring case, ``-`` and ``_``."""
    wanted = spec.name.lower().replace("-", "").replace("_", "")
    for name, env_type in _ENV_TYPES.items():
        if name.replace("-", "") == wanted:
            return env_type(spec)
    raise ConfigError(f"unknown env {spec.name!r}, expected one of {sorted(_ENV_TYPES)}")
