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

import numpy as np

from .errors import ConfigError, InvalidAction, _integer, _real, _string


@dataclass(frozen=True)
class EnvSpec:
    """Name plus construction parameters for :func:`make_env`."""

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


@dataclass(frozen=True)
class StepResult:
    """One transition: successor state id, reward vector, and episode flags.

    ``progress`` is the fraction of the route completed so far, in [0, 1].
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
    """

    PARAMS = {"length": 4, "n_objectives": 1}
    n_actions = 1

    def __init__(self, spec: EnvSpec) -> None:
        _params(self, spec)
        if self.length < 2:
            raise ConfigError(f"chain length must be >= 2, got {self.length}")
        if self.n_objectives < 1:
            raise ConfigError(f"n_objectives must be >= 1, got {self.n_objectives}")
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

    The grid is ``width`` columns by ``height`` rows.  The agent starts
    in the middle of row 0 and must reach row height-1, the only row
    without traffic; every other row carries a convoy of evenly spread
    cars that advance one column per step, with direction and phase
    drawn per row at reset.  There is no safe place to park: standing
    still means a car eventually runs the agent over.  Actions: stay,
    advance one row, advance two rows, shift left, shift right.  The
    two-row advance also checks the cell it passes through.

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

    Each traffic row is one int bitmask, bit ``c`` set when a car stands
    in column ``c``, and a car advance rotates it by one column.  For
    byte-identical reruns ``reset`` draws, per traffic row from the
    bottom up, one ``rng.random()`` for the direction (right when below
    0.5) and then one ``rng.integers(width)`` for the phase; car ``i``
    of the row starts in column ``(phase + width * i // cars_per_row) %
    width``.
    """

    STAY = 0
    SLOW = 1
    FAST = 2
    LEFT = 3
    RIGHT = 4

    # Cells each action passes through, as (row, column) offsets.
    _PATHS = {STAY: ((0, 0),), SLOW: ((1, 0),), FAST: ((1, 0), (2, 0)),
              LEFT: ((0, -1),), RIGHT: ((0, 1),)}
    _SPEED = {STAY: 0, SLOW: 1, FAST: 2, LEFT: 1, RIGHT: 1}
    _DENSITY = {"low": 2, "mid": 3, "high": 4}
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
        # Car bitmask and left-rotation per traffic row, bottom up: a
        # rotation of 1 moves the cars right, width - 1 moves them left.
        self._lanes: list[int] = []
        self._shifts: list[int] = []
        self._row = 0
        self._col = width // 2
        self._speed = 0

    def reset(self, rng: np.random.Generator) -> int:
        # Evenly spread convoys, random phase and direction per row: a
        # small pattern space keeps every car constellation revisited.
        self._lanes, self._shifts = [], []
        for _ in range(self.height - 1):
            self._shifts.append(1 if rng.random() < 0.5 else self.width - 1)
            self._lanes.append(self._rotate(self._convoy, int(rng.integers(self.width))))
        self._row = 0
        self._col = self.width // 2
        self._speed = 0
        return self._state_id()

    def step(self, action: int, rng: np.random.Generator) -> StepResult:
        if action not in self._PATHS:
            raise InvalidAction(f"action {action} outside 0..{self.n_actions - 1}")
        row, col = self._row, self._col
        path = [(min(row + dr, self.height - 1), col + dc) for dr, dc in self._PATHS[action]]

        offroad = path[-1][1] < 0 or path[-1][1] >= self.width
        self._advance_cars()
        collision = False
        end_row, end_col = path[-1]
        if not offroad:
            for r, c in path:
                if self._occupied(r, c):
                    collision = True
                    end_row, end_col = r, c
                    break

        at_goal = not collision and not offroad and end_row == self.height - 1
        safety = self.crash_penalty if (collision or offroad) else 0.0
        risk = self.risk_penalty if (not offroad and self._car_adjacent(end_row, end_col)) else 0.0
        lane = self.lane_penalty if abs(end_col - self.width // 2) > self.lane_halfwidth else 0.0
        progress = self.progress_per_row * (end_row - row) + (self.goal_bonus if at_goal else 0.0)
        comfort = self.comfort_penalty if self._SPEED[action] != self._speed else 0.0

        self._row, self._col = end_row, min(max(end_col, 0), self.width - 1)
        self._speed = self._SPEED[action]
        terminal = collision or offroad or at_goal
        return StepResult(
            self._state_id(),
            (safety, risk, lane, progress, comfort),
            terminal,
            collision=collision,
            offroad=offroad,
            success=at_goal,
            progress=end_row / (self.height - 1),
        )

    def _rotate(self, mask: int, shift: int) -> int:
        return (mask << shift | mask >> (self.width - shift)) & self._full

    def _advance_cars(self) -> None:
        self._lanes = [self._rotate(mask, shift)
                       for mask, shift in zip(self._lanes, self._shifts)]

    def _lane(self, row: int) -> int:
        # A list index of -1 would wrap to the top traffic row.
        return self._lanes[row] if 0 <= row < len(self._lanes) else 0

    def _occupied(self, row: int, col: int) -> bool:
        # Callers pass on-grid cells only: a negative shift raises.
        return bool(self._lane(row) >> col & 1)

    def _car_adjacent(self, row: int, col: int) -> bool:
        # Columns col-1, col and col+1 land on bits 0-2; no wrap-around.
        cars = self._lane(row - 1) | self._lane(row) | self._lane(row + 1)
        return bool(cars << 1 >> col & 0b111)

    def _blocked_next(self, row: int, col: int) -> bool:
        if col < 0 or col >= self.width:
            return True
        if not 0 <= row < len(self._lanes):
            return False
        # Cars move deterministically: the cell is blocked next step
        # when the car one column upstream sits there now.
        source = (col - self._shifts[row]) % self.width
        return bool(self._lanes[row] >> source & 1)

    def _threat_bits(self, row: int, col: int) -> int:
        # One bit per single-step destination; the two-row advance's far
        # cell is deliberately unobserved.
        cells = ((row, col - 1), (row + 1, col), (row, col + 1), (row, col))
        bits = 0
        for slot, (r, c) in enumerate(cells):
            if self._blocked_next(r, c):
                bits |= 1 << slot
        return bits

    def _state_id(self) -> int:
        return (self._row * self.width + self._col) * 16 + self._threat_bits(self._row, self._col)

    def render(self) -> str:
        """Plain-text picture, goal row on top."""
        rows = []
        for row in reversed(range(self.height)):
            cells = []
            for col in range(self.width):
                if (row, col) == (self._row, self._col):
                    cells.append("E")
                elif self._occupied(row, col):
                    cells.append(">" if self._shifts[row] == 1 else "<")
                elif row == self.height - 1:
                    cells.append("=")
                else:
                    cells.append(".")
            rows.append(" ".join(cells))
        return "\n".join(rows)


_ENV_TYPES = {"conflict-bandit": ConflictBandit, "chain-mdp": ChainMDP,
              "crossing-grid": CrossingGrid}


def make_env(spec: EnvSpec):
    """Construct the environment named by ``spec``, ignoring case, ``-`` and ``_``."""
    wanted = spec.name.lower().replace("-", "").replace("_", "")
    for name, env_type in _ENV_TYPES.items():
        if name.replace("-", "") == wanted:
            return env_type(spec)
    raise ConfigError(f"unknown env {spec.name!r}, expected one of {sorted(_ENV_TYPES)}")
