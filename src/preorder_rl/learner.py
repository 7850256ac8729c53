"""Tabular quantile temporal-difference learning with vector rewards.

One table of quantile estimates is kept per objective (a single table
for the scalarizing baseline).  Updates follow the pinball subgradient:
each cell moves toward the bootstrapped target distribution at a rate
set by its midpoint fraction (2k - 1) / 2K.  Each update picks the
bootstrap actions of all heads with one masked argmax over the
successor state's mean values (:func:`greedy_target_action`).  Three
policy modes share the machinery:

* ``preorder``: filter actions through the priority preorder and play a
  uniform draw from the surviving set; bootstrap targets may be
  restricted to the same survivor sets.
* ``weighted-sum``: scalarize rewards with fixed weights, learn one
  table, play greedily on its mean.
* ``mean-aggregation``: learn all tables, play greedily on the mean
  across objectives, ignoring the priority structure.

``train`` keeps one selection memo per call: a dict from state to the
:class:`~preorder_rl.selection.SelectionState` the filter last produced
there.  ``act`` and ``td_update`` read and fill it; ``td_update`` drops
the entry of the state whose cell it writes, the only state whose
quantiles changed.  ``evaluate`` takes its memo from the caller, so every
evaluation of one frozen tensor filters each state once; it never drops
entries.  Exploration draws happen before the memo is consulted and the
filter draws no random numbers, so the memo changes no result.
``QuantileTensor.matrices`` hands the filter a
:class:`~preorder_rl.comparators.HeadStack`, an unvalidated view of the
state's (heads, actions, quantiles) block that the filter scores whole,
so the finite checks sit where values enter a tensor: ``td_update``
raises on the first cell that leaves the finite range, naming its first
bad head, and ``train`` adds the episode to the message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add
from typing import NamedTuple

import numpy as np

from .comparators import ComparatorConfig, HeadStack, _last_axis_mean, midpoint_fractions
from .errors import ConfigError, EmptySetError, _integer, _real, _string
from .preorder import PreorderGraph, _objective_count
from .selection import SelectionState, global_leaf_survivors, sample_action, select

PREORDER = "preorder"
WEIGHTED_SUM = "weighted-sum"
MEAN_AGGREGATION = "mean-aggregation"
MODES = (PREORDER, WEIGHTED_SUM, MEAN_AGGREGATION)

# The largest quantile tensor (8-byte floats) train and evaluate allocate:
# 4 GiB holds the largest crossing grid at K=20, and a larger quantile_count
# fails by name before any memory is asked for or any file is written.
MAX_TENSOR_BYTES = 1 << 32


@dataclass(frozen=True)
class EpsilonSchedule:
    """Linear exploration decay from ``start`` to ``end`` over
    ``decay_episodes`` episodes, constant afterwards."""

    start: float = 1.0
    end: float = 0.05
    decay_episodes: int = 1

    def __post_init__(self) -> None:
        if not (0.0 <= _real(self.end, "end") <= _real(self.start, "start") <= 1.0):
            raise ConfigError(f"need 0 <= end <= start <= 1, got start={self.start} end={self.end}")
        if _integer(self.decay_episodes, "decay_episodes") < 1:
            raise ConfigError(f"decay_episodes must be >= 1, got {self.decay_episodes}")

    def value(self, episode: int) -> float:
        frac = min(max(episode, 0) / self.decay_episodes, 1.0)
        return self.start + (self.end - self.start) * frac


def _reals(values, name: str, count: int) -> tuple[float, ...]:
    """``values`` as ``count`` finite floats; a string, a bare number or a
    bool entry raises, naming ``name`` or the entry ``name[i]``."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise ConfigError(f"{name} must be a sequence of real numbers, got {values!r}")
    if len(values) != count:
        raise ConfigError(f"{name} must hold {count} values, got {len(values)}")
    return tuple(_real(v, f"{name}[{i}]") for i, v in enumerate(values))


@dataclass
class LearnerConfig:
    """Everything a training run needs besides the environment.

    Each setting takes one form: ``comparator`` is one
    :class:`ComparatorConfig` for every objective, ``gammas`` and
    ``weights`` are sequences of finite reals, one per objective (the
    weighted-sum mode alone needs ``weights``), and ``initial_value`` is
    one finite real number that fills every fresh quantile table; filling
    at the worst attainable return keeps rarely visited actions from
    looking better than well-explored ones.  ``huber_kappa`` of 0 selects
    the plain pinball update.  When ``learning_rate_end`` is set, the step
    size anneals linearly from ``learning_rate`` to it over the training
    episodes, damping the late-stage jitter of the estimates.
    """

    n_objectives: int
    gammas: tuple[float, ...]
    learning_rate: float = 0.1
    learning_rate_end: float | None = None
    epsilon: EpsilonSchedule = field(default_factory=EpsilonSchedule)
    quantile_count: int = 8
    comparator: ComparatorConfig = field(default_factory=ComparatorConfig)
    training_preorder: bool = True
    mode: str = PREORDER
    weights: tuple[float, ...] | None = None
    huber_kappa: float = 0.0
    initial_value: float = 0.0

    def __post_init__(self) -> None:
        if _string(self.mode, "mode") not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        _objective_count(self.n_objectives)
        self.gammas = _reals(self.gammas, "gammas", self.n_objectives)
        if any(not (0.0 <= g < 1.0) for g in self.gammas):
            raise ConfigError(f"gammas must lie in [0, 1), got {self.gammas}")
        self.learning_rate = _real(self.learning_rate, "learning_rate")
        if not self.learning_rate > 0.0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.learning_rate_end is not None and not (
                0.0 < _real(self.learning_rate_end, "learning_rate_end") <= self.learning_rate):
            raise ConfigError(f"learning_rate_end must lie in (0, learning_rate], "
                              f"got {self.learning_rate_end}")
        if not isinstance(self.epsilon, EpsilonSchedule):
            raise ConfigError(f"epsilon must be one EpsilonSchedule, got {self.epsilon!r}")
        if _integer(self.quantile_count, "quantile_count") < 1:
            raise ConfigError(f"quantile_count must be >= 1, got {self.quantile_count}")
        self.huber_kappa = _real(self.huber_kappa, "huber_kappa")
        if self.huber_kappa < 0.0:
            raise ConfigError(f"huber_kappa must be >= 0, got {self.huber_kappa}")
        self.initial_value = _real(self.initial_value, "initial_value")
        if self.weights is not None:
            self.weights = _reals(self.weights, "weights", self.n_objectives)
        elif self.mode == WEIGHTED_SUM:
            raise ConfigError("weights are required by weighted-sum mode")
        if not isinstance(self.comparator, ComparatorConfig):
            raise ConfigError(f"comparator must be one ComparatorConfig, got {self.comparator!r}")
        if not isinstance(self.training_preorder, bool):
            raise ConfigError(f"training_preorder must be a bool, got {self.training_preorder!r}")

    @property
    def n_heads(self) -> int:
        return 1 if self.mode == WEIGHTED_SUM else self.n_objectives


@dataclass
class QuantileTensor:
    """Quantile estimates indexed (head, state, action, quantile); the
    midpoint ``fractions`` are derived once, from the quantile count."""

    values: np.ndarray
    fractions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.fractions = midpoint_fractions(self.values.shape[-1])

    @classmethod
    def zeros(cls, n_heads: int, n_states: int, n_actions: int,
              quantile_count: int) -> "QuantileTensor":
        return cls.filled(n_heads, n_states, n_actions, quantile_count, 0.0)

    @classmethod
    def filled(cls, n_heads: int, n_states: int, n_actions: int,
               quantile_count: int, value: float) -> "QuantileTensor":
        return cls(np.full((n_heads, n_states, n_actions, quantile_count), float(value)))

    @property
    def n_heads(self) -> int:
        return self.values.shape[0]

    @property
    def n_states(self) -> int:
        return self.values.shape[1]

    @property
    def n_actions(self) -> int:
        return self.values.shape[2]

    @property
    def n_quantiles(self) -> int:
        return self.values.shape[3]

    def matrices(self, state: int) -> HeadStack:
        """Unvalidated (quantiles, actions) views of every head at
        ``state``, as one view of its (heads, actions, quantiles) block;
        ``td_update`` keeps the tensor finite instead."""
        return HeadStack(self.values[:, state])

    def copy(self) -> "QuantileTensor":
        return QuantileTensor(self.values.copy())


class VectorTransition(NamedTuple):
    """One (state, action, rewards, next state, terminal) step for ``td_update``."""

    state: int
    action: int
    rewards: tuple[float, ...]
    next_state: int
    terminal: bool


@dataclass(frozen=True)
class EpisodeRecord:
    """Per-episode summary written to the episode log."""

    episode: int
    returns: tuple[float, ...]
    success: bool
    collision: bool
    offroad: bool
    progress: float


def greedy_target_action(tensor: QuantileTensor, state: int,
                         allowed: np.ndarray | None = None) -> np.ndarray:
    """Per head, the lowest-index action maximizing the mean quantile
    value at ``state``, searched over that head's row of the (heads,
    actions) boolean ``allowed`` (all actions when None).

    Raises:
        EmptySetError: a row of ``allowed`` is empty.
    """
    means = _last_axis_mean(tensor.values[:, state])
    if allowed is None:
        return means.argmax(axis=1)
    best = np.where(allowed, means, -np.inf).argmax(axis=1)
    hit = allowed[np.arange(len(best)), best]
    if hit.all():
        return best
    empty = ~allowed.any(axis=1)
    if empty.any():
        raise EmptySetError(f"no allowed actions at state {state}, head {int(empty.argmax())}")
    # A head whose allowed means are all -inf plays its lowest allowed action.
    return np.where(hit, best, allowed.argmax(axis=1))


def _pinball_step(theta: np.ndarray, targets: np.ndarray, fractions: np.ndarray,
                  learning_rate: float, kappa: float) -> None:
    """Move ``theta`` (..., K) in place toward ``targets`` (..., M).

    Leading axes index heads: each row of ``theta`` steps toward the
    matching row of ``targets``, averaging over its own M targets.
    """
    below = targets[..., None, :] < theta[..., :, None]
    if kappa == 0.0:
        grad = fractions[:, None] - below
    else:
        delta = targets[..., None, :] - theta[..., :, None]
        grad = np.abs(fractions[:, None] - below) * np.clip(delta, -kappa, kappa) / kappa
    theta += learning_rate * _last_axis_mean(grad)


def _selection(tensor: QuantileTensor, state: int, config: LearnerConfig,
               graph: PreorderGraph, memo: dict | None) -> SelectionState:
    """The filter's result at ``state``, read from or stored in ``memo``."""
    if memo is None:
        return select(graph, tensor.matrices(state), config.comparator)
    chosen = memo.get(state)
    if chosen is None:
        chosen = memo[state] = select(graph, tensor.matrices(state), config.comparator)
    return chosen


def td_update(tensor: QuantileTensor, transition: VectorTransition,
              config: LearnerConfig, graph: PreorderGraph,
              learning_rate: float | None = None, *, memo: dict | None = None) -> QuantileTensor:
    """One in-place distributional TD step on every head at once.

    One :func:`greedy_target_action` call picks the bootstrap action of
    every head.  In preorder mode with ``training_preorder`` set, each
    head's choice at the successor state is restricted to that
    objective's survivor set (the filter's ``mask`` row); terminal
    transitions collapse the target to the immediate reward.  The
    weighted-sum head learns the weighted reward.  ``learning_rate``
    defaults to ``config.learning_rate``.  The updated state's entry
    leaves ``memo``.

    Raises:
        ValueError: the step left a non-finite estimate in the written
            cell; the error names its state, action and first bad head.
    """
    s, a, s2 = transition.state, transition.action, transition.next_state
    rate = config.learning_rate if learning_rate is None else learning_rate
    rewards = transition.rewards
    if config.mode == WEIGHTED_SUM:
        rewards = (np.dot(config.weights, rewards),)
    targets = np.array(rewards, dtype=float)[:, None]
    if not transition.terminal:
        allowed = None
        if config.mode == PREORDER and config.training_preorder:
            allowed = _selection(tensor, s2, config, graph, memo).mask
        best = greedy_target_action(tensor, s2, allowed)
        gammas = np.array(config.gammas[:len(best)])[:, None]
        targets = targets + gammas * tensor.values[np.arange(len(best)), s2, best]
    cell = tensor.values[:, s, a]
    _pinball_step(cell, targets, tensor.fractions, rate, config.huber_kappa)
    finite = np.isfinite(cell)
    if not finite.all():
        raise ValueError(f"quantile estimates at state {s}, action {a}, head "
                         f"{int(finite.all(axis=1).argmin())} are no longer finite")
    if memo is not None:
        memo.pop(s, None)
    return tensor


def act(tensor: QuantileTensor, state: int, config: LearnerConfig,
        graph: PreorderGraph, rng: np.random.Generator, epsilon: float = 0.0, *,
        memo: dict | None = None) -> int:
    """Pick an action at ``state`` under the configured mode, with
    epsilon-greedy exploration layered on top.  ``memo`` maps states to
    their :class:`SelectionState` and is filled on a miss."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(tensor.n_actions))
    if config.mode == PREORDER:
        chosen = _selection(tensor, state, config, graph, memo)
        return sample_action(global_leaf_survivors(chosen, graph), rng)
    # Scalar modes: the weighted-sum tensor has a single head.
    return int((_last_axis_mean(tensor.values[:, state]).sum(axis=0) / tensor.n_heads).argmax())


def _check_env(env, config: LearnerConfig, graph: PreorderGraph) -> None:
    if env.n_objectives != config.n_objectives or graph.n_objectives != config.n_objectives:
        raise ConfigError(
            f"objective counts disagree: env {env.n_objectives}, "
            f"config {config.n_objectives}, preorder {graph.n_objectives}")
    size = 8 * config.n_heads * env.n_states * env.n_actions * config.quantile_count
    if size > MAX_TENSOR_BYTES:
        raise ConfigError(
            f"quantile_count: {config.quantile_count} quantiles for {config.n_heads} heads x "
            f"{env.n_states} states x {env.n_actions} actions need {size} bytes, over the "
            f"{MAX_TENSOR_BYTES}-byte tensor budget")


def _run_episode(env, tensor, config, graph, rng, episode, epsilon,
                 learning_rate, memo) -> EpisodeRecord:
    """Play one episode; learn at ``learning_rate`` unless it is None."""
    state = env.reset(rng)
    returns = (0.0,) * config.n_objectives
    success = collision = offroad = False
    progress = 0.0
    for _ in range(env.spec.episode_cap):
        action = act(tensor, state, config, graph, rng, epsilon=epsilon, memo=memo)
        result = env.step(action, rng)
        if learning_rate is not None:
            td_update(tensor, VectorTransition(state, action, result.rewards,
                                               result.next_state, result.terminal),
                      config, graph, learning_rate, memo=memo)
        returns = tuple(map(add, returns, result.rewards))
        success |= result.success
        collision |= result.collision
        offroad |= result.offroad
        progress = max(progress, result.progress)
        state = result.next_state
        if result.terminal:
            break
    return EpisodeRecord(episode, tuple(float(r) for r in returns), success, collision,
                         offroad, progress)


def train(env, config: LearnerConfig, graph: PreorderGraph, seed: int,
          episodes: int) -> tuple[QuantileTensor, list[EpisodeRecord]]:
    """Train a fresh tensor on ``env`` for ``episodes`` episodes.

    All randomness (exploration, tie-breaking draws, environment noise)
    comes from a generator seeded with ``seed``, so identical calls
    produce identical tensors and episode logs.  A ``ValueError`` raised
    during an episode, such as a diverging estimate, is re-raised with
    ``episode N:`` in front of its message.
    """
    episodes = _integer(episodes, "episodes")
    _check_env(env, config, graph)
    rng = np.random.default_rng(seed)
    tensor = QuantileTensor.zeros(config.n_heads, env.n_states, env.n_actions,
                                  config.quantile_count)
    tensor.values += config.initial_value
    records = []
    memo: dict[int, SelectionState] = {}
    for episode in range(episodes):
        rate = config.learning_rate
        if config.learning_rate_end is not None:
            frac = episode / max(episodes - 1, 1)
            rate = max(rate + (config.learning_rate_end - rate) * frac, config.learning_rate_end)
        try:
            records.append(_run_episode(env, tensor, config, graph, rng, episode,
                                        config.epsilon.value(episode), rate, memo))
        except ValueError as exc:
            exc.args = (f"episode {episode}: {exc}",)
            raise
    return tensor, records


def evaluate(env, tensor: QuantileTensor, config: LearnerConfig, graph: PreorderGraph,
             seed: int, episodes: int, *, memo: dict | None = None) -> list[EpisodeRecord]:
    """Run the greedy policy without learning and log every episode.

    ``memo`` may be shared by every evaluation of the same unchanged
    tensor; a fresh one is used when it is None.
    """
    episodes = _integer(episodes, "episodes")
    _check_env(env, config, graph)
    rng = np.random.default_rng(seed)
    memo = {} if memo is None else memo
    return [_run_episode(env, tensor, config, graph, rng, episode, 0.0, None, memo)
            for episode in range(episodes)]
