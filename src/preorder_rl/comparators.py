"""Distribution-level comparison of actions on a single objective.

A :class:`QuantileMatrix` holds one column of quantile estimates per
action; a :class:`HeadStack` presents the heads of one (heads, actions,
quantiles) block as a sequence of such matrices.  Estimates sit on the
midpoint grid (2k - 1) / 2K, which the quantile count K alone fixes: the
scorers weight each quantile 1/K, and the alpha lower tail is the
ceil(alpha * K) lowest quantiles.  The main scorer normalizes the
matrix, forms the per-quantile ideal profile (the pointwise best across
actions), and scores each action by the negative 1-Wasserstein distance
of its column to that ideal.  Pairwise score gaps thresholded by a
tolerance give dominance verdicts.  Lower-tail and mean-variance scorers
are drop-in alternatives for ablations.  :func:`score_heads` is the one
scorer: it scores a stack of heads in one vectorized pass, and the
per-matrix entry points are its one-head case.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeMismatch, _real, _string

ZERO_VARIANCE_STD = 1e-12

QUANTILE_DOMINANCE = "qd"
LOWER_TAIL = "cvar"
MEAN_VARIANCE = "mv"
COMPARATOR_KINDS = (QUANTILE_DOMINANCE, LOWER_TAIL, MEAN_VARIANCE)


def midpoint_fractions(quantile_count: int) -> np.ndarray:
    """Midpoint fractions (2k - 1) / 2K for k = 1..K."""
    k = int(quantile_count)
    if k < 1:
        raise ConfigError(f"need at least one quantile, got {k}")
    return (2.0 * np.arange(1, k + 1) - 1.0) / (2.0 * k)


@dataclass(frozen=True)
class QuantileMatrix:
    """Quantile estimates for one objective: ``values[k, a]`` is action
    a's quantile at ``fractions[k]``, the k-th midpoint fraction of the
    matrix's K rows, which each read derives from K."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ShapeMismatch(f"expected a (quantiles, actions) matrix, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("quantile values must be finite")
        object.__setattr__(self, "values", values)

    @classmethod
    def _view(cls, values: np.ndarray) -> "QuantileMatrix":
        """Wrap an array the caller already keeps valid, skipping the checks."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "values", values)
        return matrix

    @property
    def fractions(self) -> np.ndarray:
        return midpoint_fractions(self.n_quantiles)

    @property
    def n_actions(self) -> int:
        return self.values.shape[1]

    @property
    def n_quantiles(self) -> int:
        return self.values.shape[0]


class HeadStack(Sequence):
    """Read-only sequence of the heads of one (heads, actions, quantiles)
    block.  Each item is an unvalidated :class:`QuantileMatrix` view of
    ``values[h].T``, built when asked;
    :func:`~preorder_rl.selection.select` scores the block whole."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray) -> None:
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index) -> QuantileMatrix:
        # operator.index rejects slices and arrays, which would not index one head.
        return QuantileMatrix._view(self.values[operator.index(index)].T)

    def __iter__(self):
        return (QuantileMatrix._view(head.T) for head in self.values)


@dataclass(frozen=True)
class ComparatorConfig:
    """How to score actions and threshold pairwise gaps.

    ``epsilon`` is the indifference tolerance: a dominates a' only when
    score(a) - score(a') exceeds it.  ``cvar_alpha`` sets the lower-tail
    mass for the "cvar" kind and ``mv_lambda`` the variance penalty for
    the "mv" kind; each is ignored by the other kinds.
    """

    kind: str = QUANTILE_DOMINANCE
    epsilon: float = 0.0
    cvar_alpha: float = 0.25
    mv_lambda: float = 1.0

    def __post_init__(self) -> None:
        if _string(self.kind, "kind") not in COMPARATOR_KINDS:
            raise ConfigError(f"kind must be one of {COMPARATOR_KINDS}, got {self.kind!r}")
        if not _real(self.epsilon, "epsilon") >= 0.0:
            raise ConfigError(f"epsilon must be >= 0, got {self.epsilon}")
        if not 0.0 < _real(self.cvar_alpha, "cvar_alpha") <= 1.0:
            raise ConfigError(f"cvar_alpha must lie in (0, 1], got {self.cvar_alpha}")
        if not _real(self.mv_lambda, "mv_lambda") >= 0.0:
            raise ConfigError(f"mv_lambda must be >= 0, got {self.mv_lambda}")


@dataclass(frozen=True)
class PairwiseDecision:
    """Boolean verdict matrices: ``dom[a, b]`` says a dominates b and
    ``dom_by[a, b]`` says a is dominated by b."""

    dom: np.ndarray
    dom_by: np.ndarray


def _last_axis_mean(x: np.ndarray) -> np.ndarray:
    # ndarray.mean is this same sum and division, behind a Python-level
    # wrapper that costs more than the arithmetic on these small arrays.
    return x.sum(axis=-1) / x.shape[-1]


def _zscore(values: np.ndarray) -> np.ndarray:
    """Standardize each head (leading axis) over all of its own entries,
    with the same sums ``ndarray.mean`` and ``ndarray.std`` perform.
    Raises ValueError when a head's spread overflows to a non-finite std."""
    axes = tuple(range(1, values.ndim))
    count = values[0].size
    # An overflow here is reported by the check below, not as a warning.
    with np.errstate(over="ignore"):
        dev = values - values.sum(axis=axes, keepdims=True) / count
        std = np.sqrt((dev * dev).sum(axis=axes, keepdims=True) / count)
    any_flat = False
    for head, spread in enumerate(std.ravel().tolist()):
        if not spread < math.inf:
            raise ValueError(f"quantile spread of head {head} is too large to standardize")
        any_flat = any_flat or spread < ZERO_VARIANCE_STD
    if not any_flat:
        return dev / std
    flat = std < ZERO_VARIANCE_STD
    return np.where(flat, 0.0, dev / np.where(flat, 1.0, std))


def _w1_to_ideal(values: np.ndarray, ideal: np.ndarray | None = None) -> np.ndarray:
    """W1 distance of each (..., action, quantile) row to the ideal profile."""
    if ideal is None:
        # Exact without abs: no entry exceeds its ideal, and x - x is +0.0.
        return _last_axis_mean(values.max(axis=-2, keepdims=True) - values)
    return _last_axis_mean(np.abs(values - ideal))


def zscore_normalize(matrix: QuantileMatrix) -> QuantileMatrix:
    """Standardize all entries jointly by their mean and population std.

    A matrix whose spread is below ``ZERO_VARIANCE_STD`` maps to all
    zeros, which downstream scorers treat as total indifference.
    """
    return QuantileMatrix(_zscore(matrix.values[None])[0])


def ideal_profile(matrix: QuantileMatrix) -> np.ndarray:
    """Per-quantile maximum over actions: the profile of a hypothetical
    action at least as good as every real one at every quantile."""
    return matrix.values.max(axis=1)


def w1_to_ideal(matrix: QuantileMatrix, ideal: np.ndarray | None = None) -> np.ndarray:
    """1-Wasserstein distance of every action's column to the ideal
    profile, i.e. the mean absolute per-quantile gap."""
    return _w1_to_ideal(matrix.values.T, None if ideal is None else np.asarray(ideal, dtype=float))


def qd(matrix: QuantileMatrix) -> np.ndarray:
    """Antisymmetric matrix of pairwise score gaps on an already
    normalized matrix: entry (a, b) is score(a) - score(b), where the
    score is the negative W1 distance to the ideal profile."""
    scores = -_w1_to_ideal(matrix.values.T)
    return scores[:, None] - scores[None, :]


def score_heads(values: np.ndarray, config: ComparatorConfig) -> np.ndarray:
    """Score every action of every head of raw (heads, actions, quantiles)
    values under one ``config``; returns (heads, actions).

    Each head is z-scored on its own, then scored along the quantile axis.
    Heads are reduced in their memory order, so a (quantiles, actions)
    matrix passed as ``matrix.values.T[None]`` scores exactly as it does
    stacked with others of the same layout.
    """
    normalized = _zscore(values)
    if config.kind == QUANTILE_DOMINANCE:
        return -_w1_to_ideal(normalized)
    if config.kind == LOWER_TAIL:
        tail = math.ceil(config.cvar_alpha * normalized.shape[-1])
        return _last_axis_mean(np.sort(normalized, axis=-1)[..., :tail])
    # mean-variance: penalize spread with the population variance
    mean = normalized.sum(axis=-1, keepdims=True) / normalized.shape[-1]
    dev = normalized - mean
    return mean[..., 0] - config.mv_lambda * _last_axis_mean(dev * dev)


def action_scores(matrix: QuantileMatrix, config: ComparatorConfig) -> np.ndarray:
    """Normalize the matrix and score every action under ``config``."""
    return score_heads(matrix.values.T[None], config)[0]


def classify_pairs(matrix: QuantileMatrix, config: ComparatorConfig) -> PairwiseDecision:
    """Threshold pairwise score gaps into dominance verdicts.

    A pair whose absolute gap is within ``config.epsilon`` yields no
    verdict in either direction, so the diagonal (gap 0) stays clear.
    """
    return PairwiseDecision(*_verdicts(action_scores(matrix, config), config.epsilon))


def _verdicts(scores: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """(..., actions) scores to (..., actions, actions) verdicts: ``above[..., a, b]``
    says a beats b by more than ``epsilon``, ``below[..., a, b]`` that b beats a."""
    gap = scores[..., :, None] - scores[..., None, :]
    return gap > epsilon, gap < -epsilon
