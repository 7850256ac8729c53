"""Robust aggregate statistics for small batches of run scores."""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .errors import ConfigError

MIN_RESAMPLES = 100
# The largest (n_resamples, n) int64 index matrix bootstrap_ci draws.
MAX_RESAMPLE_BYTES = 1 << 30


def _scores(values) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.size == 0:
        raise ValueError("need at least one score")
    if not np.all(np.isfinite(arr)):
        raise ValueError("scores must be finite")
    return arr


def _per_row(reduced: np.ndarray) -> float | np.ndarray:
    """A Python float for a reduced 1-D batch, the array otherwise."""
    return float(reduced) if reduced.ndim == 0 else reduced


def iqm(values) -> float | np.ndarray:
    """Interquartile mean along the last axis: drop the lowest and highest
    quarter (floor(n / 4) values each) and average the rest."""
    arr = np.sort(_scores(values), axis=-1)
    n = arr.shape[-1]
    k = n // 4
    return _per_row(arr[..., k: n - k].mean(axis=-1))


def optimality_gap(values, target: float = 1.0) -> float | np.ndarray:
    """Mean shortfall below ``target`` along the last axis; scores above
    it contribute zero."""
    arr = _scores(values)
    return _per_row(np.maximum(0.0, target - arr).mean(axis=-1))


def prob_improvement(values_x, values_y) -> float:
    """Probability that a random score from x beats one from y, counting
    ties as one half.  Identical batches therefore give exactly 0.5."""
    x = _scores(values_x).ravel()
    y = _scores(values_y).ravel()
    wins = (x[:, None] > y[None, :]).sum()
    ties = (x[:, None] == y[None, :]).sum()
    return float((wins + 0.5 * ties) / (x.size * y.size))


def bootstrap_ci(statistic: Callable[[np.ndarray], np.ndarray], values,
                 n_resamples: int = 2000, confidence: float = 0.95,
                 rng: np.random.Generator | None = None) -> tuple[float, float]:
    """Percentile bootstrap interval for ``statistic`` over the scores.

    ``statistic`` is called once, on the ``(n_resamples, n)`` matrix of
    resampled scores, and must reduce its last axis: it returns one
    value per row, as :func:`iqm` and :func:`optimality_gap` do.
    Resampling is driven by ``rng`` (a fresh default generator when
    None), so intervals reproduce exactly for a fixed seed.  An index
    matrix over ``MAX_RESAMPLE_BYTES`` raises ``ConfigError`` before any draw.
    """
    if n_resamples < MIN_RESAMPLES:
        raise ValueError(f"need at least {MIN_RESAMPLES} resamples, got {n_resamples}")
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    arr = _scores(values).ravel()
    size = 8 * int(n_resamples) * arr.size
    if size > MAX_RESAMPLE_BYTES:
        raise ConfigError(f"n_resamples: {n_resamples} resamples of {arr.size} scores need "
                          f"{size} index bytes, over the {MAX_RESAMPLE_BYTES}-byte budget")
    if rng is None:
        rng = np.random.default_rng()
    idx = rng.integers(0, arr.size, size=(n_resamples, arr.size))
    samples = np.asarray(statistic(arr[idx]), dtype=float)
    if samples.shape != (n_resamples,):
        raise ValueError(f"statistic must return one value per resample, "
                         f"expected shape ({n_resamples},), got {samples.shape}")
    tail = 100.0 * (1.0 - confidence) / 2.0
    lo, hi = np.percentile(samples, [tail, 100.0 - tail])
    return float(lo), float(hi)
