"""Robust aggregate statistics for small batches of run scores."""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .errors import ConfigError, _integer, _real

MIN_RESAMPLES = 100
# The most bytes bootstrap_ci holds at its peak, 16 per resampled score.
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
    it contribute zero.  A ``target`` that is not one finite real number
    raises ``ConfigError``."""
    short = _real(target, "target") - _scores(values)
    return _per_row(np.maximum(0.0, short, out=short).mean(axis=-1))


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
    None), so intervals reproduce exactly for a fixed seed.  The peak
    holds two resample matrices, 16 bytes per resampled score; one over
    ``MAX_RESAMPLE_BYTES`` raises ``ConfigError`` before any draw, as
    does an ``n_resamples`` that is not one integer or a ``confidence``
    that is not one finite real number.

    The ends are numpy's linear percentiles of the resampled statistic,
    computed with one partition by :func:`_percentiles`, which keeps
    ``numpy.ma`` (imported by ``np.percentile``) out of the process.
    """
    n_resamples = _integer(n_resamples, "n_resamples")
    confidence = _real(confidence, "confidence")
    if n_resamples < MIN_RESAMPLES:
        raise ValueError(f"need at least {MIN_RESAMPLES} resamples, got {n_resamples}")
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    arr = _scores(values).ravel()
    size = 16 * n_resamples * arr.size
    if size > MAX_RESAMPLE_BYTES:
        raise ConfigError(f"n_resamples: {n_resamples} resamples of {arr.size} scores need "
                          f"{size} bytes at peak, over the {MAX_RESAMPLE_BYTES}-byte budget")
    if rng is None:
        rng = np.random.default_rng()
    resampled = arr[rng.integers(0, arr.size, size=(n_resamples, arr.size))]
    samples = np.asarray(statistic(resampled), dtype=float)
    if samples.shape != (n_resamples,):
        raise ValueError(f"statistic must return one value per resample, "
                         f"expected shape ({n_resamples},), got {samples.shape}")
    tail = 100.0 * (1.0 - confidence) / 2.0
    lo, hi = _percentiles(samples, (tail, 100.0 - tail))
    return float(lo), float(hi)


def _percentiles(samples: np.ndarray, percents) -> list[np.float64]:
    """``np.percentile(samples, percents)`` bit for bit, for a 1-D float
    array and percents in [0, 100].  One partition at the order
    statistics numpy selects leaves numpy's arrangement, so ``-0.0`` and
    ``0.0`` tie as they do there (a full sort does not); each end is
    numpy's ``_lerp`` of its two neighbours, and a NaN sample gives NaN."""
    n = samples.size
    virtuals = [(n - 1) * (percent / 100) for percent in percents]
    # At or past the last index numpy takes the last value for both
    # neighbours and measures the weight from index -1.
    neighbours = [(math.floor(v), math.floor(v) + 1) if v < n - 1 else (-1, -1)
                  for v in virtuals]
    part = np.partition(samples, sorted({0, n - 1, *(i % n for pair in neighbours for i in pair)}))
    if np.isnan(part[-1]):
        return [part[-1]] * len(virtuals)
    ends = []
    for v, (below, above) in zip(virtuals, neighbours):
        weight = v - below
        low, high = part[below], part[above]
        diff = high - low
        ends.append(high - diff * (1 - weight) if weight >= 0.5 else low + diff * weight)
    return ends
