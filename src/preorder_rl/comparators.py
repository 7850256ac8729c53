"""Distribution-level comparison of actions on a single objective.

A :class:`QuantileMatrix` holds one column of quantile estimates per
action.  The main scorer normalizes the matrix, forms the per-quantile
ideal profile (the pointwise best across actions), and scores each
action by the negative 1-Wasserstein distance of its column to that
ideal.  Pairwise score gaps thresholded by a tolerance give dominance
verdicts.  Lower-tail and mean-variance scorers are provided as drop-in
alternatives for ablations.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ShapeMismatch

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
    """Quantile estimates for one objective: ``values[k, a]`` is the
    k-th quantile of action a's return.  Fractions are shared across
    actions, strictly increasing, and lie in (0, 1)."""

    values: np.ndarray
    fractions: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        fractions = np.asarray(self.fractions, dtype=float)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ShapeMismatch(f"expected a (quantiles, actions) matrix, got shape {values.shape}")
        if fractions.shape != (values.shape[0],):
            raise ShapeMismatch(
                f"expected {values.shape[0]} fractions, got shape {fractions.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("quantile values must be finite")
        if not (np.all(fractions > 0.0) and np.all(fractions < 1.0)
                and np.all(np.diff(fractions) > 0.0)):
            raise ValueError("fractions must be strictly increasing within (0, 1)")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "fractions", fractions)

    @classmethod
    def from_values(cls, values) -> "QuantileMatrix":
        """Wrap raw values, assigning midpoint fractions."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ShapeMismatch(f"expected a (quantiles, actions) matrix, got shape {values.shape}")
        return cls(values, midpoint_fractions(values.shape[0]))

    @property
    def n_actions(self) -> int:
        return self.values.shape[1]

    @property
    def n_quantiles(self) -> int:
        return self.values.shape[0]


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
        if self.kind not in COMPARATOR_KINDS:
            raise ConfigError(f"unknown comparator kind {self.kind!r}, expected one of {COMPARATOR_KINDS}")
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ConfigError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not (0.0 < self.cvar_alpha <= 1.0):
            raise ConfigError(f"cvar_alpha must lie in (0, 1], got {self.cvar_alpha}")
        if not (np.isfinite(self.mv_lambda) and self.mv_lambda >= 0.0):
            raise ConfigError(f"mv_lambda must be finite and >= 0, got {self.mv_lambda}")


@dataclass(frozen=True)
class PairwiseDecision:
    """Boolean verdict matrices: ``dom[a, b]`` says a dominates b and
    ``dom_by[a, b]`` says a is dominated by b.  Entries outside the
    evaluation mask are False."""

    dom: np.ndarray
    dom_by: np.ndarray


def _zscore(values: np.ndarray) -> np.ndarray:
    std = float(values.std())
    if std < ZERO_VARIANCE_STD:
        return np.zeros_like(values)
    return (values - values.mean()) / std


def _w1_to_ideal(values: np.ndarray, ideal: np.ndarray | None = None) -> np.ndarray:
    if ideal is None:
        ideal = values.max(axis=1)
    return np.abs(values - np.asarray(ideal, dtype=float)[:, None]).mean(axis=0)


def zscore_normalize(matrix: QuantileMatrix) -> QuantileMatrix:
    """Standardize all entries jointly by their mean and population std.

    A matrix whose spread is below ``ZERO_VARIANCE_STD`` maps to all
    zeros, which downstream scorers treat as total indifference.
    """
    return QuantileMatrix(_zscore(matrix.values), matrix.fractions)


def ideal_profile(matrix: QuantileMatrix) -> np.ndarray:
    """Per-quantile maximum over actions: the profile of a hypothetical
    action at least as good as every real one at every quantile."""
    return matrix.values.max(axis=1)


def w1_to_ideal(matrix: QuantileMatrix, ideal: np.ndarray | None = None) -> np.ndarray:
    """1-Wasserstein distance of every action's column to the ideal
    profile, i.e. the mean absolute per-quantile gap."""
    return _w1_to_ideal(matrix.values, ideal)


def qd(matrix: QuantileMatrix) -> np.ndarray:
    """Antisymmetric matrix of pairwise score gaps on an already
    normalized matrix: entry (a, b) is score(a) - score(b), where the
    score is the negative W1 distance to the ideal profile."""
    scores = -_w1_to_ideal(matrix.values)
    return scores[:, None] - scores[None, :]


def action_scores(matrix: QuantileMatrix, config: ComparatorConfig) -> np.ndarray:
    """Normalize the matrix and score every action under ``config``."""
    return _scores(matrix.values, config)


def _scores(values: np.ndarray, config: ComparatorConfig) -> np.ndarray:
    """Score every action of a raw (quantiles, actions) array on its z-scored copy."""
    normalized = _zscore(values)
    if config.kind == QUANTILE_DOMINANCE:
        return -_w1_to_ideal(normalized)
    if config.kind == LOWER_TAIL:
        tail = int(np.ceil(config.cvar_alpha * normalized.shape[0]))
        return np.sort(normalized, axis=0)[:tail].mean(axis=0)
    # mean-variance: penalize spread with the population variance
    return normalized.mean(axis=0) - config.mv_lambda * normalized.var(axis=0)


def classify_pairs(matrix: QuantileMatrix, config: ComparatorConfig,
                   mask: np.ndarray | None = None) -> PairwiseDecision:
    """Threshold pairwise score gaps into dominance verdicts.

    Only pairs enabled by the symmetric boolean ``mask`` are evaluated
    (all pairs when it is None).  A pair whose absolute gap is within
    ``config.epsilon`` yields no verdict in either direction.
    """
    scores = action_scores(matrix, config)
    gap = scores[:, None] - scores[None, :]
    dom = gap > config.epsilon
    dom_by = gap < -config.epsilon
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != gap.shape:
            raise ShapeMismatch(f"mask shape {mask.shape} does not match {gap.shape}")
        dom &= mask
        dom_by &= mask
    np.fill_diagonal(dom, False)
    np.fill_diagonal(dom_by, False)
    return PairwiseDecision(dom, dom_by)


def save_quantile_csv(matrix: QuantileMatrix, path) -> None:
    """Write ``tau,a0,a1,...`` rows, one per quantile fraction."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["tau"] + [f"a{a}" for a in range(matrix.n_actions)])
        for k in range(matrix.n_quantiles):
            writer.writerow([repr(float(matrix.fractions[k]))]
                            + [repr(float(v)) for v in matrix.values[k]])


def load_quantile_csv(path) -> QuantileMatrix:
    """Read a matrix written by :func:`save_quantile_csv`."""
    path = Path(path)
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or not rows[0] or rows[0][0] != "tau":
        raise ShapeMismatch(f"{path}: expected a header starting with 'tau'")
    width = len(rows[0])
    body = rows[1:]
    if not body:
        raise ShapeMismatch(f"{path}: no quantile rows")
    if any(len(row) != width for row in body):
        raise ShapeMismatch(f"{path}: ragged rows")
    data = np.array([[float(cell) for cell in row] for row in body])
    return QuantileMatrix(data[:, 1:], data[:, 0])
