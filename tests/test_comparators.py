"""Unit tests for distribution-level action comparison."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from preorder_rl.artifacts import load_quantile_csv, save_quantile_csv
from preorder_rl.comparators import (
    ComparatorConfig,
    QuantileMatrix,
    action_scores,
    classify_pairs,
    ideal_profile,
    midpoint_fractions,
    qd,
    score_heads,
    w1_to_ideal,
    zscore_normalize,
)
from preorder_rl.errors import ConfigError, ShapeMismatch

from ._reference import ref_scores


def matrix(rows) -> QuantileMatrix:
    return QuantileMatrix.from_values(rows)


def test_midpoint_fractions_are_uniform_midpoints() -> None:
    assert np.allclose(midpoint_fractions(4), [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(midpoint_fractions(1), [0.5])
    with pytest.raises(ConfigError):
        midpoint_fractions(0)


def test_quantile_matrix_validation() -> None:
    with pytest.raises(ShapeMismatch):
        QuantileMatrix.from_values([1.0, 2.0])
    with pytest.raises(ValueError):
        QuantileMatrix.from_values([[math.inf, 0.0]])
    with pytest.raises(ValueError):
        QuantileMatrix(np.zeros((2, 2)), np.array([0.8, 0.2]))
    with pytest.raises(ShapeMismatch):
        QuantileMatrix(np.zeros((2, 2)), np.array([0.5]))


def test_comparator_config_validation() -> None:
    with pytest.raises(ConfigError):
        ComparatorConfig("nope")
    with pytest.raises(ConfigError):
        ComparatorConfig(epsilon=-0.1)
    with pytest.raises(ConfigError):
        ComparatorConfig(cvar_alpha=0.0)
    with pytest.raises(ConfigError):
        ComparatorConfig(mv_lambda=-1.0)


def test_zscore_rejects_a_spread_that_overflows() -> None:
    # The squared deviations overflow float64, so std is not finite; the
    # scores would all be zero and the dominated action would survive.
    huge = matrix([[1.7e308, -1.7e308], [1.7e308, -1.7e308]])
    with pytest.raises(ValueError, match="too large to standardize"):
        classify_pairs(huge, ComparatorConfig("qd", epsilon=0.1))


def test_zscore_constant_matrix_maps_to_zeros() -> None:
    normalized = zscore_normalize(matrix([[5.0, 5.0], [5.0, 5.0]]))
    assert np.all(normalized.values == 0.0)


def test_zscore_symmetric_pair_is_fixed_point() -> None:
    normalized = zscore_normalize(matrix([[-1.0, 1.0]]))
    assert np.allclose(normalized.values, [[-1.0, 1.0]])


def test_zscore_uses_population_statistics_over_all_entries() -> None:
    normalized = zscore_normalize(matrix([[0.0, 2.0], [4.0, 6.0]]))
    root5 = math.sqrt(5.0)
    expected = [[-3.0 / root5, -1.0 / root5], [1.0 / root5, 3.0 / root5]]
    assert np.allclose(normalized.values, expected)


def test_ideal_profile_is_per_quantile_maximum() -> None:
    assert ideal_profile(matrix([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx([1.0, 1.0])
    column = [[0.3], [0.7]]
    assert ideal_profile(matrix(column)) == pytest.approx([0.3, 0.7])
    same = matrix([[0.2, 0.2], [0.9, 0.9]])
    assert ideal_profile(same) == pytest.approx([0.2, 0.9])


def test_w1_to_ideal_mean_absolute_gap() -> None:
    crossed = matrix([[0.0, 1.0], [1.0, 0.0]])
    assert w1_to_ideal(crossed, [1.0, 1.0]) == pytest.approx([0.5, 0.5])
    split = matrix([[1.0, 0.0], [1.0, 0.0]])
    assert w1_to_ideal(split, [1.0, 1.0]) == pytest.approx([0.0, 1.0])
    assert w1_to_ideal(matrix([[0.4], [0.6]])) == pytest.approx([0.0])


def test_w1_zero_exactly_for_actions_attaining_every_row_maximum() -> None:
    rng = np.random.default_rng(5)
    for _ in range(50):
        values = rng.normal(size=(4, 3))
        m = matrix(values)
        distances = w1_to_ideal(m)
        attains = (values == values.max(axis=1, keepdims=True)).all(axis=0)
        assert np.array_equal(distances == 0.0, attains)


def test_qd_gap_matrix_on_prenormalized_values() -> None:
    gaps = qd(matrix([[1.0, 0.0], [1.0, 0.0]]))
    assert gaps[0, 1] == pytest.approx(1.0)
    assert gaps[1, 0] == pytest.approx(-1.0)
    assert np.all(qd(matrix([[0.5, 0.5], [0.1, 0.1]])) == 0.0)
    crossed = qd(matrix([[0.0, 1.0], [1.0, 0.0]]))
    assert crossed[0, 1] == pytest.approx(0.0)


def test_qd_antisymmetry_on_random_matrices() -> None:
    rng = np.random.default_rng(123)
    for _ in range(100):
        gaps = qd(matrix(rng.normal(size=(rng.integers(1, 6), rng.integers(1, 6)))))
        assert np.allclose(gaps + gaps.T, 0.0, atol=1e-9)


def test_classify_dominates_above_epsilon() -> None:
    decision = classify_pairs(matrix([[1.0, 0.0], [1.0, 0.0]]), ComparatorConfig("qd", 0.2))
    assert decision.dom[0, 1] and not decision.dom[1, 0]
    assert decision.dom_by[1, 0] and not decision.dom_by[0, 1]


def test_classify_indifferent_within_epsilon() -> None:
    # The z-scored score gap for this pair is exactly 2.
    decision = classify_pairs(matrix([[1.0, 0.0], [1.0, 0.0]]), ComparatorConfig("qd", 2.5))
    assert not decision.dom.any()
    assert not decision.dom_by.any()


def test_classify_respects_mask() -> None:
    m = matrix([[1.0, 0.0], [1.0, 0.0]])
    decision = classify_pairs(m, ComparatorConfig("qd", 0.0), np.zeros((2, 2), dtype=bool))
    assert not decision.dom.any() and not decision.dom_by.any()
    with pytest.raises(ShapeMismatch):
        classify_pairs(m, ComparatorConfig(), np.zeros((3, 3), dtype=bool))


def test_classify_diagonal_always_clear() -> None:
    decision = classify_pairs(matrix([[1.0, 0.0]]), ComparatorConfig("qd", 0.0))
    assert not decision.dom.diagonal().any()
    assert not decision.dom_by.diagonal().any()


def test_no_conflicts_within_a_single_call() -> None:
    rng = np.random.default_rng(77)
    for kind in ("qd", "cvar", "mv"):
        for _ in range(50):
            m = matrix(rng.normal(size=(4, 4)))
            decision = classify_pairs(m, ComparatorConfig(kind, 0.1))
            assert not (decision.dom & decision.dom_by).any()
            assert np.array_equal(decision.dom, decision.dom_by.T)


def test_single_quantile_zero_epsilon_is_scalar_comparison() -> None:
    m = matrix([[3.0, 1.0, 2.0]])
    decision = classify_pairs(m, ComparatorConfig("qd", 0.0))
    order = m.values[0]
    for a in range(3):
        for b in range(3):
            assert decision.dom[a, b] == (a != b and order[a] > order[b])


def test_affine_invariance_of_classification() -> None:
    rng = np.random.default_rng(2026)
    for kind in ("qd", "cvar", "mv"):
        cfg = ComparatorConfig(kind, 0.15)
        for _ in range(40):
            values = rng.normal(size=(3, 4))
            scale = float(rng.uniform(0.1, 10.0))
            shift = float(rng.normal(scale=5.0))
            base = classify_pairs(matrix(values), cfg)
            mapped = classify_pairs(matrix(scale * values + shift), cfg)
            assert np.array_equal(base.dom, mapped.dom)
            assert np.array_equal(base.dom_by, mapped.dom_by)


def test_scores_match_plain_python_reference() -> None:
    rng = random.Random(31415)
    for kind in ("qd", "cvar", "mv"):
        for _ in range(60):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 5)
            values = [[rng.uniform(-3, 3) for _ in range(cols)] for _ in range(rows)]
            cfg = ComparatorConfig(kind, 0.0, cvar_alpha=0.25, mv_lambda=1.0)
            ours = action_scores(matrix(values), cfg)
            reference = ref_scores(values, kind)
            assert ours == pytest.approx(reference, abs=1e-9)


def test_cvar_takes_the_lower_tail_mean() -> None:
    # One action safe and flat, one risky and spread: the tail prefers
    # the flat one even though the means agree.
    values = [[0.0, -2.0], [0.0, 0.0], [0.0, 0.0], [0.0, 2.0]]
    scores = action_scores(matrix(values), ComparatorConfig("cvar", cvar_alpha=0.25))
    assert scores[0] > scores[1]


def test_mean_variance_penalizes_spread() -> None:
    values = [[0.0, -2.0], [0.0, 2.0]]
    lenient = action_scores(matrix(values), ComparatorConfig("mv", mv_lambda=0.0))
    strict = action_scores(matrix(values), ComparatorConfig("mv", mv_lambda=1.0))
    assert lenient[0] == pytest.approx(lenient[1])
    assert strict[0] > strict[1]


def test_csv_roundtrip_preserves_matrix(tmp_path) -> None:
    m = matrix([[0.125, -1.5], [0.875, 2.25]])
    path = tmp_path / "matrix.csv"
    save_quantile_csv(m, path)
    loaded = load_quantile_csv(path)
    assert np.array_equal(loaded.values, m.values)
    assert np.array_equal(loaded.fractions, m.fractions)


def test_csv_loader_rejects_malformed_files(tmp_path) -> None:
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("nope,a0\n0.5,1.0\n")
    with pytest.raises(ShapeMismatch):
        load_quantile_csv(bad_header)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("tau,a0,a1\n0.5,1.0\n")
    with pytest.raises(ShapeMismatch):
        load_quantile_csv(ragged)
    empty = tmp_path / "empty.csv"
    empty.write_text("tau,a0\n")
    with pytest.raises(ShapeMismatch):
        load_quantile_csv(empty)


def test_csv_loader_names_the_line_of_a_non_numeric_cell(tmp_path) -> None:
    path = tmp_path / "cell.csv"
    path.write_text("tau,a0,a1\n0.25,1.0,2.0\n0.75,abc,1.0\n")
    with pytest.raises(ShapeMismatch, match=r"cell\.csv, line 3: .*'abc'"):
        load_quantile_csv(path)


def _per_matrix_scores(values: np.ndarray, config: ComparatorConfig) -> np.ndarray:
    """The per-matrix numpy scorer that ``score_heads`` replaced, kept
    verbatim as the bit-level reference for one (quantiles, actions) array."""
    std = float(values.std())
    normalized = (np.zeros_like(values) if std < 1e-12
                  else (values - values.mean()) / std)
    if config.kind == "qd":
        ideal = normalized.max(axis=1)
        return -np.abs(normalized - ideal[:, None]).mean(axis=0)
    if config.kind == "cvar":
        tail = int(np.ceil(config.cvar_alpha * normalized.shape[0]))
        return np.sort(normalized, axis=0)[:tail].mean(axis=0)
    return normalized.mean(axis=0) - config.mv_lambda * normalized.var(axis=0)


def _random_heads(rng: np.random.Generator, layout: str) -> list[np.ndarray]:
    """(quantiles, actions) arrays as a quantile tensor's views (quantiles
    contiguous) or as C-ordered matrices, like ``load_quantile_csv`` returns."""
    n_heads = int(rng.integers(1, 6))
    n_actions = int(rng.integers(1, 7))
    n_quantiles = int(rng.choice([1, 2, 4, 8, 9]))
    tensor = rng.normal(size=(n_heads, 3, n_actions, n_quantiles)) * 10.0 ** rng.uniform(-3, 3)
    if rng.random() < 0.3:  # spread below ZERO_VARIANCE_STD, or none at all
        flat = int(rng.integers(n_heads))
        tensor[flat] = float(rng.normal()) + 1e-14 * rng.normal(size=tensor[flat].shape) * (
            rng.random() < 0.5)
    heads = [tensor[h, 1].T for h in range(n_heads)]
    return heads if layout == "tensor" else [np.ascontiguousarray(h) for h in heads]


@pytest.mark.parametrize("layout", ["tensor", "c-order"])
@pytest.mark.parametrize("kind", ["qd", "cvar", "mv"])
def test_score_heads_equals_the_per_matrix_scorer_bit_for_bit(kind, layout) -> None:
    rng = np.random.default_rng(4242)
    for _ in range(300):
        heads = _random_heads(rng, layout)
        config = ComparatorConfig(kind, cvar_alpha=float(rng.uniform(0.05, 1.0)),
                                  mv_lambda=float(rng.uniform(0.0, 2.0)))
        expected = np.array([_per_matrix_scores(h, config) for h in heads])
        batched = score_heads(np.stack(heads).transpose(0, 2, 1), config)
        assert batched.tobytes() == expected.tobytes()
        alone = action_scores(QuantileMatrix.from_values(heads[0]), config)
        assert alone.tobytes() == expected[0].tobytes()
