"""Unit tests for distribution-level action comparison."""

from __future__ import annotations

import math
import random
import re

import numpy as np
import pytest

from preorder_rl.artifacts import load_quantile_csv, save_quantile_csv
from preorder_rl.comparators import (
    ComparatorConfig,
    HeadStack,
    QuantileMatrix,
    action_scores,
    classify_pairs,
    midpoint_fractions,
    qd,
    score_heads,
    zscore_normalize,
)
from preorder_rl.errors import ConfigError, ShapeMismatch
from preorder_rl.learner import QuantileTensor

from ._reference import ref_scores


def matrix(rows) -> QuantileMatrix:
    return QuantileMatrix(rows)


def w1_distances(rows) -> np.ndarray:
    """Each action's W1 distance to the per-quantile maximum, read off qd:
    an appended action equal to that maximum is at distance 0, so its row
    of score gaps holds every other action's distance, bit for bit."""
    values = np.asarray(rows, dtype=float)
    return qd(matrix(np.column_stack([values, values.max(axis=1)])))[-1, :-1]


def test_midpoint_fractions_are_uniform_midpoints() -> None:
    assert np.allclose(midpoint_fractions(4), [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(midpoint_fractions(1), [0.5])
    with pytest.raises(ConfigError):
        midpoint_fractions(0)


def test_quantile_matrix_validation() -> None:
    with pytest.raises(ShapeMismatch):
        QuantileMatrix([1.0, 2.0])
    with pytest.raises(ValueError):
        QuantileMatrix([[math.inf, 0.0]])


def test_the_quantile_count_is_the_one_source_of_the_grid() -> None:
    values = np.arange(12.0).reshape(2, 3, 2, 1).repeat(4, axis=3)
    tensor = QuantileTensor(values)
    assert np.array_equal(tensor.fractions, midpoint_fractions(4))
    for m in (QuantileMatrix(values[0, 0].T), *tensor.matrices(1)):
        assert np.array_equal(m.fractions, midpoint_fractions(4))
    with pytest.raises(AttributeError):
        QuantileMatrix(values[0, 0].T).fractions = midpoint_fractions(4)
    assert not hasattr(QuantileMatrix, "from_values")
    for build, array in ((QuantileMatrix, values[0, 0].T), (HeadStack, values[:, 0]),
                         (QuantileTensor, values)):
        with pytest.raises(TypeError):
            build(array, midpoint_fractions(4))


def test_comparator_config_validation() -> None:
    with pytest.raises(ConfigError):
        ComparatorConfig("nope")
    with pytest.raises(ConfigError):
        ComparatorConfig(epsilon=-0.1)
    with pytest.raises(ConfigError):
        ComparatorConfig(cvar_alpha=0.0)
    with pytest.raises(ConfigError):
        ComparatorConfig(mv_lambda=-1.0)


@pytest.mark.parametrize("field", ["epsilon", "cvar_alpha", "mv_lambda"])
def test_comparator_integer_beyond_float_range_is_a_config_error(field) -> None:
    with pytest.raises(ConfigError, match=f"^{field} "):
        ComparatorConfig(**{field: 10**400})


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
    # Appended as one more action, the ideal profile sits at distance 0:
    # it leads each action by that action's mean gap to it, and the gaps
    # between the other actions do not move.
    for rows, ideal in (([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0]), ([[0.3], [0.7]], [0.3, 0.7]),
                        ([[0.2, 0.2], [0.9, 0.9]], [0.2, 0.9])):
        gaps = qd(matrix(np.column_stack([rows, ideal])))
        assert gaps[-1, :-1] == pytest.approx((np.c_[ideal] - rows).mean(axis=0))
        assert gaps[:-1, :-1] == pytest.approx(qd(matrix(rows)))


def test_w1_to_ideal_mean_absolute_gap() -> None:
    # [1, 1] is the per-quantile maximum of both matrices.
    assert w1_distances([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx([0.5, 0.5])
    assert w1_distances([[1.0, 0.0], [1.0, 0.0]]) == pytest.approx([0.0, 1.0])
    assert w1_distances([[0.4], [0.6]]) == pytest.approx([0.0])


def test_w1_zero_exactly_for_actions_attaining_every_row_maximum() -> None:
    rng = np.random.default_rng(5)
    for _ in range(50):
        values = rng.normal(size=(4, 3))
        distances = w1_distances(values)
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
    dom, dom_by = classify_pairs(matrix([[1.0, 0.0], [1.0, 0.0]]), ComparatorConfig("qd", 0.2))
    assert dom[0, 1] and not dom[1, 0]
    assert dom_by[1, 0] and not dom_by[0, 1]


def test_classify_indifferent_within_epsilon() -> None:
    # The z-scored score gap for this pair is exactly 2.
    dom, dom_by = classify_pairs(matrix([[1.0, 0.0], [1.0, 0.0]]), ComparatorConfig("qd", 2.5))
    assert not dom.any()
    assert not dom_by.any()


def test_classify_diagonal_always_clear() -> None:
    dom, dom_by = classify_pairs(matrix([[1.0, 0.0]]), ComparatorConfig("qd", 0.0))
    assert not dom.diagonal().any()
    assert not dom_by.diagonal().any()


def test_no_conflicts_within_a_single_call() -> None:
    rng = np.random.default_rng(77)
    for kind in ("qd", "cvar", "mv"):
        for _ in range(50):
            m = matrix(rng.normal(size=(4, 4)))
            dom, dom_by = classify_pairs(m, ComparatorConfig(kind, 0.1))
            assert not (dom & dom_by).any()
            assert np.array_equal(dom, dom_by.T)


def test_single_quantile_zero_epsilon_is_scalar_comparison() -> None:
    m = matrix([[3.0, 1.0, 2.0]])
    dom, _ = classify_pairs(m, ComparatorConfig("qd", 0.0))
    order = m.values[0]
    for a in range(3):
        for b in range(3):
            assert dom[a, b] == (a != b and order[a] > order[b])


def test_affine_invariance_of_classification() -> None:
    rng = np.random.default_rng(2026)
    for kind in ("qd", "cvar", "mv"):
        cfg = ComparatorConfig(kind, 0.15)
        for _ in range(40):
            values = rng.normal(size=(3, 4))
            scale = float(rng.uniform(0.1, 10.0))
            shift = float(rng.normal(scale=5.0))
            base_dom, base_dom_by = classify_pairs(matrix(values), cfg)
            mapped_dom, mapped_dom_by = classify_pairs(matrix(scale * values + shift), cfg)
            assert np.array_equal(base_dom, mapped_dom)
            assert np.array_equal(base_dom_by, mapped_dom_by)


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


@pytest.mark.parametrize("n_quantiles", [1, 2, 3, 8])
def test_csv_roundtrip_is_bit_identical_for_each_quantile_count(tmp_path, n_quantiles) -> None:
    # K = 3 has no dyadic midpoints: the loader must take the writer's repr.
    values = np.random.default_rng(n_quantiles).normal(size=(n_quantiles, 3)) / 3.0
    path = tmp_path / "matrix.csv"
    save_quantile_csv(QuantileMatrix(values), path)
    assert load_quantile_csv(path).values.tobytes() == values.tobytes()
    taus = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
    assert taus == [repr(tau) for tau in midpoint_fractions(n_quantiles).tolist()]


def test_csv_loader_rejects_a_tau_column_off_the_midpoints(tmp_path) -> None:
    path = tmp_path / "matrix.csv"
    for taus, line in (([0.25, 0.7], 3), ([0.5, 0.75], 2), ([0.25, math.nan], 3)):
        path.write_text("tau,a0\n" + "".join(f"{tau},1.0\n" for tau in taus))
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}, line {line}: "
                           r"tau must be the midpoint fractions \(2k-1\)/2K, \[0.25, 0.75\]"):
            load_quantile_csv(path)


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
        alone = action_scores(QuantileMatrix(heads[0]), config)
        assert alone.tobytes() == expected[0].tobytes()
