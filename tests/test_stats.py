"""Tests for the run-score statistics and the interval plot."""

from __future__ import annotations

import xml.dom.minidom

import numpy as np
import pytest

from preorder_rl.plots import interval_plot_svg
from preorder_rl.stats import bootstrap_ci, iqm, optimality_gap, prob_improvement

from ._reference import ref_bootstrap_ci, ref_iqm, ref_optimality_gap


def _tie_heavy(rng: np.random.Generator, shape) -> np.ndarray:
    """Scores around 0.8 rounded to 0-2 decimals, so many values tie."""
    decimals = int(rng.integers(0, 3))
    return np.round(rng.normal(loc=0.8, scale=0.5, size=shape), decimals)


def test_iqm_drops_a_quarter_from_each_end() -> None:
    assert iqm([1, 2, 3, 4, 5, 6, 7, 8]) == 4.5
    assert iqm([8, 1, 7, 2, 6, 3, 5, 4]) == 4.5
    assert iqm([3.0] * 5) == 3.0
    assert iqm([42.0]) == 42.0


def test_iqm_shift_invariance() -> None:
    rng = np.random.default_rng(17)
    for _ in range(50):
        scores = rng.normal(size=int(rng.integers(1, 30)))
        shift = float(rng.normal())
        assert iqm(scores + shift) == pytest.approx(iqm(scores) + shift)


def test_optimality_gap_examples() -> None:
    assert optimality_gap([0.5, 1.5]) == 0.25
    assert optimality_gap([1.0, 2.0, 3.0]) == 0.0
    assert optimality_gap([0.0]) == 1.0
    assert optimality_gap([0.5, 1.5], target=2.0) == pytest.approx(1.0)


def test_optimality_gap_sign() -> None:
    rng = np.random.default_rng(23)
    for _ in range(50):
        scores = rng.normal(loc=0.8, scale=0.5, size=int(rng.integers(1, 20)))
        gap = optimality_gap(scores)
        assert gap >= 0.0
        assert (gap == 0.0) == bool(np.all(scores >= 1.0))


def test_prob_improvement_examples() -> None:
    assert prob_improvement([1, 2], [0, 1]) == 0.875
    assert prob_improvement([1, 2, 3], [1, 2, 3]) == 0.5
    assert prob_improvement([5, 6], [1, 2]) == 1.0
    assert prob_improvement([1, 2], [5, 6]) == 0.0


def test_prob_improvement_complement() -> None:
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.integers(0, 4, size=int(rng.integers(1, 12))).astype(float)
        y = rng.integers(0, 4, size=int(rng.integers(1, 12))).astype(float)
        assert prob_improvement(x, y) + prob_improvement(y, x) == 1.0


def test_scores_must_be_finite_and_non_empty() -> None:
    with pytest.raises(ValueError):
        iqm([])
    with pytest.raises(ValueError):
        optimality_gap([np.nan])
    with pytest.raises(ValueError):
        prob_improvement([1.0], [np.inf])


def test_bootstrap_ci_is_deterministic_and_covers_the_estimate() -> None:
    scores = list(range(1, 9))
    first = bootstrap_ci(iqm, scores, n_resamples=1000,
                         rng=np.random.default_rng(3))
    second = bootstrap_ci(iqm, scores, n_resamples=1000,
                          rng=np.random.default_rng(3))
    assert first == second
    lo, hi = first
    assert lo <= 4.5 <= hi
    assert lo < hi


def test_bootstrap_ci_degenerate_on_constant_scores() -> None:
    lo, hi = bootstrap_ci(iqm, [2.5] * 6, n_resamples=200,
                          rng=np.random.default_rng(0))
    assert lo == hi == 2.5


def test_bootstrap_ci_validation() -> None:
    with pytest.raises(ValueError):
        bootstrap_ci(iqm, [1.0, 2.0], n_resamples=10)
    with pytest.raises(ValueError):
        bootstrap_ci(iqm, [1.0, 2.0], confidence=1.5)


def test_batched_statistics_equal_the_per_row_calls() -> None:
    rng = np.random.default_rng(29)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        matrix = _tie_heavy(rng, (int(rng.integers(1, 20)), n))
        target = float(rng.choice([0.5, 1.0, 1.5]))
        rows_iqm = iqm(matrix)
        rows_gap = optimality_gap(matrix, target)
        assert rows_iqm.shape == rows_gap.shape == (matrix.shape[0],)
        for i, row in enumerate(matrix):
            assert isinstance(iqm(row), float)
            assert rows_iqm[i] == iqm(row) == ref_iqm(row)
            assert rows_gap[i] == optimality_gap(row, target) == ref_optimality_gap(row, target)
    cube = _tie_heavy(rng, (3, 4, 9))
    assert iqm(cube).shape == optimality_gap(cube).shape == (3, 4)
    assert iqm(cube)[2, 1] == iqm(cube[2, 1])


def test_bootstrap_ci_matches_the_per_resample_reference() -> None:
    rng = np.random.default_rng(19)
    for case in range(600):
        scores = _tie_heavy(rng, int(rng.integers(1, 40)))
        n_resamples = int(rng.integers(100, 400))
        confidence = float(rng.choice([0.5, 0.9, 0.95, 0.99]))
        target = float(rng.choice([0.5, 1.0, 1.5]))
        if case % 2:
            statistic, reference = iqm, ref_iqm
        else:
            def statistic(s):
                return optimality_gap(s, target)

            def reference(s):
                return ref_optimality_gap(s, target)
        seed = int(rng.integers(2**32))
        got = bootstrap_ci(statistic, scores, n_resamples, confidence,
                           rng=np.random.default_rng(seed))
        want = ref_bootstrap_ci(reference, scores, n_resamples, confidence,
                                rng=np.random.default_rng(seed))
        assert got == want


def test_bootstrap_ci_calls_the_statistic_once_on_the_resample_matrix() -> None:
    seen = []

    def statistic(resamples):
        seen.append(resamples)
        return resamples.mean(axis=-1)

    bootstrap_ci(statistic, [0.1, 0.4, 0.9, 1.2, 0.7], n_resamples=300,
                 rng=np.random.default_rng(1))
    assert len(seen) == 1
    assert seen[0].shape == (300, 5)


def test_bootstrap_ci_rejects_a_statistic_that_does_not_reduce_rows() -> None:
    with pytest.raises(ValueError, match="one value per resample"):
        bootstrap_ci(lambda s: float(s.mean()), [1.0, 2.0, 3.0], n_resamples=100,
                     rng=np.random.default_rng(0))


def test_interval_plot_lists_every_label() -> None:
    entries = [("preorder", 0.8, 0.7, 0.9), ("baseline", 0.5, 0.4, 0.6)]
    svg = interval_plot_svg(entries, title="success")
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    for label in ("preorder", "baseline", "success"):
        assert label in svg
    assert interval_plot_svg(entries) == interval_plot_svg(entries)


def test_interval_plot_escapes_markup_in_labels_and_title() -> None:
    label = 'q&a<b>"c"'
    svg = interval_plot_svg([(label, 0.5, 0.4, 0.6), ("plain", 0.2, 0.1, 0.3)],
                            title="a<b & c")
    texts = [node.firstChild.data for node in
             xml.dom.minidom.parseString(svg).getElementsByTagName("text")]
    assert label in texts and "plain" in texts and "a<b & c" in texts


def test_interval_plot_accepts_degenerate_spans() -> None:
    svg = interval_plot_svg([("only", 1.0, 1.0, 1.0)])
    assert "<circle" in svg


def test_interval_plot_rejects_bad_entries() -> None:
    with pytest.raises(ValueError):
        interval_plot_svg([])
    with pytest.raises(ValueError):
        interval_plot_svg([("broken", 2.0, 0.0, 1.0)])
