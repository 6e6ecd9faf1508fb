"""Unit and property tests for the top-k metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.topk import (
    f1_at_k,
    hits_at_k,
    ndcg_at_k,
    one_call_at_k,
    precision_at_k,
    recall_at_k,
    top_k_items,
)
from repro.utils.exceptions import ConfigError

RECOMMENDED = np.array([7, 3, 9, 1, 5])


class TestKnownValues:
    def test_precision(self):
        assert precision_at_k(RECOMMENDED, {7, 9}, 5) == pytest.approx(0.4)
        assert precision_at_k(RECOMMENDED, {7, 9}, 1) == pytest.approx(1.0)
        assert precision_at_k(RECOMMENDED, {2}, 5) == 0.0

    def test_recall(self):
        assert recall_at_k(RECOMMENDED, {7, 9, 2, 4}, 5) == pytest.approx(0.5)
        assert recall_at_k(RECOMMENDED, set(), 5) == 0.0

    def test_f1_harmonic_mean(self):
        precision = precision_at_k(RECOMMENDED, {7, 9}, 5)
        recall = recall_at_k(RECOMMENDED, {7, 9}, 5)
        expected = 2 * precision * recall / (precision + recall)
        assert f1_at_k(RECOMMENDED, {7, 9}, 5) == pytest.approx(expected)

    def test_f1_zero_when_no_hits(self):
        assert f1_at_k(RECOMMENDED, {2}, 5) == 0.0

    def test_one_call(self):
        assert one_call_at_k(RECOMMENDED, {5}, 5) == 1.0
        assert one_call_at_k(RECOMMENDED, {5}, 3) == 0.0

    def test_hits(self):
        assert hits_at_k(RECOMMENDED, {7, 9, 5}, 3) == 2

    def test_ndcg_perfect_ranking_is_one(self):
        assert ndcg_at_k(np.array([1, 2, 3]), {1, 2, 3}, 3) == pytest.approx(1.0)

    def test_ndcg_single_hit_positions(self):
        # hit at position p contributes 1/log2(p+1), ideal = 1.
        assert ndcg_at_k(np.array([9, 1]), {1}, 2) == pytest.approx(1 / np.log2(3))
        assert ndcg_at_k(np.array([1, 9]), {1}, 2) == pytest.approx(1.0)

    def test_ndcg_no_relevant(self):
        assert ndcg_at_k(RECOMMENDED, set(), 5) == 0.0

    def test_invalid_k(self):
        with pytest.raises(ConfigError):
            precision_at_k(RECOMMENDED, {1}, 0)


class TestTopKItems:
    def test_orders_by_score(self):
        scores = np.array([0.1, 0.9, 0.5, 0.7])
        assert top_k_items(scores, 3).tolist() == [1, 3, 2]

    def test_exclusion(self):
        scores = np.array([0.1, 0.9, 0.5, 0.7])
        assert top_k_items(scores, 2, exclude=np.array([1])).tolist() == [3, 2]

    def test_k_larger_than_items(self):
        scores = np.array([0.3, 0.1])
        assert top_k_items(scores, 10).tolist() == [0, 1]

    def test_does_not_mutate_scores(self):
        scores = np.array([0.1, 0.9])
        top_k_items(scores, 1, exclude=np.array([1]))
        assert scores[1] == 0.9


@st.composite
def ranking_case(draw):
    n_items = draw(st.integers(min_value=2, max_value=30))
    scores = draw(
        st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            min_size=n_items, max_size=n_items,
        )
    )
    relevant = draw(st.sets(st.integers(0, n_items - 1), max_size=n_items))
    k = draw(st.integers(min_value=1, max_value=n_items))
    return np.array(scores), relevant, k


class TestProperties:
    @given(case=ranking_case())
    @settings(max_examples=80, deadline=None)
    def test_metrics_bounded(self, case):
        scores, relevant, k = case
        recommended = top_k_items(scores, k)
        for metric in (precision_at_k, recall_at_k, f1_at_k, one_call_at_k, ndcg_at_k):
            value = metric(recommended, relevant, k)
            assert 0.0 <= value <= 1.0

    @given(case=ranking_case())
    @settings(max_examples=80, deadline=None)
    def test_f1_between_min_and_max(self, case):
        """The harmonic mean lies between min and max of its arguments."""
        scores, relevant, k = case
        recommended = top_k_items(scores, k)
        precision = precision_at_k(recommended, relevant, k)
        recall = recall_at_k(recommended, relevant, k)
        f1 = f1_at_k(recommended, relevant, k)
        if f1 == 0.0:
            assert precision == 0.0 or recall == 0.0
        else:
            assert min(precision, recall) - 1e-12 <= f1 <= max(precision, recall) + 1e-12

    @given(case=ranking_case())
    @settings(max_examples=60, deadline=None)
    def test_recall_monotone_in_k(self, case):
        scores, relevant, _ = case
        recommended = top_k_items(scores, len(scores))
        recalls = [recall_at_k(recommended, relevant, k) for k in range(1, len(scores) + 1)]
        assert all(b >= a - 1e-12 for a, b in zip(recalls, recalls[1:]))

    @given(case=ranking_case())
    @settings(max_examples=60, deadline=None)
    def test_all_items_recommended_gives_full_recall(self, case):
        scores, relevant, _ = case
        if not relevant:
            return
        recommended = top_k_items(scores, len(scores))
        assert recall_at_k(recommended, relevant, len(scores)) == pytest.approx(1.0)


class TestTopKBoundaries:
    """Regression tests for the k-boundary discipline.

    ``k >= n_items`` used to fall through to a raw argpartition whose
    survivor order is unspecified for tied scores; the boundary now
    takes one stable full sort, so ties break by item id identically on
    every path (``top_k_items``, ``topk_from_matrix``).  ``k == 0`` /
    empty catalogs return empty rankings instead of partitioning past
    the end.
    """

    def test_matrix_k_zero_returns_empty(self):
        from repro.metrics.scoring import topk_from_matrix

        scores = np.random.default_rng(0).normal(size=(3, 5))
        top = topk_from_matrix(scores, 0)
        assert top.shape == (3, 0)
        assert top.dtype == np.int64

    def test_matrix_empty_catalog(self):
        from repro.metrics.scoring import topk_from_matrix

        top = topk_from_matrix(np.zeros((2, 0)), 4)
        assert top.shape == (2, 0)

    def test_matrix_negative_k_rejected(self):
        from repro.metrics.scoring import topk_from_matrix

        with pytest.raises(ConfigError):
            topk_from_matrix(np.zeros((1, 3)), -1)

    def test_matrix_k_clamped_to_catalog(self):
        from repro.metrics.scoring import topk_from_matrix

        scores = np.random.default_rng(1).normal(size=(4, 6))
        assert np.array_equal(
            topk_from_matrix(scores, 6), topk_from_matrix(scores, 99)
        )

    def test_matrix_ties_break_by_item_id_at_full_k(self):
        from repro.metrics.scoring import topk_from_matrix

        scores = np.array([[1.0, 1.0, 1.0, 1.0]])
        assert topk_from_matrix(scores, 4)[0].tolist() == [0, 1, 2, 3]
        # ...and the boundary agrees with the partition path below it.
        assert topk_from_matrix(scores, 3)[0].tolist() == [0, 1, 2]

    def test_top_k_items_ties_match_matrix_kernel(self):
        from repro.metrics.scoring import topk_from_matrix

        scores = np.array([2.0, 2.0, -np.inf, 2.0, 1.0])
        assert np.array_equal(
            top_k_items(scores, len(scores)),
            topk_from_matrix(scores[None, :], len(scores))[0],
        )

    def test_deterministic_across_calls(self):
        from repro.metrics.scoring import topk_from_matrix

        scores = np.random.default_rng(2).normal(size=(5, 8))
        scores[:, 3] = scores[:, 5]  # inject ties
        first = topk_from_matrix(scores, 8)
        for _ in range(3):
            assert np.array_equal(topk_from_matrix(scores, 8), first)


class TestTopKNanBoundary:
    """A NaN k-th score sends the row to the stable fallback.

    ``scores >= NaN`` is all False, so the tie count alone never flagged
    these rows and argpartition's arbitrary pick among the NaNs leaked
    out.  Every case is checked against the stable full-sort prefix.
    """

    @staticmethod
    def _assert_stable_prefix(scores, ks):
        from repro.metrics.scoring import topk_from_matrix

        expected = np.argsort(-scores, axis=1, kind="stable")
        for k in ks:
            assert np.array_equal(topk_from_matrix(scores, k), expected[:, :k]), k

    def test_all_nan_row_with_neg_inf_items(self):
        scores = np.full((1, 40), np.nan)
        scores[0, [3, 7, 20]] = -np.inf
        self._assert_stable_prefix(scores, [1, 3, 4, 20, 39])

    def test_all_nan_rows(self):
        self._assert_stable_prefix(np.full((3, 50), np.nan), [1, 7, 25, 49])

    def test_nan_straddles_k(self):
        rng = np.random.default_rng(0)
        scores = rng.standard_normal((6, 60))
        for row in range(6):
            scores[row, rng.choice(60, 10 + 7 * row, replace=False)] = np.nan
        # k below, at and above each row's count of non-NaN scores.
        self._assert_stable_prefix(scores, [5, 10, 18, 25, 32, 43, 50, 55])

    def test_nan_mixed_with_infinities(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal((5, 80)).round(1)
        scores[:, rng.choice(80, 20, replace=False)] = np.nan
        scores[:, rng.choice(80, 8, replace=False)] = np.inf
        scores[:, rng.choice(80, 15, replace=False)] = -np.inf
        scores[2, :40] = -np.inf
        scores[3, 40:] = np.nan
        self._assert_stable_prefix(scores, [1, 8, 9, 30, 45, 60, 70, 79])
