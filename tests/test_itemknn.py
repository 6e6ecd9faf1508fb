"""Tests of the ItemKNN baseline.

The blocked sparse fit is pinned bit for bit against the dense m×m
cosine formulation kept here as the reference.
"""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from repro.data.interactions import InteractionMatrix
from repro.metrics.evaluator import evaluate_model
from repro.models import itemknn
from repro.models.itemknn import ItemKNN
from repro.models.poprank import PopRank
from repro.serving import ItemKNNTier, RecommendationRequest
from repro.utils.exceptions import ConfigError


def dense_similarity(train: InteractionMatrix, n_neighbors: int, shrinkage: float) -> np.ndarray:
    """The dense m×m top-k cosine similarity (the reference formulation)."""
    n, m = train.n_users, train.n_items
    users = np.repeat(np.arange(n), train.user_counts())
    matrix = sparse.csr_matrix(
        (np.ones(train.n_interactions), (users, train.indices)), shape=(n, m)
    )
    co_counts = (matrix.T @ matrix).toarray()
    norms = np.sqrt(np.diag(co_counts))
    denominator = norms[:, None] * norms[None, :] + shrinkage
    similarity = np.divide(
        co_counts, denominator, out=np.zeros_like(co_counts), where=denominator > 0
    )
    np.fill_diagonal(similarity, 0.0)
    if n_neighbors < m - 1:
        drop = np.argpartition(-similarity, n_neighbors, axis=1)[:, n_neighbors:]
        np.put_along_axis(similarity, drop, 0.0, axis=1)
    return similarity


def dense_scores(similarity: np.ndarray, history) -> np.ndarray:
    """The dense history row-sum the scores must match bit for bit."""
    if len(history) == 0:
        return np.zeros(similarity.shape[1])
    return similarity[np.asarray(history)].sum(axis=0)


def assert_bitwise(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype == np.float64
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))


def tie_heavy_matrix() -> InteractionMatrix:
    """Tiny integer co-counts: many items share one similarity value."""
    rng = np.random.default_rng(3)
    pairs = [(u, i) for u in range(8) for i in range(24) if rng.random() < 0.3]
    return InteractionMatrix.from_pairs(pairs, 8, 24)


def never_consumed_matrix() -> InteractionMatrix:
    """Items 5, 9 and 13 have no interactions (zero cosine denominators)."""
    rng = np.random.default_rng(4)
    pairs = [
        (u, i) for u in range(10) for i in range(16)
        if i not in (5, 9, 13) and rng.random() < 0.35
    ]
    return InteractionMatrix.from_pairs(pairs, 10, 16)


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            ItemKNN(n_neighbors=0)
        with pytest.raises(ConfigError):
            ItemKNN(shrinkage=-1)

    def test_name(self):
        assert ItemKNN().name == "ItemKNN"


class TestSimilarity:
    def test_cooccurring_items_similar(self):
        """Items consumed together by the same users end up similar."""
        pairs = [(u, 0) for u in range(5)] + [(u, 1) for u in range(5)] + [(9, 2)]
        train = InteractionMatrix.from_pairs(pairs, 10, 3)
        model = ItemKNN(n_neighbors=3, shrinkage=0.0).fit(train)
        assert model.similarity_[0, 1] > 0.9
        assert model.similarity_[0, 2] == 0.0

    def test_diagonal_zeroed(self, learnable_split):
        model = ItemKNN(n_neighbors=10).fit(learnable_split.train)
        assert np.all(model.similarity_.diagonal() == 0.0)

    def test_neighbor_truncation(self, learnable_split):
        full = ItemKNN(n_neighbors=1_000_000).fit(learnable_split.train)
        sparse = ItemKNN(n_neighbors=5).fit(learnable_split.train)
        assert (sparse.similarity_ > 0).sum() <= (full.similarity_ > 0).sum()
        per_row = (sparse.similarity_ > 0).sum(axis=1)
        assert per_row.max() <= 5

    def test_shrinkage_damps_rare_pairs(self):
        pairs = [(0, 0), (0, 1), (1, 2), (1, 3)] + [(u + 2, 2) for u in range(8)] + [
            (u + 2, 3) for u in range(8)
        ]
        train = InteractionMatrix.from_pairs(pairs, 10, 4)
        raw = ItemKNN(n_neighbors=4, shrinkage=0.0).fit(train)
        shrunk = ItemKNN(n_neighbors=4, shrinkage=5.0).fit(train)
        # The single-co-occurrence pair (0,1) is damped more than the
        # well-supported pair (2,3).
        raw_ratio = raw.similarity_[0, 1] / raw.similarity_[2, 3]
        shrunk_ratio = shrunk.similarity_[0, 1] / shrunk.similarity_[2, 3]
        assert shrunk_ratio < raw_ratio


class TestRecommendation:
    def test_beats_popularity(self, learnable_split):
        knn = ItemKNN(n_neighbors=30, shrinkage=5.0).fit(learnable_split.train)
        pop = PopRank().fit(learnable_split.train)
        assert (
            evaluate_model(knn, learnable_split)["ndcg@5"]
            > evaluate_model(pop, learnable_split)["ndcg@5"]
        )

    def test_empty_history_user_gets_zeros(self, tiny_matrix):
        model = ItemKNN(n_neighbors=3).fit(tiny_matrix)
        assert np.all(model.predict_user(3) == 0.0)

    def test_recommend_batch_matches_single(self, learnable_split):
        model = ItemKNN(n_neighbors=20).fit(learnable_split.train)
        users = np.array([0, 3, 7])
        batch = model.recommend_batch(users, k=5)
        assert batch.shape == (3, 5)
        for row, user in zip(batch, users):
            assert row.tolist() == model.recommend(int(user), k=5).tolist()


class TestBlockedFitMatchesDense:
    """``similarity_`` is bitwise the dense formulation, blocked or not."""

    @pytest.mark.parametrize(
        "case, n_neighbors, shrinkage",
        [
            ("learnable", 10, 10.0),
            ("ties", 3, 0.0),
            ("ties", 5, 10.0),
            ("learnable", 159, 10.0),  # n_neighbors == m - 1: nothing truncated
            ("ties", 1_000, 0.0),
            ("never-consumed", 4, 0.0),  # exercises where=denominator > 0
        ],
    )
    @pytest.mark.parametrize("block_rows", [None, 7])
    def test_similarity_bitwise_equal(
        self, learnable_split, monkeypatch, case, n_neighbors, shrinkage, block_rows
    ):
        train = {
            "learnable": learnable_split.train,
            "ties": tie_heavy_matrix(),
            "never-consumed": never_consumed_matrix(),
        }[case]
        if block_rows is not None:
            # Several blocks, the last one ragged (m is no multiple of 7).
            assert train.n_items % block_rows
            monkeypatch.setattr(itemknn, "BLOCK_ENTRIES", block_rows * train.n_items)
        model = ItemKNN(n_neighbors=n_neighbors, shrinkage=shrinkage).fit(train)
        assert sparse.isspmatrix_csr(model.similarity_)
        assert model.similarity_.has_sorted_indices
        assert_bitwise(
            model.similarity_.toarray(), dense_similarity(train, n_neighbors, shrinkage)
        )
        assert (model.similarity_.getnnz(axis=1) <= n_neighbors).all()

    def test_ties_present_in_fixture(self):
        """The tie fixture really has rows whose k-th value is tied."""
        similarity = dense_similarity(tie_heavy_matrix(), 1_000, 0.0)
        kth = -np.partition(-similarity, 3, axis=1)[:, 3]
        assert ((similarity == kth[:, None]).sum(axis=1) > 1).any()

    def test_predict_bitwise_equal(self, learnable_split):
        train = learnable_split.train
        model = ItemKNN(n_neighbors=10).fit(train)
        reference = dense_similarity(train, 10, 10.0)
        users = np.arange(train.n_users)
        batch = model.predict_batch(users)
        expected = np.stack([dense_scores(reference, train.positives(u)) for u in users])
        assert_bitwise(batch, expected)
        for user in (0, 5, train.n_users - 1):
            assert_bitwise(model.predict_user(user), batch[user])

    def test_evaluation_unchanged(self, learnable_split):
        class DenseItemKNN(ItemKNN):
            def fit(self, train, validation=None):
                self._train = train
                self.dense_ = dense_similarity(train, self.n_neighbors, self.shrinkage)
                return self

            def predict_batch(self, users):
                train = self._train
                return np.stack([dense_scores(self.dense_, train.positives(u)) for u in users])

        train = learnable_split.train
        blocked = ItemKNN(n_neighbors=30, shrinkage=5.0).fit(train)
        dense = DenseItemKNN(n_neighbors=30, shrinkage=5.0).fit(train)
        assert (
            evaluate_model(blocked, learnable_split).metrics
            == evaluate_model(dense, learnable_split).metrics
        )


class TestFitMemory:
    def test_fit_allocates_no_dense_square(self):
        """A 8,192-item fit peaks far below one dense 8,192² float64 (512 MiB)."""
        rng = np.random.default_rng(0)
        n_users, n_items, per_user = 2_000, 8_192, 16
        indices = np.concatenate(
            [np.sort(rng.choice(n_items, per_user, replace=False)) for _ in range(n_users)]
        )
        indptr = np.arange(n_users + 1) * per_user
        train = InteractionMatrix(n_users, n_items, indptr, indices)
        tracemalloc.start()
        try:
            model = ItemKNN().fit(train)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"fit peaked at {peak / 2**20:.1f} MiB"
        assert model.similarity_.shape == (n_items, n_items)
        assert model.similarity_.nnz <= 50 * n_items


class TestItemKNNTier:
    """The tier's rankings are bitwise those of the dense row-sum."""

    def expected(self, tier, reference, request):
        history = tier._train_history(request, tier.train)
        return tier._rank(dense_scores(reference, history), request, tier.train)

    def test_rankings_match_dense_row_sum(self, learnable_split):
        train = learnable_split.train
        tier = ItemKNNTier(ItemKNN(n_neighbors=10).fit(train), train)
        reference = dense_similarity(train, 10, 10.0)
        warm = [int(u) for u in np.flatnonzero(train.user_counts() > 0)[:6]]
        requests = [RecommendationRequest(user=u, k=7) for u in warm]
        # A cold user whose history arrives with the request (one item
        # out of the catalog, which the tier ignores).
        requests.append(
            RecommendationRequest(user=train.n_users + 3, k=7, history=(4, 1, 9, 10**6))
        )
        # A warm user with extra request history.
        requests.append(RecommendationRequest(user=warm[0], k=7, history=(2, 3)))
        outcomes = tier.serve_batch(requests)
        for request, ranking in zip(requests, outcomes):
            expected = self.expected(tier, reference, request)
            np.testing.assert_array_equal(ranking, expected)
            np.testing.assert_array_equal(tier.serve(request), expected)

    def test_history_less_request_gets_tier_error_alone(self, learnable_split):
        train = learnable_split.train
        tier = ItemKNNTier(ItemKNN(n_neighbors=10).fit(train), train)
        warm = int(np.flatnonzero(train.user_counts() > 0)[0])
        outcomes = tier.serve_batch(
            [RecommendationRequest(user=train.n_users + 1), RecommendationRequest(user=warm)]
        )
        assert isinstance(outcomes[0], Exception) and "no history" in str(outcomes[0])
        assert len(outcomes[1]) == 5
