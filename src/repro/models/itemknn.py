"""ItemKNN — item-based top-N recommendation (Deshpande & Karypis, TOIS 2004).

The paper cites item-based top-N methods ([18]) as the classic top-k
recommenders that motivated rank-aware evaluation.  This implementation
scores an item for a user by the summed cosine similarity between the
item and the user's historical items, keeping only each item's ``k``
nearest neighbours (the standard sparsification that makes the method
competitive).

The similarity is an ``(m, m)`` CSR matrix with at most ``k`` entries
per row, fitted in row blocks of :data:`BLOCK_ENTRIES` dense entries:
the kept memory is O(k·m) and the transient memory one block, so no
``m × m`` array exists at any point.  Each block computes exactly the
dense cosine formulation's rows, so every kept entry is bitwise what a
dense fit would keep.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import sparse

from repro.data.interactions import InteractionMatrix
from repro.models.base import Recommender
from repro.utils.exceptions import ConfigError

#: Dense float64 entries per fitted row block (8 MiB); a block spans
#: ``max(1, BLOCK_ENTRIES // n_items)`` items.
BLOCK_ENTRIES = 1 << 20


class ItemKNN(Recommender):
    """Cosine item-item nearest-neighbour recommender.

    ``similarity_`` is a CSR matrix holding each item's top
    ``n_neighbors`` nonzero cosine similarities; scoring is one sparse
    history-by-similarity product.

    Parameters
    ----------
    n_neighbors:
        Neighbours kept per item (rows of the similarity matrix are
        truncated to their top ``n_neighbors`` entries).
    shrinkage:
        Additive shrinkage in the cosine denominator, damping
        similarities supported by few co-occurrences.
    """

    def __init__(self, n_neighbors: int = 50, shrinkage: float = 10.0):
        super().__init__()
        if n_neighbors < 1:
            raise ConfigError(f"n_neighbors must be >= 1, got {n_neighbors}")
        if shrinkage < 0:
            raise ConfigError(f"shrinkage must be >= 0, got {shrinkage}")
        self.n_neighbors = n_neighbors
        self.shrinkage = shrinkage
        self.similarity_: sparse.csr_matrix | None = None

    @property
    def name(self) -> str:
        return "ItemKNN"

    def fit(self, train: InteractionMatrix, validation: InteractionMatrix | None = None) -> "ItemKNN":
        self._train = train
        n, m = train.n_users, train.n_items
        users = np.repeat(np.arange(n), train.user_counts())
        matrix = sparse.csr_matrix(
            (np.ones(train.n_interactions), (users, train.indices)), shape=(n, m)
        )
        item_major = matrix.T.tocsr()
        # sqrt(diag(co-occurrence)) without forming it: exact integer sums.
        norms = np.sqrt(np.asarray(item_major.multiply(item_major).sum(axis=1)).ravel())
        step = max(1, BLOCK_ENTRIES // max(m, 1))
        empty = np.zeros(0, dtype=np.int64)
        rows, columns, values = [empty], [empty], [np.zeros(0)]
        for start in range(0, m, step):
            row, column, value = self._top_k_rows(
                item_major[start : start + step] @ matrix, norms, start
            )
            rows.append(start + row)
            columns.append(column)
            values.append(value)
        self.similarity_ = sparse.csr_matrix(
            (np.concatenate(values), (np.concatenate(rows), np.concatenate(columns))),
            shape=(m, m),
        )
        return self

    def _top_k_rows(self, co_rows: sparse.csr_matrix, norms: np.ndarray, start: int):
        """The kept ``(row, column, value)`` entries of one row block.

        ``co_rows`` holds the co-occurrence rows of items ``start``
        onwards; each row is computed exactly as in the dense m×m
        formulation, so the kept set and its bits are that formulation's.
        """
        co_counts = co_rows.toarray()
        block, m = co_counts.shape
        denominator = norms[start : start + block, None] * norms[None, :] + self.shrinkage
        similarity = np.divide(
            co_counts, denominator, out=np.zeros_like(co_counts), where=denominator > 0
        )
        del co_counts, denominator
        local = np.arange(block)
        similarity[local, start + local] = 0.0
        if self.n_neighbors >= m - 1:
            row, column = np.nonzero(similarity)
            return row, column, similarity[row, column]
        # Keep exactly each item's top-k neighbours (ties broken by
        # argpartition order, which depends on the row alone).
        keep = np.argpartition(-similarity, self.n_neighbors, axis=1)[:, : self.n_neighbors]
        keep.sort(axis=1)
        kept = np.take_along_axis(similarity, keep, axis=1)
        row, slot = np.nonzero(kept)
        return row, keep[row, slot], kept[row, slot]

    def predict_user(self, user: int) -> np.ndarray:
        return self.predict_batch([user])[0]

    def predict_batch(self, users) -> np.ndarray:
        """Batch scoring via one sparse history-by-similarity product."""
        train = self._require_fitted()
        return self.score_histories([train.positives(int(user)) for user in users])

    def score_histories(self, histories: Sequence[np.ndarray]) -> np.ndarray:
        """One dense score row per item-id history, in one CSR product.

        scipy's CSR product accumulates each output column over a row's
        history items in stored order, starting from zero — the same
        sequential reduction as the dense ``similarity[history].sum(
        axis=0)`` — so every score is bitwise that formula's (histories
        without items score zero).
        """
        indptr = np.zeros(len(histories) + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([len(history) for history in histories])
        columns = np.concatenate([np.zeros(0, dtype=np.int64), *histories])
        history = sparse.csr_matrix(
            (np.ones(len(columns)), columns, indptr),
            shape=(len(histories), self.similarity_.shape[0]),
        )
        return (history @ self.similarity_).toarray()
