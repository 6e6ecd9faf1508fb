"""Compressed sparse implicit-feedback interaction matrix.

The whole library operates on one data structure: a binary user-item
matrix ``Y`` with ``Y[u, i] = 1`` iff user ``u`` gave positive implicit
feedback on item ``i`` (a transaction, thumb-up, watch, ...).  It is
stored CSR-style (row pointer + sorted column indices) which gives:

* ``O(1)`` access to each user's positive-item array (``positives``),
* ``O(log n_u+)`` membership tests (``contains``),
* cheap popularity / degree statistics for samplers and baselines.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.utils.exceptions import DataError


class InteractionMatrix:
    """Binary implicit-feedback matrix in CSR form.

    Parameters
    ----------
    n_users, n_items:
        Matrix dimensions. Users and items are dense integer ids in
        ``[0, n_users)`` / ``[0, n_items)``.
    indptr:
        ``int64`` array of length ``n_users + 1``; user ``u``'s positive
        items are ``indices[indptr[u]:indptr[u + 1]]``.
    indices:
        ``int64`` array of item ids, sorted ascending within each user,
        without duplicates.
    """

    __slots__ = ("n_users", "n_items", "indptr", "indices", "_item_counts")

    def __init__(self, n_users: int, n_items: int, indptr: np.ndarray, indices: np.ndarray):
        if n_users < 0 or n_items < 0:
            raise DataError(f"negative dimensions: ({n_users}, {n_items})")
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.shape != (n_users + 1,):
            raise DataError(f"indptr must have length n_users+1={n_users + 1}, got {indptr.shape}")
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise DataError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise DataError("indptr must be non-decreasing")
        if len(indices) and (indices.min() < 0 or indices.max() >= n_items):
            raise DataError("item indices out of range")
        self.n_users = int(n_users)
        self.n_items = int(n_items)
        self.indptr = indptr
        self.indices = indices
        self._item_counts: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[tuple[int, int]] | np.ndarray,
        n_users: int | None = None,
        n_items: int | None = None,
    ) -> "InteractionMatrix":
        """Build from an iterable of ``(user, item)`` pairs.

        Duplicate pairs collapse to a single interaction. Dimensions
        default to ``max id + 1``.
        """
        arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise DataError(f"pairs must be (N, 2) shaped, got {arr.shape}")
        if arr.size and arr.min() < 0:
            raise DataError("pair ids must be non-negative")
        if n_users is None:
            n_users = int(arr[:, 0].max()) + 1 if len(arr) else 0
        if n_items is None:
            n_items = int(arr[:, 1].max()) + 1 if len(arr) else 0
        if len(arr):
            if arr[:, 0].max() >= n_users:
                raise DataError("user id exceeds n_users")
            if arr[:, 1].max() >= n_items:
                raise DataError("item id exceeds n_items")
            # Sort by (user, item), then drop duplicates.
            order = np.lexsort((arr[:, 1], arr[:, 0]))
            arr = arr[order]
            keep = np.ones(len(arr), dtype=bool)
            keep[1:] = np.any(arr[1:] != arr[:-1], axis=1)
            arr = arr[keep]
        counts = np.bincount(arr[:, 0], minlength=n_users) if len(arr) else np.zeros(n_users, dtype=np.int64)
        indptr = np.zeros(n_users + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(n_users, n_items, indptr, arr[:, 1].copy())

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "InteractionMatrix":
        """Build from a dense 0/1 matrix (rows = users)."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise DataError(f"dense matrix must be 2-D, got {dense.ndim}-D")
        users, items = np.nonzero(dense)
        pairs = np.stack([users, items], axis=1)
        return cls.from_pairs(pairs, n_users=dense.shape[0], n_items=dense.shape[1])

    @classmethod
    def empty(cls, n_users: int, n_items: int) -> "InteractionMatrix":
        """An all-zeros interaction matrix."""
        return cls(n_users, n_items, np.zeros(n_users + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))

    # ------------------------------------------------------------------
    # Core accessors
    # ------------------------------------------------------------------
    @property
    def n_interactions(self) -> int:
        """Total number of positive user-item pairs."""
        return len(self.indices)

    @property
    def density(self) -> float:
        """Fraction of the matrix that is observed positive."""
        cells = self.n_users * self.n_items
        return self.n_interactions / cells if cells else 0.0

    def positives(self, user: int) -> np.ndarray:
        """Sorted array of item ids user ``user`` interacted with (a view)."""
        return self.indices[self.indptr[user] : self.indptr[user + 1]]

    def n_positives(self, user: int) -> int:
        """``n_u+``: the number of observed items for ``user``."""
        return int(self.indptr[user + 1] - self.indptr[user])

    def user_counts(self) -> np.ndarray:
        """Per-user positive counts as an array of length ``n_users``."""
        return np.diff(self.indptr)

    def item_counts(self) -> np.ndarray:
        """Per-item popularity (number of users who interacted)."""
        if self._item_counts is None:
            self._item_counts = np.bincount(self.indices, minlength=self.n_items)
        return self._item_counts

    def contains(self, user: int, item: int) -> bool:
        """Whether ``(user, item)`` is an observed positive pair."""
        row = self.positives(user)
        pos = np.searchsorted(row, item)
        return bool(pos < len(row) and row[pos] == item)

    def contains_batch(self, user: int, items: np.ndarray) -> np.ndarray:
        """Vectorized membership test of ``items`` in user's positives."""
        row = self.positives(user)
        items = np.asarray(items)
        pos = np.searchsorted(row, items)
        pos = np.minimum(pos, max(len(row) - 1, 0))
        if len(row) == 0:
            return np.zeros(items.shape, dtype=bool)
        return row[pos] == items

    def pairs(self) -> np.ndarray:
        """All observed pairs as an ``(N, 2)`` array ``[user, item]``."""
        users = np.repeat(np.arange(self.n_users, dtype=np.int64), self.user_counts())
        return np.stack([users, self.indices], axis=1)

    def iter_users(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(user, positives)`` for users with at least one positive."""
        for user in range(self.n_users):
            row = self.positives(user)
            if len(row):
                yield user, row

    def to_dense(self) -> np.ndarray:
        """Materialize the full 0/1 matrix (only for small datasets)."""
        dense = np.zeros((self.n_users, self.n_items), dtype=np.int8)
        users = np.repeat(np.arange(self.n_users), self.user_counts())
        dense[users, self.indices] = 1
        return dense

    def mask_matrix(self) -> np.ndarray:
        """Boolean version of :meth:`to_dense` (observed = True)."""
        return self.to_dense().astype(bool)

    def transpose(self) -> "InteractionMatrix":
        """The item-major view: an ``(n_items, n_users)`` matrix whose
        row ``i`` lists the users who interacted with item ``i``.

        Used wherever per-item user lists are needed (GBPR's group
        sampling, item-based models).
        """
        swapped = self.pairs()[:, ::-1]
        return InteractionMatrix.from_pairs(swapped, self.n_items, self.n_users)

    # ------------------------------------------------------------------
    # Set algebra (used by splitters and evaluators)
    # ------------------------------------------------------------------
    def union(self, other: "InteractionMatrix") -> "InteractionMatrix":
        """Pairwise union of two matrices over the same id space."""
        self._check_same_shape(other)
        combined = np.concatenate([self.pairs(), other.pairs()], axis=0)
        return InteractionMatrix.from_pairs(combined, self.n_users, self.n_items)

    def difference(self, other: "InteractionMatrix") -> "InteractionMatrix":
        """Pairs present in ``self`` but not in ``other``."""
        self._check_same_shape(other)
        keep = ~np.isin(self._pair_keys(), other._pair_keys(), assume_unique=True)
        return InteractionMatrix.from_pairs(self.pairs()[keep], self.n_users, self.n_items)

    def intersects(self, other: "InteractionMatrix") -> bool:
        """Whether the two matrices share any observed pair."""
        self._check_same_shape(other)
        return bool(np.isin(self._pair_keys(), other._pair_keys(), assume_unique=True).any())

    def _pair_keys(self) -> np.ndarray:
        """Every pair encoded as ``user * n_items + item``, ascending (CSR order)."""
        users = np.repeat(np.arange(self.n_users, dtype=np.int64), self.user_counts())
        return users * self.n_items + self.indices

    def _check_same_shape(self, other: "InteractionMatrix") -> None:
        if (self.n_users, self.n_items) != (other.n_users, other.n_items):
            raise DataError(
                f"shape mismatch: ({self.n_users}, {self.n_items}) vs ({other.n_users}, {other.n_items})"
            )

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, InteractionMatrix):
            return NotImplemented
        return (
            self.n_users == other.n_users
            and self.n_items == other.n_items
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self):  # pragma: no cover - explicit: mutable-ish container
        raise TypeError("InteractionMatrix is not hashable")

    def __repr__(self) -> str:
        return (
            f"InteractionMatrix(n_users={self.n_users}, n_items={self.n_items}, "
            f"n_interactions={self.n_interactions}, density={self.density:.4%})"
        )
