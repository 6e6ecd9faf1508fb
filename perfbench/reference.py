"""The benchmark's own reference rankings, computed from the served factors.

Scores are recomputed in float64 from the exact factor values the server
holds, the training positives (and any request history) are excluded,
and items are ordered by score descending, then item id ascending.  A
served ranking passes when it is a valid top-k of those scores up to a
tolerance far below the gap between neighbouring scores: the server
sums in its own order (and in float32 for the store), so exact float
ties are the only place a correct server may order differently.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

#: Ridge fold-in constants of the serving cascade's fold-in tier.
FOLD_IN_WEIGHT = 10.0
FOLD_IN_REG = 0.1
#: Relative score tolerance (float32 sums of 32 terms err near 1e-6).
RELATIVE_TOLERANCE = 1e-5


class Factors:
    """Served factors plus the training matrix, loaded from disk."""

    def __init__(self, user_factors, item_factors, item_bias, indptr, indices):
        self.user_factors = user_factors
        self.item_factors = np.asarray(item_factors, dtype=np.float64)
        self.item_bias = np.asarray(item_bias, dtype=np.float64)
        self.indptr = indptr
        self.indices = indices

    @property
    def n_users(self) -> int:
        return len(self.indptr) - 1

    @property
    def n_items(self) -> int:
        return len(self.item_bias)

    def positives(self, user: int) -> np.ndarray:
        if not 0 <= user < self.n_users:
            return np.zeros(0, dtype=np.int64)
        return self.indices[self.indptr[user]:self.indptr[user + 1]]

    def warm_users(self) -> np.ndarray:
        return np.flatnonzero(np.diff(self.indptr) > 0)

    def user_scores(self, user: int) -> np.ndarray:
        vector = np.asarray(self.user_factors[user], dtype=np.float64)
        return self.item_factors @ vector + self.item_bias

    def fold_in_scores(self, history) -> np.ndarray:
        """Weighted ridge fold-in of ``history`` against the item factors."""
        factors = self.item_factors
        observed = factors[np.unique(np.asarray(history, dtype=np.int64))]
        gram = factors.T @ factors + FOLD_IN_REG * np.eye(factors.shape[1])
        lhs = gram + FOLD_IN_WEIGHT * (observed.T @ observed)
        rhs = (1.0 + FOLD_IN_WEIGHT) * observed.sum(axis=0)
        return factors @ np.linalg.solve(lhs, rhs) + self.item_bias


def load_factors(reference: Path, store_dir: Path | None) -> Factors:
    """Read what the server serves: its dumped arrays, or its store files."""
    arrays = np.load(reference)
    if store_dir is None:
        return Factors(arrays["user_factors"], arrays["item_factors"], arrays["item_bias"],
                       arrays["train_indptr"], arrays["train_indices"])
    import json

    manifest = json.loads((store_dir / "manifest.json").read_text(encoding="utf-8"))
    shards = [np.load(store_dir / entry["file"], mmap_mode="r") for entry in manifest["shards"]]
    users = np.concatenate([np.asarray(shard) for shard in shards], axis=0)
    return Factors(users, np.load(store_dir / manifest["item_factors_file"]),
                   np.load(store_dir / manifest["item_bias_file"]),
                   arrays["train_indptr"], arrays["train_indices"])


def reference_topk(scores: np.ndarray, excluded: np.ndarray, k: int) -> np.ndarray:
    """Top-k ids by score descending, then id ascending, skipping ``excluded``."""
    masked = scores.copy()
    masked[excluded] = -np.inf
    order = np.lexsort((np.arange(len(scores)), -masked))
    allowed = len(scores) - len(np.unique(excluded))
    return order[: min(k, allowed)]


def check_ranking(items, scores: np.ndarray, excluded: np.ndarray, k: int) -> tuple[bool, bool, str]:
    """``(valid, exact, reason)`` for one served ranking."""
    items = np.asarray(items, dtype=np.int64)
    expected = reference_topk(scores, excluded, k)
    if np.array_equal(items, expected):
        return True, True, ""
    if len(items) != len(expected):
        return False, False, f"{len(items)} items, expected {len(expected)}"
    if len(np.unique(items)) != len(items):
        return False, False, "duplicate items"
    if items.min() < 0 or items.max() >= len(scores):
        return False, False, "item id out of range"
    if np.isin(items, excluded).any():
        return False, False, "returned an excluded item"
    tolerance = RELATIVE_TOLERANCE * max(1.0, float(np.abs(scores).max()))
    served = scores[items]
    if np.any(np.diff(served) > tolerance):
        return False, False, "items not in descending score order"
    rest = np.ones(len(scores), dtype=bool)
    rest[excluded] = False
    rest[items] = False
    if rest.any() and served.min() < scores[rest].max() - tolerance:
        return False, False, "a higher-scoring item was left out"
    return True, False, "near-tie ordering"
