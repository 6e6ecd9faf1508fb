"""Top-k recommendation metrics.

All functions take a *ranked list* of recommended item ids (best first,
already truncated or truncatable to ``k``) and the set/array of relevant
(test-positive) items, and return a float in ``[0, 1]``.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.scoring import topk_from_matrix
from repro.utils.exceptions import ConfigError


def _as_relevant_set(relevant) -> set:
    if isinstance(relevant, set):
        return relevant
    return set(int(x) for x in np.asarray(relevant).ravel())


def _check_k(k: int) -> int:
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    return k


def top_k_items(scores: np.ndarray, k: int, *, exclude: np.ndarray | None = None) -> np.ndarray:
    """Indices of the ``k`` highest-scoring items, best first, ties by item id.

    A one-row call into :func:`repro.metrics.scoring.topk_from_matrix`,
    the library's one top-k kernel.

    Parameters
    ----------
    scores:
        Score vector over all items.
    exclude:
        Item ids to remove from consideration (e.g. training positives);
        they are scored ``-inf``.
    """
    _check_k(k)
    scores = np.asarray(scores, dtype=np.float64)
    if exclude is not None and len(exclude):
        scores = scores.copy()
        scores[np.asarray(exclude, dtype=np.int64)] = -np.inf
    return topk_from_matrix(scores[None, :], k)[0]


def hits_at_k(recommended: np.ndarray, relevant, k: int) -> int:
    """Number of relevant items in the first ``k`` recommendations."""
    _check_k(k)
    rel = _as_relevant_set(relevant)
    return sum(1 for item in np.asarray(recommended)[:k] if int(item) in rel)


def precision_at_k(recommended: np.ndarray, relevant, k: int) -> float:
    """Fraction of the top-k recommendations that are relevant."""
    return hits_at_k(recommended, relevant, k) / k


def recall_at_k(recommended: np.ndarray, relevant, k: int) -> float:
    """Fraction of relevant items retrieved within the top k."""
    rel = _as_relevant_set(relevant)
    if not rel:
        return 0.0
    return hits_at_k(recommended, rel, k) / len(rel)


def f1_at_k(recommended: np.ndarray, relevant, k: int) -> float:
    """Harmonic mean of precision@k and recall@k."""
    precision = precision_at_k(recommended, relevant, k)
    recall = recall_at_k(recommended, relevant, k)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def one_call_at_k(recommended: np.ndarray, relevant, k: int) -> float:
    """1-call@k: 1 if at least one top-k recommendation is relevant."""
    return 1.0 if hits_at_k(recommended, relevant, k) > 0 else 0.0


def ndcg_at_k(recommended: np.ndarray, relevant, k: int) -> float:
    """Normalized discounted cumulative gain with binary relevance.

    ``DCG@k = sum_{p=1}^{k} rel_p / log2(p + 1)``, normalized by the
    ideal DCG of placing ``min(k, |relevant|)`` hits at the top.
    """
    _check_k(k)
    rel = _as_relevant_set(relevant)
    if not rel:
        return 0.0
    recommended = np.asarray(recommended)[:k]
    gains = np.fromiter((1.0 if int(i) in rel else 0.0 for i in recommended), dtype=np.float64)
    discounts = 1.0 / np.log2(np.arange(2, len(gains) + 2))
    dcg = float(gains @ discounts)
    ideal_hits = min(k, len(rel))
    idcg = float(np.sum(1.0 / np.log2(np.arange(2, ideal_hits + 2))))
    # min() guards the perfect-ranking case against float summation
    # pushing the ratio infinitesimally above 1.
    return min(dcg / idcg, 1.0)
