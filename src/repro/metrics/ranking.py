"""Rank-biased list metrics: AP, RR, AUC, and rank utilities.

These operate on a *full ranking* of candidate items, represented by a
score vector and a candidate mask; relevant items are the user's test
positives.  For the top-k and rank-position metrics, ties are broken by
(stable) item id so results are deterministic; AUC instead follows the
expectation semantics of BPR's Eq. 1 and credits tied (positive,
negative) score pairs with 0.5 (the midrank Mann-Whitney form), so a
constant score vector scores exactly 0.5.

A user with no relevant items has no defined value under any of these
metrics: AP/RR/AUC return ``NaN`` for an empty ``relevant`` (not 0.0,
which would silently deflate aggregate means), and :func:`mean_metric`
excludes NaN values — the paper's protocol averages only over users
with at least one test positive.
"""

from __future__ import annotations

import numpy as np

from repro.utils.exceptions import DataError


def rank_of_items(
    scores: np.ndarray,
    items: np.ndarray,
    *,
    candidate_mask: np.ndarray | None = None,
) -> np.ndarray:
    """1-based ranks (by descending score) of ``items`` among candidates.

    Parameters
    ----------
    scores:
        Score vector over all items.
    items:
        Item ids whose ranks are requested (must be candidates).
    candidate_mask:
        Boolean mask of items participating in the ranking
        (defaults to all items).
    """
    scores = np.asarray(scores, dtype=np.float64)
    items = np.asarray(items, dtype=np.int64)
    if candidate_mask is None:
        candidate_mask = np.ones(len(scores), dtype=bool)
    if not np.all(candidate_mask[items]):
        raise DataError("requested rank of an item outside the candidate set")
    order = np.argsort(-scores, kind="stable")
    order = order[candidate_mask[order]]
    ranks = np.empty(len(scores), dtype=np.int64)
    ranks.fill(-1)
    ranks[order] = np.arange(1, len(order) + 1)
    return ranks[items]


def average_precision(
    scores: np.ndarray,
    relevant: np.ndarray,
    *,
    candidate_mask: np.ndarray | None = None,
) -> float:
    """Average precision of the full candidate ranking (Eq. 8).

    ``AP_u = (1 / n_u+) * sum_i precision@rank(i)`` over relevant ``i``.
    ``NaN`` for an empty ``relevant`` (undefined, excluded from means).
    """
    relevant = np.asarray(relevant, dtype=np.int64)
    if len(relevant) == 0:
        return float("nan")
    ranks = np.sort(rank_of_items(scores, relevant, candidate_mask=candidate_mask))
    precisions = np.arange(1, len(ranks) + 1, dtype=np.float64) / ranks
    return float(precisions.mean())


def reciprocal_rank(
    scores: np.ndarray,
    relevant: np.ndarray,
    *,
    candidate_mask: np.ndarray | None = None,
) -> float:
    """Reciprocal of the best (smallest) rank of any relevant item (Eq. 5).

    ``NaN`` for an empty ``relevant`` (undefined, excluded from means).
    """
    relevant = np.asarray(relevant, dtype=np.int64)
    if len(relevant) == 0:
        return float("nan")
    ranks = rank_of_items(scores, relevant, candidate_mask=candidate_mask)
    return float(1.0 / ranks.min())


def area_under_curve(
    scores: np.ndarray,
    relevant: np.ndarray,
    *,
    candidate_mask: np.ndarray | None = None,
) -> float:
    """AUC: probability a relevant candidate outranks an irrelevant one (Eq. 1).

    Computed in the midrank Mann-Whitney form: each (positive,
    negative) pair contributes 1 when the positive scores strictly
    higher, 0.5 when the scores are tied, and 0 otherwise — the
    expectation semantics of BPR's Eq. 1.  (The stable item-id
    tie-break the *ranking* metrics use would award tied pairs full or
    zero credit depending on item order; under it a constant scorer
    could score anywhere in [0, 1] instead of the correct 0.5.)

    ``NaN`` for an empty ``relevant`` (undefined, excluded from means);
    0.0 when there are no negative candidates (no pairs to rank).
    """
    scores = np.asarray(scores, dtype=np.float64)
    relevant = np.asarray(relevant, dtype=np.int64)
    if candidate_mask is None:
        candidate_mask = np.ones(len(scores), dtype=bool)
    n_candidates = int(candidate_mask.sum())
    n_pos = len(relevant)
    n_neg = n_candidates - n_pos
    if n_pos == 0:
        return float("nan")
    if not np.all(candidate_mask[relevant]):
        raise DataError("requested rank of an item outside the candidate set")
    if n_neg <= 0:
        return 0.0
    # For each positive, the negatives scoring strictly below it plus
    # half those tying it, via two searchsorted passes: one against all
    # candidates, one against the positives, whose difference isolates
    # the negatives.
    candidate_sorted = np.sort(scores[candidate_mask])
    positive_scores = scores[relevant]
    positive_sorted = np.sort(positive_scores)
    below_all = np.searchsorted(candidate_sorted, positive_scores, side="left")
    tied_all = np.searchsorted(candidate_sorted, positive_scores, side="right") - below_all
    below_pos = np.searchsorted(positive_sorted, positive_scores, side="left")
    tied_pos = np.searchsorted(positive_sorted, positive_scores, side="right") - below_pos
    below_neg = below_all - below_pos
    tied_neg = tied_all - tied_pos
    correct = float(below_neg.sum()) + 0.5 * float(tied_neg.sum())
    return correct / (n_pos * n_neg)


def mean_metric(values) -> float:
    """Mean of per-user metric values, excluding undefined (NaN) entries.

    Per-user metrics return ``NaN`` for users with no relevant items;
    those users carry no information and must not deflate the mean
    (the paper evaluates only users with >= 1 test pair).  0.0 when no
    defined values remain.
    """
    values = np.asarray(list(values), dtype=np.float64)
    values = values[~np.isnan(values)]
    if values.size == 0:
        return 0.0
    return float(values.mean())
