"""Batched scoring engine: deterministic chunked kernels for ranking.

This module is the shared substrate behind the full-ranking
:class:`~repro.metrics.evaluator.Evaluator`, ``validation_ndcg`` early
stopping, ``recommend_batch`` serving, the DSS factor-ranking refresh
and fold-in scoring.  Everything here obeys one contract:

    **chunk invariance** — for any row ``r``, the result computed in a
    batch of ``B`` rows is bitwise identical to the result computed for
    ``r`` alone.

That property is what lets the evaluator shard users into chunks (and
across threads) while reproducing the sequential per-user protocol
*exactly*, not approximately.  It rules out a straight GEMM over the
whole batch for the ``U V^T`` score matrix: BLAS picks its blocking
and micro-kernels from the number of rows, so ``(U[users] @ V.T)[0]``
need not equal ``U[users[0]] @ V.T`` in the last bits.
:func:`linear_scores` — the one factor-scoring kernel in the library —
therefore never lets BLAS see the batch size: it zero-pads the rows to
a multiple of :data:`BLOCK` and runs one GEMM per fixed ``BLOCK``-row
block, so every call BLAS makes has the same shape whatever the batch.  A
call smaller than :data:`ONE_THREAD_BELOW` runs its blocks on one BLAS
thread (:func:`repro.utils.blas.one_blas_thread`); the bits are the
same on any thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.data.interactions import InteractionMatrix
from repro.utils.blas import one_blas_thread
from repro.utils.exceptions import ConfigError

BatchScoreFunction = Callable[[np.ndarray], np.ndarray]
"""``f(users) -> (len(users), n_items)`` score matrix."""

LEGACY_CALLABLE_MESSAGE = (
    "bare per-user score callables are no longer accepted; pass a fitted "
    "Recommender (or any object exposing predict_batch(users) or "
    "predict_user(user)). Migration: wrap the callable in a class with a "
    "`predict_user(self, user)` method (or use "
    "types.SimpleNamespace(predict_user=fn))"
)


# ----------------------------------------------------------------------
# Scoring kernels
# ----------------------------------------------------------------------
BLOCK = 8
"""Rows per GEMM in :func:`linear_scores`.

A fixed block shape makes BLAS run the same code for every block, but
a row's bits may still depend on its *position* inside the block: with
16- or 32-row float64 blocks, OpenBLAS (SkylakeX kernels) computes rows
12–15 of a block differently in the tail columns, and at 3500 x 20 the
result changes with the BLAS thread count.  Eight rows is invariant in
every shape, offset, dtype and thread count that
``tests/test_scoring_kernel.py`` tries; that test fails at 16.
"""

ONE_THREAD_BELOW = 1 << 22
"""Multiply-adds of one :func:`linear_scores` call (padded rows x
``n_items`` x ``d``) below which its block GEMMs run on one BLAS thread.

A serving request scores one block: on the narrow model an 8 x 3,500 x
20 GEMM, which is above OpenBLAS's own threading threshold, so each one
woke the library's second thread, which then busy-waited for the next
job.  Under ``serve-mixed-rw`` load a request arrives about every
millisecond, so that thread never slept: it used 9.0-9.8 s of user CPU
in every 10 s window, in state ``R``, on a 2-vCPU host where the event
loop, the serving thread and the load driver share the other vCPU.  On
one thread it uses none, and that workload's throughput rose 11-29 %.

The bound is on the whole call, not on one block, because the second
thread pays for itself when it has work: the 8 x 32,768 x 32 float32
GEMM of ``serve-zipf-wide`` (2^23) lost 12 % of that workload's
throughput on one thread, and a serial evaluation pass on the
``train-dss`` model, whose chunks run 128 blocks back to back,
took 3-9 % longer.  At ``BLOCK`` = 8 rows the scores are bitwise the
same either way.
"""


def linear_scores(
    user_vectors: np.ndarray,
    item_factors: np.ndarray,
    item_bias: np.ndarray | None = None,
) -> np.ndarray:
    """Batched ``U V^T (+ b)`` with a chunk-invariant reduction.

    Parameters
    ----------
    user_vectors:
        ``(B, d)`` user vectors (or a single ``(d,)`` vector).
    item_factors:
        ``(n_items, d)`` item matrix ``V``.
    item_bias:
        Optional ``(n_items,)`` bias added to every row.

    Returns the ``(B, n_items)`` score matrix (``(n_items,)`` for a
    single vector) in ``np.result_type(user_vectors, item_factors)``.
    The rows are zero-padded to a multiple of :data:`BLOCK` and scored
    one ``BLOCK``-row GEMM at a time against a C-contiguous ``V``, so
    each output row is bitwise independent of the batch it was computed
    in, of its position in that batch and of ``V``'s memory layout —
    see the module docstring.  When the call is smaller than
    :data:`ONE_THREAD_BELOW`, the block loop runs on one BLAS thread
    and the previous count is restored afterwards; that keeps
    OpenBLAS's worker from spinning between small calls and does not
    change the bits.
    """
    user_vectors = np.asarray(user_vectors)
    single = user_vectors.ndim == 1
    if single:
        user_vectors = user_vectors[None, :]
    dtype = np.result_type(user_vectors, item_factors)
    items_t = np.ascontiguousarray(item_factors, dtype=dtype).T
    n_rows = len(user_vectors)
    padded = np.zeros((-(-n_rows // BLOCK) * BLOCK, user_vectors.shape[1]), dtype=dtype)
    padded[:n_rows] = user_vectors
    scores = np.empty((len(padded), items_t.shape[1]), dtype=dtype)
    small = len(padded) * items_t.size < ONE_THREAD_BELOW
    with one_blas_thread() if small else nullcontext():
        for start in range(0, len(padded), BLOCK):
            np.matmul(padded[start : start + BLOCK], items_t, out=scores[start : start + BLOCK])
    scores = scores[:n_rows]
    if item_bias is not None:
        scores += item_bias
    return scores[0] if single else scores


def as_batch_scorer(model) -> BatchScoreFunction:
    """Adapt ``model`` to a ``users -> (B, n_items)`` scoring function.

    Accepted, in order of preference:

    1. an object with ``predict_batch(users)`` (the Recommender API) —
       used directly;
    2. an object with ``predict_user(user)`` — wrapped in a stacking
       adapter (one Python call per user; correct but slow).

    Bare ``user -> scores`` callables, deprecated since the batched
    engine landed, are now rejected with a :class:`TypeError` carrying
    a migration hint.
    """
    predict_batch = getattr(model, "predict_batch", None)
    if callable(predict_batch):
        return predict_batch
    predict_user = getattr(model, "predict_user", None)
    if callable(predict_user):
        return _stacking_adapter(predict_user, model)
    if callable(model):
        raise TypeError(LEGACY_CALLABLE_MESSAGE)
    raise ConfigError(
        f"model {model!r} is not evaluable: needs predict_batch(users) "
        "or a predict_user(user) method"
    )


def _stacking_adapter(
    predict_user: Callable[[int], np.ndarray], model=None
) -> BatchScoreFunction:
    # The stacked rows follow the model's declared dtype policy rather
    # than an unconditional float64: a float32 store-backed model keeps
    # its float32 scores (no silent upcast doubling the batch memory),
    # while the paper-protocol default remains bitwise float64.
    from repro.store.dtype import resolve_scoring_dtype

    dtype = resolve_scoring_dtype(model if model is not None else predict_user)

    def scorer(users: np.ndarray) -> np.ndarray:
        return np.stack([np.asarray(predict_user(int(user)), dtype=dtype) for user in users])

    return scorer


# ----------------------------------------------------------------------
# Chunking / parallelism
# ----------------------------------------------------------------------
def iter_user_chunks(users: np.ndarray, chunk_size: int) -> list[np.ndarray]:
    """Split ``users`` into consecutive chunks of at most ``chunk_size``."""
    if chunk_size < 1:
        raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
    users = np.asarray(users, dtype=np.int64)
    return [users[start : start + chunk_size] for start in range(0, len(users), chunk_size)]


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` knob: ``None``/1 serial, ``-1`` = all cores."""
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs == -1:
        return os.cpu_count() or 1
    if n_jobs < 1:
        raise ConfigError(f"n_jobs must be >= 1 or -1, got {n_jobs}")
    return n_jobs


def map_chunks(fn: Callable, chunks: Sequence, n_jobs: int | None = None) -> list:
    """``[fn(c) for c in chunks]``, optionally on a thread pool.

    Results come back in input order.  Threads (not processes) because
    the heavy work — the block GEMMs, argpartition, sparse matmul — runs
    in C with the GIL released, and the model parameters are shared
    read-only without pickling.  Each chunk is independent and every
    kernel is chunk-invariant, so the result is identical for any
    ``n_jobs``.
    """
    n_jobs = resolve_n_jobs(n_jobs)
    if n_jobs == 1 or len(chunks) <= 1:
        return [fn(chunk) for chunk in chunks]
    with ThreadPoolExecutor(max_workers=min(n_jobs, len(chunks))) as pool:
        return list(pool.map(fn, chunks))


# ----------------------------------------------------------------------
# Mask / top-k / rank primitives on a chunk matrix
# ----------------------------------------------------------------------
def positives_pairs(
    matrix: InteractionMatrix, users: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, items)`` of each user's positives, read straight from the CSR.

    ``rows[t]`` indexes ``users`` and ascends; each row's items keep the
    CSR order.  Vectorized gather: no per-user Python loop.
    """
    users = np.asarray(users, dtype=np.int64)
    counts = matrix.user_counts()[users]
    total = int(counts.sum())
    rows = np.repeat(np.arange(len(users), dtype=np.int64), counts)
    # Offset of each interaction inside its own user's row.
    offsets = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    items = matrix.indices[np.repeat(matrix.indptr[users], counts) + offsets]
    return rows, items


def positives_mask(
    matrix: InteractionMatrix,
    users: np.ndarray,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Boolean ``(len(users), n_items)`` matrix of each user's positives.

    Vectorized CSR scatter of :func:`positives_pairs` (ORed into ``out``
    when given).
    """
    if out is None:
        out = np.zeros((len(users), matrix.n_items), dtype=bool)
    rows, items = positives_pairs(matrix, users)
    out[rows, items] = True
    return out


def topk_from_matrix(scores: np.ndarray, k: int) -> np.ndarray:
    """Row-wise top-``k`` item ids, best first, ties broken by item id.

    Deterministic for *every* ``k``: the ranking is the first ``k``
    entries of the stable full sort (score descending, item id
    ascending among ties), so ``topk(k)`` is always a prefix of
    ``topk(n_items)`` — the property that keeps the dense path and the
    truncated emergency ranking in exact agreement on tied scores.

    Both ``k`` boundaries are clamped deterministically rather than fed
    to ``argpartition`` raw: ``k == 0`` returns an empty ``(B, 0)``
    ranking (``kth = -1`` would partition around the *largest* element
    — the wrong end), and ``k >= n_items`` skips the partition entirely
    in favor of one stable full sort (``kth = n_items`` and beyond
    raises inside numpy).  Negative ``k`` is still a
    :class:`~repro.utils.exceptions.ConfigError`.

    Implementation: ``k < n_items`` takes the O(n) argpartition, then
    (a) sorts each row's survivors ascending before the stable
    score-sort so within-top ties come out id-ascending, and (b) redoes
    — with the full sort — only the rows where more than ``k`` items
    tie at the boundary score or the boundary score is NaN, where
    argpartition's *selection* (not just its order) is unspecified.
    Non-degenerate rows never pay the O(n log n) fallback.

    This is the one top-k kernel: serving, ``top_k_items``, the
    sequential evaluator and ``validation_ndcg`` rank through it.  The
    batched evaluator takes its top-k hits from
    :attr:`CandidateRanks.positions` instead, which index the same
    stable order.
    """
    if k < 0:
        raise ConfigError(f"k must be >= 0, got {k}")
    n_items = scores.shape[1]
    if k == 0 or n_items == 0:
        return np.zeros((scores.shape[0], 0), dtype=np.int64)
    if k >= n_items:
        return np.argsort(-scores, axis=1, kind="stable")
    top = np.argpartition(-scores, k - 1, axis=1)[:, :k]
    top.sort(axis=1)
    top_scores = np.take_along_axis(scores, top, axis=1)
    order = np.argsort(-top_scores, axis=1, kind="stable")
    top = np.take_along_axis(top, order, axis=1)
    boundary = np.take_along_axis(scores, top[:, -1:], axis=1)
    # A NaN boundary compares False with everything, so test it directly:
    # which NaNs argpartition kept is as unspecified as any other tie.
    ambiguous = np.flatnonzero(
        ((scores >= boundary).sum(axis=1) > k) | np.isnan(boundary[:, 0])
    )
    if len(ambiguous):
        top[ambiguous] = np.argsort(-scores[ambiguous], axis=1, kind="stable")[:, :k]
    return top


class CandidateRanks(NamedTuple):
    """Per-entry counts from one row sort (see :func:`candidate_ranks`)."""

    ranks: np.ndarray
    """1-based rank among the row's candidates: descending score, ties
    by item id, NaN last (the stable ``argsort(-scores)`` order)."""
    positions: np.ndarray
    """1-based position in the row's full ranking with the excluded
    items scored ``-inf`` — the stable order whose first ``k`` entries
    :func:`topk_from_matrix` returns."""
    below: np.ndarray
    """Candidates scoring strictly below the entry (NaN counts as the
    largest value, as in ``np.searchsorted``)."""
    tied: np.ndarray
    """Candidates tying the entry's score, itself included."""


def segmented_searchsorted(
    sorted_rows: np.ndarray, rows: np.ndarray, values: np.ndarray, side: str = "left"
) -> np.ndarray:
    """``np.searchsorted(sorted_rows[rows[t]], values[t], side)`` for every ``t`` at once.

    One fixed ``n.bit_length()``-step binary search over all entries,
    each confined to its row's slice of the flattened matrix (``n`` =
    row length).  NaN is the largest value on both sides, as in numpy:
    ``left`` counts the row entries strictly below the value (a NaN
    value: every non-NaN entry), ``right`` those at or below it (a NaN
    value: the whole row).
    """
    n = sorted_rows.shape[1]
    flat = np.ascontiguousarray(sorted_rows).reshape(-1)
    base = np.asarray(rows, dtype=np.int64) * n - 1
    values = np.asarray(values)
    value_nan = np.isnan(values)
    found = np.zeros(len(values), dtype=np.int64)
    step = (1 << n.bit_length()) >> 1
    while step:
        probe = found + step
        inside = probe <= n
        probed = flat[base + np.minimum(probe, n)]
        if side == "left":
            below = (probed < values) | (value_nan & ~np.isnan(probed))
        else:
            below = (probed <= values) | value_nan
        found += step * (inside & below)
        step >>= 1
    return found


def candidate_ranks(
    scores: np.ndarray,
    rows: np.ndarray,
    items: np.ndarray,
    excluded: np.ndarray,
    n_excluded: np.ndarray,
) -> CandidateRanks:
    """Ranks and score counts of ``(rows[t], items[t])`` among each row's candidates.

    ``scores`` is the chunk score matrix (read only), ``excluded`` marks
    the items that are not candidates (``n_excluded`` counts them per
    row), and every ``(rows[t], items[t])`` must be a candidate.  The
    masked matrix — excluded items at ``-inf`` — is built and sorted
    row-wise once, in place; one :func:`segmented_searchsorted` per
    side then gives every entry the counts of items strictly below and
    at-or-below its score.  Everything else follows from those counts:

    * ``ranks`` reproduce :func:`repro.metrics.ranking.rank_of_items`
      without its per-user stable argsort: only entries tied with
      another item pay for an exact count of the tied candidates before
      them;
    * ``positions`` move the ranks into the masked ranking that
      :func:`topk_from_matrix` truncates, so top-k hits need no second
      top-k pass: a NaN entry ranks after every excluded ``-inf`` item,
      and a ``-inf`` entry after the excluded items with a smaller id;
    * ``below`` / ``tied`` are the candidate-only counts
      :func:`repro.metrics.ranking.area_under_curve` takes from its own
      sort, recovered by discounting the ``-inf`` excluded items.
    """
    rows = np.asarray(rows, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    n_items = scores.shape[1]
    values = scores[rows, items]
    sorted_rows = np.where(excluded, -np.inf, scores)
    sorted_rows.sort(axis=1)
    left = segmented_searchsorted(sorted_rows, rows, values, side="left")
    right = segmented_searchsorted(sorted_rows, rows, values, side="right")

    # The ascending sort puts NaN last as the largest value, but the
    # descending ranking also puts NaN last: a number ranks after the
    # numbers above it only, and a NaN after every non-NaN candidate.
    n_nan = np.zeros(len(sorted_rows), dtype=np.int64)
    nan_rows = np.flatnonzero(np.isnan(sorted_rows[:, -1]))
    n_nan[nan_rows] = np.count_nonzero(np.isnan(sorted_rows[nan_rows]), axis=1)
    row_excluded = n_excluded[rows]
    is_nan = np.isnan(values)
    ranks = np.where(is_nan, left - row_excluded, n_items - n_nan[rows] - right) + 1
    # A NaN ranks after the excluded items too, which sit at -inf.
    positions = ranks + np.where(is_nan, row_excluded, 0)
    # Excluded items tie a -inf entry, so every -inf entry with an
    # excluded item in its row is fixed up here.
    for t in np.flatnonzero(right - left > 1):
        row, item = rows[t], items[t]
        before = scores[row, :item]
        tied_before = np.isnan(before) if is_nan[t] else before == values[t]
        excluded_before = excluded[row, :item]
        n_tied = np.count_nonzero(tied_before & ~excluded_before)
        ranks[t] += n_tied
        positions[t] += n_tied
        if values[t] == -np.inf:
            positions[t] += np.count_nonzero(excluded_before)

    # Excluded items sit at -inf: below every other score, tied with -inf.
    low = np.maximum(left, row_excluded)
    return CandidateRanks(
        ranks=ranks, positions=positions, below=low - row_excluded, tied=right - low
    )


def _sorted_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise stable ascending argsort and the rows that hold ties or NaN.

    The default (SIMD) argsort is not stable, but a row whose sorted
    keys are pairwise distinct and NaN-free has exactly one sorting
    permutation, so its result is the stable one.  Only rows holding
    equal keys (``-0.0 == 0.0`` included) or NaN are re-sorted with
    ``kind="stable"``; the output is bitwise that of a stable argsort.
    """
    orders = np.argsort(keys, axis=1)
    ranked = np.take_along_axis(keys, orders, axis=1)
    redo = (ranked[:, 1:] == ranked[:, :-1]).any(axis=1) | np.isnan(ranked).any(axis=1)
    rows = np.flatnonzero(redo)
    if len(rows):
        orders[rows] = np.argsort(keys[rows], axis=1, kind="stable")
    return orders, rows


def ranking_orders(keys: np.ndarray, *, descending: bool = True) -> np.ndarray:
    """Row-wise stable ranking: ``orders[r]`` sorts ``keys[r]``.

    Descending by default, ties broken by index — the ordering contract
    of the AoBPR/ABS/DSS factor-ranking caches, which take both
    directions at once from :func:`ranking_orders_both_ways`.
    """
    keys = np.asarray(keys)
    return _sorted_rows(-keys if descending else keys)[0]


def ranking_orders_both_ways(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(ranking_orders(keys, descending=False), ranking_orders(keys))`` from one sort.

    A row with distinct, NaN-free keys has one descending order: its
    ascending order reversed.  Ties and NaN keep index order in both
    directions, so only the rows holding them are sorted a second time.
    """
    keys = np.asarray(keys)
    ascending, tied = _sorted_rows(keys)
    descending = ascending[:, ::-1].copy()
    if len(tied):
        descending[tied] = np.argsort(-keys[tied], axis=1, kind="stable")
    return ascending, descending
