"""Full-ranking evaluation protocol.

The paper evaluates by ranking *all* unobserved items per user (not a
100-item sample, see the note under Section 6.3) and averaging metrics
over users with at least one test positive.  Training (and validation)
positives are excluded from the candidate set; test positives are the
relevant items.

Evaluation runs on the batched scoring engine
(:mod:`repro.metrics.scoring`): users are processed in chunks through
``predict_batch``.  Per chunk, relevant ``(row, item)`` pairs are read
straight from the CSR arrays and the exclusion mask is built once.
Every metric then comes from one row sort of the masked chunk in
``candidate_ranks``: one vectorised search over all relevant entries
gives each its candidate rank (MAP, MRR), its below/tied counts (AUC,
with the positive-vs-positive counts from one chunk-wide integer sort)
and its position in the masked ranking.  A position within ``max(ks)``
is a top-k hit, so no second top-k pass runs; NDCG looks up each row's
hit pattern in a per-chunk DCG table, and AP takes one mean per
distinct relevant count.  ``topk_from_matrix`` stays the one top-k
kernel for serving, ``top_k_items``, the sequential reference and
``validation_ndcg``; its prefix is the same stable order the positions
index.  Every kernel is chunk-invariant, so the chunked (and
``n_jobs``-threaded) path reproduces the sequential per-user protocol
bitwise — asserted by ``evaluate_sequential``, the original per-user
loop kept as the reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.data.dataset import DatasetSplit
from repro.metrics import ranking, scoring, topk
from repro.obs.registry import MetricsRegistry, as_registry
from repro.utils.exceptions import ConfigError, DataError
from repro.utils.rng import as_generator

ScoreFunction = Callable[[int], np.ndarray]


@dataclass(frozen=True)
class EvaluationResult:
    """Aggregated evaluation metrics over test users.

    Attributes
    ----------
    metrics:
        Mapping from metric key (e.g. ``"ndcg@5"``, ``"map"``) to the
        mean value over evaluated users.
    n_users:
        Number of users the means were taken over.
    per_user:
        Optional per-user metric arrays (same keys as ``metrics``).
    """

    metrics: dict[str, float]
    n_users: int
    per_user: dict[str, np.ndarray] | None = field(default=None, repr=False)

    def __getitem__(self, key: str) -> float:
        return self.metrics[key]

    def keys(self):
        return self.metrics.keys()

    def as_row(self, keys: Sequence[str]) -> list[float]:
        """Metric values in the order of ``keys`` (for table rendering)."""
        return [self.metrics[key] for key in keys]


def ndcg_from_hits(hit_at: np.ndarray, n_relevant: np.ndarray, k: int) -> np.ndarray:
    """Per-row binary NDCG@k from top-k hit flags.

    ``hit_at[r, p]`` says whether row ``r``'s item at position ``p`` is
    relevant; ``n_relevant[r]`` (>= 1) sizes the ideal ranking.  A chunk
    holds few distinct hit patterns, so each pattern's DCG is computed
    once — with the same ``float(gains @ discounts)`` as
    :func:`repro.metrics.topk.ndcg_at_k`, hence bitwise equal to it —
    and rows look theirs up, as they do the IDCG of their ideal count.
    """
    kk = min(k, hit_at.shape[1])
    discounts = 1.0 / np.log2(np.arange(2, kk + 2))
    patterns, inverse = np.unique(hit_at[:, :kk], axis=0, return_inverse=True)
    dcg = np.array([float(pattern.astype(np.float64) @ discounts) for pattern in patterns])
    ideal = np.minimum(k, n_relevant)
    idcg = np.array(
        [float(np.sum(1.0 / np.log2(np.arange(2, count + 2)))) for count in range(ideal.max() + 1)]
    )
    # min() guards the perfect ranking against float summation pushing
    # the ratio infinitesimally above 1, as ndcg_at_k does.
    return np.minimum(dcg[inverse.reshape(-1)] / idcg[ideal], 1.0)


def _score_function(model) -> ScoreFunction:
    """Per-user adapter used by :meth:`Evaluator.evaluate_sequential`."""
    if callable(getattr(model, "predict_user", None)):
        return model.predict_user
    if callable(model):
        raise TypeError(scoring.LEGACY_CALLABLE_MESSAGE)
    raise ConfigError(
        f"model {model!r} is not evaluable: needs a predict_user(user) method"
    )


class Evaluator:
    """Evaluates a model on one :class:`~repro.data.DatasetSplit`.

    ``evaluate`` accepts a fitted :class:`~repro.models.base.Recommender`
    (preferred — its ``predict_batch`` drives the chunked engine) or any
    object with ``predict_user``.  Bare ``user -> scores`` callables are
    rejected with a :class:`TypeError` (wrap them in an object exposing
    ``predict_user`` instead).

    Parameters
    ----------
    split:
        The dataset split; candidates per user are all items except
        train (and validation) positives.
    ks:
        Cutoffs for the top-k metrics.
    max_users:
        If set, evaluate a random subsample of test users (useful for
        per-epoch convergence traces on larger datasets).
    use_validation_as_relevant:
        When true, the *validation* positives (not test) are the
        relevant items — this mode implements the paper's model
        selection by ``NDCG@5`` on the validation set.
    sampled_candidates:
        When set, rank each user's relevant items against only this many
        *sampled* unobserved items instead of the full catalog — the NCF
        evaluation protocol ("only 100 unobserved items are sampled")
        that the paper explicitly rejects in Section 6.3.  Provided so
        the distortion can be measured; the paper's protocol is the
        default (``None`` = rank everything).
    chunk_size:
        Rows in flight across all workers (default
        :data:`~repro.metrics.scoring.CHUNK_SIZE`): each of the
        ``n_jobs`` workers scores chunks of at most ``chunk_size //
        n_jobs`` users per ``predict_batch`` call.  Any value yields
        the same metrics bitwise; it only trades memory (a few
        ``chunk_size * n_items`` arrays) against batching efficiency.
    n_jobs:
        Worker threads sharding chunks, each on one BLAS thread, and
        never more than ``chunk_size``.  ``None`` (the default) and
        ``-1`` use the cores the process may run on, but only as many
        as keep :data:`~repro.metrics.scoring.MIN_CHUNK_ROWS` rows per
        worker (two at the default ``chunk_size``); ``1`` is serial.
        Results are independent of ``n_jobs`` (chunks are independent
        and every kernel is chunk-invariant).
    obs:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; records
        per-chunk timing (``eval_chunk_seconds``), chunk/user counters,
        and end-of-run throughput.  Defaults to the no-op registry.
    """

    def __init__(
        self,
        split: DatasetSplit,
        *,
        ks: Sequence[int] = (5,),
        max_users: int | None = None,
        seed=None,
        keep_per_user: bool = False,
        use_validation_as_relevant: bool = False,
        sampled_candidates: int | None = None,
        chunk_size: int = scoring.CHUNK_SIZE,
        n_jobs: int | None = None,
        obs: MetricsRegistry | None = None,
    ):
        if not ks:
            raise ConfigError("ks must contain at least one cutoff")
        if any(k < 1 for k in ks):
            raise ConfigError(f"all ks must be >= 1, got {list(ks)}")
        if max_users is not None and max_users < 1:
            raise ConfigError(f"max_users must be >= 1, got {max_users}")
        if sampled_candidates is not None and sampled_candidates < 1:
            raise ConfigError(f"sampled_candidates must be >= 1, got {sampled_candidates}")
        if chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
        self.split = split
        self.ks = tuple(int(k) for k in ks)
        self.keep_per_user = keep_per_user
        self.use_validation_as_relevant = use_validation_as_relevant
        self.sampled_candidates = sampled_candidates
        self.chunk_size = int(chunk_size)
        self.n_jobs = scoring.chunk_workers(n_jobs, self.chunk_size)
        self.obs = as_registry(obs)
        if use_validation_as_relevant and split.validation is None:
            raise DataError("split has no validation set")

        self._relevant_source = split.validation if use_validation_as_relevant else split.test
        rng = as_generator(seed)
        users = np.flatnonzero(self._relevant_source.user_counts() > 0)
        if max_users is not None and len(users) > max_users:
            users = np.sort(rng.choice(users, size=max_users, replace=False))
        self.users = users
        self._candidate_rng = rng

    def metric_keys(self) -> list[str]:
        """All metric keys this evaluator produces."""
        keys = []
        for k in self.ks:
            keys.extend([f"precision@{k}", f"recall@{k}", f"f1@{k}", f"1-call@{k}", f"ndcg@{k}"])
        keys.extend(["map", "mrr", "auc"])
        return keys

    def _candidate_mask(self, user: int) -> np.ndarray:
        mask = np.ones(self.split.n_items, dtype=bool)
        mask[self.split.train.positives(user)] = False
        if self.split.validation is not None and not self.use_validation_as_relevant:
            mask[self.split.validation.positives(user)] = False
        if self.use_validation_as_relevant:
            # Validation mode still hides train positives only; test items
            # stay candidates, mimicking deployment-time uncertainty.
            pass
        return mask

    def _subsample_candidates(self, mask: np.ndarray, relevant: np.ndarray) -> np.ndarray:
        """NCF-protocol restriction: relevant items + N sampled others."""
        eligible = np.flatnonzero(mask)
        non_relevant = np.setdiff1d(eligible, relevant, assume_unique=False)
        n_sample = min(self.sampled_candidates, len(non_relevant))
        sampled = self._candidate_rng.choice(non_relevant, size=n_sample, replace=False)
        restricted = np.zeros_like(mask)
        restricted[relevant] = True
        restricted[sampled] = True
        return restricted

    def _restricted_masks(self) -> dict[int, np.ndarray]:
        """Pre-draw the NCF candidate subsamples, sequentially per user.

        The draws consume ``self._candidate_rng`` in user order — the
        exact stream the sequential evaluator uses — so the chunked
        (possibly threaded) pass stays deterministic.
        """
        restricted: dict[int, np.ndarray] = {}
        for user in self.users:
            relevant = self._relevant_source.positives(int(user))
            mask = self._candidate_mask(int(user))
            relevant = relevant[mask[relevant]]
            if len(relevant) == 0:
                continue  # skipped users draw nothing, matching the sequential loop
            restricted[int(user)] = self._subsample_candidates(mask, relevant)
        return restricted

    # ------------------------------------------------------------------
    # Batched protocol
    # ------------------------------------------------------------------
    def evaluate(self, model) -> EvaluationResult:
        """Run the protocol for ``model`` and return aggregated metrics."""
        scorer = scoring.as_batch_scorer(model)
        keys = self.metric_keys()
        restricted = self._restricted_masks() if self.sampled_candidates is not None else None
        chunks = scoring.iter_user_chunks(self.users, self.chunk_size, self.n_jobs)
        start = self.obs.clock.monotonic()

        def timed_chunk(chunk: np.ndarray) -> dict[str, np.ndarray]:
            with self.obs.span("eval_chunk"):
                result = self._evaluate_chunk(scorer, chunk, restricted)
            self.obs.counter("eval_chunks_total").inc()
            self.obs.counter("eval_users_total").inc(len(result["map"]))
            return result

        chunk_results = scoring.map_chunks(timed_chunk, chunks, self.n_jobs)

        accum = {
            key: (
                np.concatenate([result[key] for result in chunk_results])
                if chunk_results
                else np.zeros(0)
            )
            for key in keys
        }
        n_users = len(accum["map"])
        elapsed = self.obs.clock.monotonic() - start
        if elapsed > 0:
            self.obs.gauge("eval_users_per_second").set(n_users / elapsed)
        self.obs.event("evaluation", n_users=n_users, seconds=elapsed)
        metrics = {key: ranking.mean_metric(values) for key, values in accum.items()}
        per_user = dict(accum) if self.keep_per_user else None
        return EvaluationResult(metrics=metrics, n_users=n_users, per_user=per_user)

    def _evaluate_chunk(
        self,
        scorer: scoring.BatchScoreFunction,
        chunk_users: np.ndarray,
        restricted: dict[int, np.ndarray] | None,
    ) -> dict[str, np.ndarray]:
        """All metrics for one chunk of users, in user order."""
        split = self.split
        n_items = split.n_items
        scores = np.asarray(scorer(chunk_users), dtype=np.float64)
        if scores.shape != (len(chunk_users), n_items):
            raise DataError(
                f"batch scorer returned shape {scores.shape} for {len(chunk_users)} users, "
                f"expected ({len(chunk_users)}, {n_items})"
            )

        excluded = scoring.positives_mask(split.train, chunk_users)
        if split.validation is not None and not self.use_validation_as_relevant:
            scoring.positives_mask(split.validation, chunk_users, out=excluded)
        rows, items = scoring.positives_pairs(self._relevant_source, chunk_users)
        candidate = ~excluded[rows, items]
        rows, items = rows[candidate], items[candidate]
        n_relevant = np.bincount(rows, minlength=len(chunk_users))
        keep = n_relevant > 0
        if not keep.all():
            rows = (np.cumsum(keep) - 1)[rows]
            chunk_users, scores = chunk_users[keep], scores[keep]
            excluded, n_relevant = excluded[keep], n_relevant[keep]
        if not len(chunk_users):
            return {key: np.zeros(0) for key in self.metric_keys()}
        if restricted is not None:
            excluded = ~np.stack([restricted[int(user)] for user in chunk_users])
        n_excluded = np.count_nonzero(excluded, axis=1)
        n_rows = len(chunk_users)
        # Every metric comes from the one row sort in candidate_ranks.
        counts = scoring.candidate_ranks(scores, rows, items, excluded, n_excluded)

        # Top-k hits: a relevant entry at masked-ranking position p sets
        # hit_at[row, p - 1] — the flags the stable top-k prefix yields.
        width = min(max(self.ks), n_items)
        top = counts.positions <= width
        hit_at = np.zeros((n_rows, width), dtype=bool)
        hit_at[rows[top], counts.positions[top] - 1] = True
        cum_hits = np.cumsum(hit_at, axis=1)
        out: dict[str, np.ndarray] = {}
        for k in self.ks:
            hits = cum_hits[:, min(k, width) - 1]
            precision = hits / k
            recall = hits / n_relevant
            denominator = precision + recall
            safe = np.where(denominator > 0.0, denominator, 1.0)
            out[f"precision@{k}"] = precision
            out[f"recall@{k}"] = recall
            out[f"f1@{k}"] = np.where(
                denominator > 0.0, 2.0 * precision * recall / safe, 0.0
            )
            out[f"1-call@{k}"] = np.where(hits > 0, 1.0, 0.0)
            out[f"ndcg@{k}"] = ndcg_from_hits(hit_at, n_relevant, k)

        starts = np.cumsum(n_relevant) - n_relevant
        first = np.repeat(starts, n_relevant)
        # Integer keys row * (n_items + 1) + count keep every row's
        # entries in their own ascending band of one chunk-wide sort.
        offsets = rows * (n_items + 1)
        ranks_sorted = np.sort(counts.ranks + offsets) - offsets
        precisions = (np.arange(1, len(rows) + 1) - first) / ranks_sorted
        # AP takes one (rows, count) mean per distinct relevant count: each
        # row keeps numpy's pairwise sum over its own count, the sum the
        # sequential path's 1-D mean runs, so the bits match.
        ap = np.empty(n_rows)
        by_count = np.argsort(n_relevant, kind="stable")
        bounds = np.flatnonzero(np.diff(n_relevant[by_count])) + 1
        for members in np.split(by_count, bounds):
            index = starts[members, None] + np.arange(n_relevant[members[0]])
            ap[members] = precisions[index].mean(axis=1)
        # AUC's positive-vs-positive counts: positive j scores below
        # positive i iff below_j + tied_j <= below_i, and ties it iff
        # below_j == below_i.
        below_keys = counts.below + offsets
        at_or_below = np.sort(below_keys + counts.tied)
        below_sorted = np.sort(below_keys)
        below_pos = np.searchsorted(at_or_below, below_keys, side="right") - first
        tied_pos = np.searchsorted(below_sorted, below_keys, side="right") - np.searchsorted(
            below_sorted, below_keys, side="left"
        )
        below_neg = np.add.reduceat(counts.below - below_pos, starts)
        tied_neg = np.add.reduceat(counts.tied - tied_pos, starts)
        n_neg = n_items - n_excluded - n_relevant
        correct = below_neg.astype(np.float64) + 0.5 * tied_neg.astype(np.float64)
        out["map"] = ap
        out["mrr"] = 1.0 / ranks_sorted[starts]
        out["auc"] = np.where(n_neg > 0, correct / np.maximum(n_relevant * n_neg, 1), 0.0)
        return out

    # ------------------------------------------------------------------
    # Sequential reference implementation
    # ------------------------------------------------------------------
    def evaluate_sequential(self, model) -> EvaluationResult:
        """The original per-user protocol, kept as the reference path.

        One ``predict_user`` call and one full candidate ranking per
        user.  :meth:`evaluate` must (and, per the property tests, does)
        reproduce its metrics bitwise; benchmarks measure their speed
        ratio.
        """
        score_fn = _score_function(model)
        keys = self.metric_keys()
        accum: dict[str, list[float]] = {key: [] for key in keys}

        for user in self.users:
            relevant = self._relevant_source.positives(int(user))
            mask = self._candidate_mask(int(user))
            # Relevant items must be candidates; drop any that collide
            # with exclusions (cannot happen with disjoint splits, but
            # guards against user-supplied overlapping matrices).
            relevant = relevant[mask[relevant]]
            if len(relevant) == 0:
                continue
            if self.sampled_candidates is not None:
                mask = self._subsample_candidates(mask, relevant)
            scores = np.asarray(score_fn(int(user)), dtype=np.float64)
            if scores.shape != (self.split.n_items,):
                raise DataError(
                    f"predict_user({user}) returned shape {scores.shape}, "
                    f"expected ({self.split.n_items},)"
                )
            excluded = np.flatnonzero(~mask)
            ranked = topk.top_k_items(scores, max(self.ks), exclude=excluded)
            relevant_set = set(int(i) for i in relevant)
            for k in self.ks:
                accum[f"precision@{k}"].append(topk.precision_at_k(ranked, relevant_set, k))
                accum[f"recall@{k}"].append(topk.recall_at_k(ranked, relevant_set, k))
                accum[f"f1@{k}"].append(topk.f1_at_k(ranked, relevant_set, k))
                accum[f"1-call@{k}"].append(topk.one_call_at_k(ranked, relevant_set, k))
                accum[f"ndcg@{k}"].append(topk.ndcg_at_k(ranked, relevant_set, k))
            accum["map"].append(ranking.average_precision(scores, relevant, candidate_mask=mask))
            accum["mrr"].append(ranking.reciprocal_rank(scores, relevant, candidate_mask=mask))
            accum["auc"].append(ranking.area_under_curve(scores, relevant, candidate_mask=mask))

        n_users = len(accum["map"])
        metrics = {key: ranking.mean_metric(values) for key, values in accum.items()}
        per_user = (
            {key: np.asarray(values) for key, values in accum.items()} if self.keep_per_user else None
        )
        return EvaluationResult(metrics=metrics, n_users=n_users, per_user=per_user)


def evaluate_model(
    model,
    split: DatasetSplit,
    *,
    ks: Sequence[int] = (5,),
    max_users: int | None = None,
    seed=None,
    chunk_size: int = scoring.CHUNK_SIZE,
    n_jobs: int | None = None,
    obs=None,
) -> EvaluationResult:
    """Convenience wrapper: evaluate ``model`` on ``split`` in one call."""
    return Evaluator(
        split, ks=ks, max_users=max_users, seed=seed, chunk_size=chunk_size,
        n_jobs=n_jobs, obs=obs,
    ).evaluate(model)
