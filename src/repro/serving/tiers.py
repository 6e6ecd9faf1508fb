"""The fallback cascade: tiers a request degrades through.

A production request must *always* come back with a ranked list, even
when the personalized model is sick, the user is unknown, or the factor
file on disk was corrupt.  The cascade orders serving strategies from
best to most robust:

1. :class:`PersonalizedTier` — the fitted model's own
   ``predict_batch`` scores (validated finite before ranking);
2. :class:`FoldInTier` — ridge fold-in of the request history against
   the frozen item factors (:mod:`repro.mf.fold_in`), serving users the
   model never saw;
3. :class:`ItemKNNTier` — item-item cosine neighbours, model-free and
   immune to factor-file corruption;
4. :class:`PopularityTier` — the :class:`~repro.models.poprank.PopRank`
   ordering, which cannot fail.

The service calls every tier through :meth:`ServingTier.serve_batch`,
which answers each request with a ranking or the error that request
hit (a :class:`~repro.utils.exceptions.TierError` when the tier cannot
serve it); an error, a timeout or an open breaker means "try the next
tier".  A tier may name a :meth:`~ServingTier.skip_reason` up front
(the personalized tier for cold users, fold-in and ItemKNN for users
without any history), which the service treats as a skip, not a
failure.  Tiers are deliberately free of breaker/deadline logic — they
only know how to score — so each can be unit-tested in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.data.interactions import InteractionMatrix
from repro.metrics import scoring
from repro.models.base import Recommender
from repro.utils.exceptions import ConfigError, ShardError, TierError

PERSONALIZED = "personalized"
FOLD_IN = "fold-in"
ITEM_KNN = "itemknn"
POPULARITY = "popularity"


@dataclass(frozen=True)
class RecommendationRequest:
    """One serving request.

    Attributes
    ----------
    user:
        Dense user id.  May be out of the training range — the fold-in
        and popularity tiers still serve such users.
    k:
        Number of items to return.
    history:
        Optional item ids observed for this user *since training* (the
        session/onboarding signal).  Unknown and cold users are served
        personalized-adjacent results only if this is provided.
    deadline_ms:
        Per-request budget override (service default otherwise).
    exclude_observed:
        Exclude the user's training positives (and any ``history``)
        from the returned ranking.
    """

    user: int
    k: int = 5
    history: tuple[int, ...] | None = None
    deadline_ms: float | None = None
    exclude_observed: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.history is not None:
            object.__setattr__(self, "history", tuple(int(i) for i in self.history))


class ServingTier:
    """Interface: produce a top-k ranking or raise :class:`TierError`."""

    #: Cascade display name; also the breaker / chaos-injection key.
    name: str = "tier"
    #: Chaos-injection policy, set by the service at assembly; every
    #: score row :meth:`_rank` ranks passes through its ``poison_scores``.
    chaos: Any = None
    #: Tiers that rank from the user's history skip users who have none.
    needs_history: bool = False

    def serve(self, request: RecommendationRequest) -> np.ndarray:
        raise NotImplementedError

    def skip_reason(self, request: RecommendationRequest) -> str | None:
        """Why this tier cannot serve ``request`` at all, else ``None``.

        The cascade skips a tier that names a reason without calling it
        or charging its breaker: a request the tier was never meant to
        serve says nothing about the tier's health.
        """
        if self.needs_history and len(self._train_history(request, self.train)) == 0:
            return f"{self.name}: user {request.user} has no history"
        return None

    def serve_batch(
        self, requests: list[RecommendationRequest]
    ) -> list[np.ndarray | Exception]:
        """One outcome per request, in order: its ranking or its error.

        The cascade's entry point; this default serves each request
        alone through :meth:`serve`.
        """
        outcomes: list[np.ndarray | Exception] = []
        for request in requests:
            try:
                outcomes.append(self.serve(request))
            except Exception as error:  # noqa: BLE001 - a per-request outcome
                outcomes.append(error)
        return outcomes

    # -- shared helpers ------------------------------------------------
    def _rank(
        self,
        scores: np.ndarray,
        request: RecommendationRequest,
        train: InteractionMatrix,
    ) -> np.ndarray:
        """Validate, mask, and top-k one score vector (``scores`` is not mutated)."""
        scores = np.array(scores, dtype=np.float64)
        if self.chaos is not None:
            scores = self.chaos.poison_scores(self.name, scores)
        bad = ~np.isfinite(scores)
        if bad.any():
            raise TierError(
                f"{self.name}: {int(bad.sum())} non-finite scores for user {request.user}"
            )
        if request.exclude_observed:
            if 0 <= request.user < train.n_users:
                scores[train.positives(request.user)] = -np.inf
            if request.history:
                inside = [i for i in request.history if 0 <= i < len(scores)]
                scores[inside] = -np.inf
        k = min(request.k, train.n_items)
        return scoring.topk_from_matrix(scores[None, :], k)[0]

    def _train_history(
        self, request: RecommendationRequest, train: InteractionMatrix
    ) -> np.ndarray:
        """The user's combined train + request history (may be empty)."""
        parts = []
        if 0 <= request.user < train.n_users:
            parts.append(train.positives(request.user))
        if request.history:
            inside = [i for i in request.history if 0 <= i < train.n_items]
            if inside:
                parts.append(np.asarray(inside, dtype=np.int64))
        if not parts:
            return np.zeros(0, dtype=np.int64)
        return np.unique(np.concatenate(parts))


class PersonalizedTier(ServingTier):
    """Tier 1: the fitted model itself (hot-swappable through a slot).

    ``source`` is either a fitted :class:`Recommender` or a
    :class:`~repro.serving.reload.ModelSlot`; reading through the slot
    on every request is what makes hot reload take effect mid-stream.
    """

    name = PERSONALIZED

    def __init__(self, source: Any, train: InteractionMatrix):
        self.source = source
        self.train = train

    def current_model(self) -> Recommender:
        get = getattr(self.source, "get", None)
        return get() if callable(get) else self.source

    # -- shard topology (per-shard breakers) ---------------------------
    def shard_count(self) -> int:
        """Shards in the current model's store (0 for in-memory models)."""
        return int(getattr(self.current_model(), "n_shards", 0) or 0)

    def shard_of(self, request: RecommendationRequest) -> int | None:
        """Shard owning the request's user, or ``None`` when unsharded."""
        shard_of = getattr(self.current_model(), "shard_of", None)
        if not callable(shard_of):
            return None
        return shard_of(request.user)

    def skip_reason(self, request: RecommendationRequest) -> str | None:
        """Out-of-range and cold users have no personalized signal.

        The cascade moves them on to fold-in (when the request carries
        history) or popularity, with honest provenance.
        """
        if not (0 <= request.user < self.train.n_users):
            return f"{self.name}: user {request.user} outside the trained range"
        if self.train.n_positives(request.user) == 0:
            return f"{self.name}: user {request.user} has no training history"
        return None

    def serve(self, request: RecommendationRequest) -> np.ndarray:
        outcome = self.serve_batch([request])[0]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def serve_batch(
        self, requests: list[RecommendationRequest]
    ) -> list[np.ndarray | Exception]:
        """Score every servable request through one ``predict_batch`` call.

        A request with a :meth:`skip_reason`, or whose score row cannot
        be ranked (e.g. poisoned non-finite), gets a :class:`TierError`;
        a :class:`ShardError` fails only the requests of its shard, and
        the rest are scored again without them.  The kernel is
        chunk-invariant, so each ranking is bitwise what the request
        would get alone.
        """
        model = self.current_model()
        reasons = [self.skip_reason(request) for request in requests]
        outcomes: list = [None if r is None else TierError(r) for r in reasons]
        pending = [index for index, reason in enumerate(reasons) if reason is None]
        while pending:
            try:
                rankings = self._rank_batch(model, [requests[i] for i in pending])
            except ShardError as error:
                lost = {i for i in pending if self.shard_of(requests[i]) == error.shard}
                if error.shard is None or not lost:
                    raise
                for index in lost:
                    outcomes[index] = error
                pending = [index for index in pending if index not in lost]
            else:
                for index, ranking in zip(pending, rankings):
                    outcomes[index] = ranking
                pending = []
        return outcomes

    def _rank_batch(
        self, model: Recommender, requests: list[RecommendationRequest]
    ) -> list[np.ndarray | TierError]:
        users = np.asarray([request.user for request in requests], dtype=np.int64)
        scores = np.asarray(model.predict_batch(users))
        rankings: list[np.ndarray | TierError] = []
        for row, request in enumerate(requests):
            try:
                rankings.append(self._rank(scores[row], request, self.train))
            except TierError as error:
                rankings.append(error)
        return rankings


class FoldInTier(ServingTier):
    """Tier 2: ridge fold-in against the current model's item factors.

    Serves unseen/cold users from their request history (and known
    users from their training history when the personalized scorer is
    down) without touching the model.
    """

    name = FOLD_IN
    needs_history = True

    def __init__(
        self,
        source: Any,
        train: InteractionMatrix,
        *,
        weight: float = 10.0,
        reg: float = 0.1,
    ):
        self.source = source
        self.train = train
        self.weight = weight
        self.reg = reg

    def _params(self):
        get = getattr(self.source, "get", None)
        model = get() if callable(get) else self.source
        params = getattr(model, "params_", None)
        if params is None:
            raise TierError(f"{self.name}: current model has no factor parameters")
        return params

    def serve(self, request: RecommendationRequest) -> np.ndarray:
        from repro.mf.fold_in import fold_in_user_ridge

        history = self._train_history(request, self.train)
        if len(history) == 0:
            raise TierError(
                f"{self.name}: user {request.user} has no history to fold in"
            )
        result = fold_in_user_ridge(
            self._params(), history, weight=self.weight, reg=self.reg
        )
        return self._rank(result.predict(), request, self.train)


class ItemKNNTier(ServingTier):
    """Tier 3: item-item cosine neighbours, independent of the factors."""

    name = ITEM_KNN
    needs_history = True

    def __init__(self, knn: Any, train: InteractionMatrix):
        if getattr(knn, "similarity_", None) is None:
            raise ConfigError("ItemKNNTier needs a fitted ItemKNN model")
        self.knn = knn
        self.train = train

    def serve(self, request: RecommendationRequest) -> np.ndarray:
        history = self._train_history(request, self.train)
        if len(history) == 0:
            raise TierError(f"{self.name}: user {request.user} has no history")
        return self._rank(self.knn.score_histories([history])[0], request, self.train)


class PopularityTier(ServingTier):
    """Tier 4: training popularity — serves anyone, cannot go cold."""

    name = POPULARITY

    def __init__(self, train: InteractionMatrix):
        self.train = train
        self._scores = train.item_counts().astype(np.float64)

    def serve(self, request: RecommendationRequest) -> np.ndarray:
        return self._rank(self._scores, request, self.train)


@dataclass
class TierStats:
    """Per-tier serving counters (service bookkeeping)."""

    served: int = 0
    failures: int = 0
    timeouts: int = 0
    skipped_open: int = 0
    errors: dict[str, int] = field(default_factory=dict)

    def record_error(self, message: str) -> None:
        self.errors[message] = self.errors.get(message, 0) + 1

    def to_dict(self) -> dict:
        return {
            "served": self.served,
            "failures": self.failures,
            "timeouts": self.timeouts,
            "skipped_open": self.skipped_open,
            "errors": dict(self.errors),
        }
