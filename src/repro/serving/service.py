"""The deadline-bounded, degradation-aware recommendation service.

:class:`RecommendationService` is the request path that fronts a fitted
:class:`~repro.models.base.Recommender` in production.  There is one
cascade, :meth:`~RecommendationService.recommend_batch`; a single
request is a batch of one.  Per batch it

1. starts one :class:`~repro.serving.deadline.Deadline` from the
   smallest request (or service default) budget in the batch;
2. walks the fallback cascade tier by tier.  At each tier a request is
   skipped when the tier names a ``skip_reason`` for it (a cold user at
   the personalized tier — not a failure) or when the tier's
   :class:`~repro.serving.breaker.CircuitBreaker` or the request's
   shard breaker is open; the rest are scored by one
   ``tier.serve_batch`` call granted only the *remaining* budget
   through a :class:`~repro.serving.deadline.BudgetExecutor`;
3. records every attempted request's outcome into the tier's breaker
   (timeouts and slow successes count against the latency threshold),
   its shard breaker and the per-tier stats, so a batch of N moves
   them exactly as N single requests would; failed requests move on to
   the next tier;
4. returns one :class:`ServedResponse` per request carrying
   full provenance: which tier answered (``served_by``), whether that
   was a degradation (``degraded``), how much budget was left
   (``deadline_ms_left``), and the live model version.

If every tier is open, erroring, or out of budget, the request is still
answered from a precomputed static popularity ranking — the service
never raises on the request path and never returns an empty list (the
zero-failed-requests property the chaos suite enforces).

:meth:`~RecommendationService.hand_off` runs the same cascade for a
batch on a serving thread of the executor, where tier calls run inline.
The cascade publishes its progress on the batch's :class:`BatchFlight`,
and the caller enforces the deadline by calling
:meth:`BatchFlight.cut_off`: the tier call in flight is settled as one
timeout, earlier answers are kept, and the rest of the batch gets the
static ranking.  Every caller is cut off this way: the edge from an
event-loop timer, a synchronous caller on a
:class:`~repro.serving.deadline.ThreadedExecutor` after waiting.
"""

from __future__ import annotations

import queue
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.data.interactions import InteractionMatrix
from repro.metrics import scoring
from repro.models.base import Recommender
from repro.models.itemknn import ItemKNN
from repro.obs.registry import MetricsRegistry, as_registry
from repro.serving.breaker import BreakerConfig, CircuitBreaker
from repro.utils.clock import Clock, as_clock
from repro.serving.deadline import (
    BudgetExecutor,
    Deadline,
    Flight,
    ThreadedExecutor,
    current_flight,
)
from repro.serving.reload import ModelSlot
from repro.serving.schema import ServedResponse
from repro.serving.tiers import (
    FoldInTier,
    ItemKNNTier,
    PersonalizedTier,
    PopularityTier,
    RecommendationRequest,
    ServingTier,
    TierStats,
)
from repro.utils.exceptions import ConfigError, DeadlineExceeded, ShardError, TierError

STATIC_POPULARITY = "static-popularity"


@dataclass(frozen=True)
class ServiceConfig:
    """Service-wide serving knobs."""

    default_deadline_ms: float = 50.0
    breaker: BreakerConfig = field(default_factory=BreakerConfig)

    def __post_init__(self):
        if self.default_deadline_ms <= 0:
            raise ConfigError(
                f"default_deadline_ms must be > 0, got {self.default_deadline_ms}"
            )


class RecommendationService:
    """Deadline-bounded fallback cascade over serving tiers.

    Most callers should use :meth:`build`, which assembles the standard
    personalized → fold-in → ItemKNN → popularity cascade around a
    fitted model.  The explicit constructor exists for tests and exotic
    cascades.
    """

    def __init__(
        self,
        tiers: list[ServingTier],
        train: InteractionMatrix,
        *,
        config: ServiceConfig | None = None,
        executor: BudgetExecutor | None = None,
        clock: Clock | None = None,
        chaos: Any = None,
        slot: ModelSlot | None = None,
        breaker_configs: dict[str, BreakerConfig] | None = None,
        obs: MetricsRegistry | None = None,
        reranker: Any = None,
    ):
        if not tiers:
            raise ConfigError("the cascade needs at least one tier")
        self.tiers = list(tiers)
        self.train = train
        self.config = config or ServiceConfig()
        self.clock = as_clock(clock)
        self.executor = executor or ThreadedExecutor(clock=self.clock)
        self.chaos = chaos
        self.slot = slot
        self.obs = as_registry(obs)
        # Opt-in post-scoring hook (e.g. streaming.TimeDecayReranker);
        # None keeps every ranking bitwise identical to the tier output.
        self.reranker = reranker
        # The one chaos hook: tiers poison their score rows through it.
        for tier in self.tiers:
            tier.chaos = chaos
        overrides = breaker_configs or {}
        self.breakers: dict[str, CircuitBreaker] = {
            tier.name: CircuitBreaker(
                overrides.get(tier.name, self.config.breaker),
                clock=self.clock,
                name=tier.name,
                obs=self.obs,
            )
            for tier in self.tiers
        }
        # One breaker per user shard of the primary tier's store (empty
        # for in-memory models): a single rotted/slow shard opens only
        # its own breaker, so exactly that shard's users degrade while
        # the tier keeps serving everyone else.  Created eagerly here —
        # the request path only ever reads this dict.
        self.shard_breakers: dict[int, CircuitBreaker] = {}
        primary_tier = self.tiers[0]
        shard_count = getattr(primary_tier, "shard_count", None)
        for index in range(int(shard_count()) if callable(shard_count) else 0):
            shard_name = f"{primary_tier.name}-shard-{index}"
            self.shard_breakers[index] = CircuitBreaker(
                overrides.get(shard_name, overrides.get(primary_tier.name, self.config.breaker)),
                clock=self.clock,
                name=shard_name,
                obs=self.obs,
            )
        self.stats: dict[str, TierStats] = {tier.name: TierStats() for tier in self.tiers}
        self.stats[STATIC_POPULARITY] = TierStats()
        self.requests_served_ = 0
        # The emergency ranking is a plain argsort over popularity,
        # computed once — nothing on this path can fail or take time.
        counts = train.item_counts().astype(np.float64)
        self._static_ranking = scoring.topk_from_matrix(counts[None, :], train.n_items)[0]
        # Supervisor-driven kill switch: while set, every request is
        # answered from the static-popularity ranking (no model, no
        # executor, no breakers), so a quarantined model pipeline can
        # never take serving down with it.
        self._degraded_mode = False
        self._degraded_reason = ""

    # -- construction ----------------------------------------------------
    @classmethod
    def build(
        cls,
        model: Recommender,
        train: InteractionMatrix,
        *,
        knn: ItemKNN | None = None,
        fit_knn: bool = True,
        config: ServiceConfig | None = None,
        executor: BudgetExecutor | None = None,
        clock: Clock | None = None,
        chaos: Any = None,
        breaker_configs: dict[str, BreakerConfig] | None = None,
        version: str = "initial",
        obs: MetricsRegistry | None = None,
        reranker: Any = None,
    ) -> "RecommendationService":
        """Assemble the standard four-tier cascade around ``model``.

        ``knn`` may be a pre-fitted :class:`ItemKNN`; with ``fit_knn``
        (the default) one is fitted here when not supplied.  The fit
        keeps a sparse top-k similarity in O(k·m) memory, but its time
        grows with m², so pass ``fit_knn=False`` to skip that tier on
        very wide catalogs.
        """
        slot = ModelSlot(model, version=version, chaos=chaos, clock=clock)
        tiers: list[ServingTier] = [PersonalizedTier(slot, train)]
        if getattr(model, "params_", None) is not None:
            tiers.append(FoldInTier(slot, train))
        if knn is None and fit_knn:
            knn = ItemKNN().fit(train)
        if knn is not None:
            tiers.append(ItemKNNTier(knn, train))
        tiers.append(PopularityTier(train))
        return cls(
            tiers,
            train,
            config=config,
            executor=executor,
            clock=clock,
            chaos=chaos,
            slot=slot,
            breaker_configs=breaker_configs,
            obs=obs,
            reranker=reranker,
        )

    # -- provenance helpers -----------------------------------------------
    def _model_age_s(self) -> float | None:
        return self.slot.age_s() if self.slot is not None else None

    # -- shard breaker helpers --------------------------------------------
    def _shard_breaker_for(
        self, tier: ServingTier, request: RecommendationRequest
    ) -> CircuitBreaker | None:
        """The breaker of the shard owning this request's user, if any."""
        if not self.shard_breakers or tier is not self.tiers[0]:
            return None
        shard_of = getattr(tier, "shard_of", None)
        if not callable(shard_of):
            return None
        shard = shard_of(request)
        if shard is None:
            return None
        return self.shard_breakers.get(int(shard))

    def _finalize_ranking(self, items: np.ndarray) -> np.ndarray:
        if self.reranker is None:
            return items
        return np.asarray(self.reranker.rerank(items), dtype=np.int64)

    # -- degraded mode ------------------------------------------------------
    def set_degraded(self, active: bool, *, reason: str = "") -> None:
        """Force (or lift) static-popularity-only serving.

        Wired to the supervisor's quarantine hook: when a critical
        pipeline component crash-loops, serving degrades to the
        precomputed popularity ranking instead of trusting a model
        whose feeding machinery is dead.
        """
        self._degraded_mode = bool(active)
        self._degraded_reason = reason if active else ""
        if active:
            self.obs.counter("serving_forced_degraded_total").inc()
            self.obs.event("serving_degraded_mode", active=True, reason=reason)
        else:
            self.obs.event("serving_degraded_mode", active=False)

    def degraded_mode(self) -> bool:
        """Whether forced static-popularity serving is active."""
        return self._degraded_mode

    # -- the request path -------------------------------------------------
    def recommend(
        self, request: RecommendationRequest | int, *, k: int | None = None
    ) -> ServedResponse:
        """Serve one request: a batch of one through :meth:`recommend_batch`."""
        return self.recommend_batch([request], k=k)[0]

    def recommend_batch(
        self, requests: Sequence[RecommendationRequest | int], *, k: int | None = None
    ) -> list[ServedResponse]:
        """Serve requests through the cascade; never raises, never returns an empty list.

        The batch walks the tiers together under one deadline (the
        smallest budget in the batch).  At each tier, the requests still
        unanswered are admitted one by one — a tier's
        :meth:`~ServingTier.skip_reason` or an open tier/shard breaker
        skips that request there — and the admitted ones are scored by a
        single ``serve_batch`` call through the executor, so the
        personalized tier ranks them all with one ``predict_batch``.
        Each attempted request then settles its own breaker and stats
        outcome, so a batch of N moves them exactly as N single
        requests would.  A request the tier failed moves on to the next
        tier; one no tier answers gets the static popularity ranking.

        On a :class:`~repro.serving.deadline.ThreadedExecutor`, a caller
        other than a serving thread hands the batch off (:meth:`hand_off`)
        and cuts it off at its deadline.  On the serving thread running
        the flight of these very ``requests``, the cascade publishes its
        progress there.  Anywhere else it runs here.
        """
        flight = current_flight()
        if not isinstance(flight, BatchFlight) or flight.requests is not requests:
            if flight is None and isinstance(self.executor, ThreadedExecutor):
                return self._wait_handed_off(requests, k)
            flight = BatchFlight(self, requests, k)
        if not flight.batch:
            return []
        if self._degraded_mode:
            with flight.lock:
                if not flight.cut:
                    for errors in flight.errors:
                        errors["degraded_mode"] = self._degraded_reason or "forced"
                    flight.position = len(self.tiers)
        else:
            self._cascade(flight)
        return flight.finish()

    def hand_off(
        self,
        requests: Sequence[RecommendationRequest | int],
        done: Callable[[Any], None],
        k: int | None = None,
    ) -> BatchFlight:
        """Serve ``requests`` on one of the executor's serving threads.

        ``done`` receives the responses there (or the exception).  The
        caller enforces the deadline: at ``flight.deadline`` it calls
        ``cut_off()`` on the returned flight, which answers the batch
        without waiting for the tier in flight.  After :meth:`close`,
        ``done`` gets the static popularity answers at once.
        """
        flight = BatchFlight(self, requests, k)
        try:
            self.executor.hand_off(lambda: self.recommend_batch(requests), done, flight)
        except RuntimeError as error:  # the executor is shut down
            for errors in flight.errors:
                errors.update((tier.name, str(error)) for tier in self.tiers)
            done(flight.finish())
        return flight

    def _wait_handed_off(
        self, requests: Sequence[RecommendationRequest | int], k: int | None
    ) -> list[ServedResponse]:
        """Hand the batch off and wait for it; cut it off at its deadline."""
        results: queue.SimpleQueue = queue.SimpleQueue()
        flight = self.hand_off(requests, results.put, k)
        try:
            result = results.get(timeout=max(0.0, flight.deadline.remaining_ms()) / 1000.0)
        except queue.Empty:
            # cut_off() is None when the batch finished as the deadline passed.
            result = flight.cut_off() or results.get()
        if isinstance(result, Exception):
            raise result
        return result

    def _cascade(self, flight: BatchFlight) -> None:
        """Walk the tiers for ``flight``, publishing each step under its lock."""
        batch, deadline = flight.batch, flight.deadline
        errors, responses = flight.errors, flight.responses
        pending = list(range(len(batch)))
        for position, tier in enumerate(self.tiers):
            with flight.lock:
                if flight.cut:
                    return
                remaining = deadline.remaining_ms()
                if remaining <= 0:
                    for index in pending:
                        errors[index][tier.name] = "deadline exhausted"
                    flight.position = len(self.tiers)
                    return
                admitted = []
                for index in pending:
                    shard_breaker = self._shard_breaker_for(tier, batch[index])
                    skip = self._skip(tier, batch[index], shard_breaker)
                    if skip is None:
                        admitted.append((index, shard_breaker))
                    else:
                        errors[index][tier.name] = skip
                if not admitted:
                    flight.position = position + 1
                    continue
                flight.admitted = admitted
                flight.open_call(remaining)
            group = [batch[index] for index, _ in admitted]
            try:
                outcomes, latency_ms = self.executor.call(
                    lambda tier=tier, group=group: self._serve_group(tier, group),
                    remaining,
                )
            except Exception as error:  # noqa: BLE001 - cascade boundary
                outcomes, latency_ms = [error] * len(group), 0.0
            with flight.lock:
                if flight.cut:
                    return  # the cut-off settled this call
                flight.close_call()
                flight.admitted = []
                flight.position = position + 1
                for (index, shard_breaker), outcome in zip(admitted, outcomes):
                    error = self._settle(tier, shard_breaker, outcome, latency_ms)
                    if error is not None:
                        errors[index][tier.name] = error
                        continue
                    self.obs.histogram("serving_tier_latency_ms", tier=tier.name).observe(
                        latency_ms
                    )
                    responses[index] = self._respond(
                        batch[index], outcome, tier.name, deadline, errors[index]
                    )
            pending = [index for index in pending if responses[index] is None]
            if not pending:
                return

    def _skip(
        self,
        tier: ServingTier,
        request: RecommendationRequest,
        shard_breaker: CircuitBreaker | None,
    ) -> str | None:
        """Why ``tier`` skips ``request`` (recording breaker skips), else None."""
        reason = tier.skip_reason(request)
        if reason is not None:
            return reason
        if not self.breakers[tier.name].allow():
            self.stats[tier.name].skipped_open += 1
            self.obs.counter("serving_skipped_open_total", tier=tier.name).inc()
            return "breaker open"
        if shard_breaker is not None and not shard_breaker.allow():
            # The tier breaker may have admitted this request as a probe.
            self.breakers[tier.name].release()
            self.stats[tier.name].skipped_open += 1
            self.obs.counter("serving_shard_skipped_open_total", tier=tier.name).inc()
            return f"{shard_breaker.name} open"
        return None

    def _serve_group(
        self, tier: ServingTier, group: list[RecommendationRequest]
    ) -> list[np.ndarray | Exception]:
        """One ``serve_batch`` call; each ranking checked against the catalog."""
        if self.chaos is not None:
            self.chaos.before_call(tier.name)
        outcomes = list(tier.serve_batch(group))
        if len(outcomes) != len(group):
            raise TierError(f"{tier.name}: returned {len(outcomes)} rankings for {len(group)}")
        self.obs.histogram("serving_batch_size", tier=tier.name).observe(len(group))
        for row, items in enumerate(outcomes):
            if isinstance(items, Exception):
                continue
            items = outcomes[row] = np.asarray(items, dtype=np.int64)
            if items.ndim != 1 or len(items) == 0:
                outcomes[row] = TierError(
                    f"{tier.name}: returned an invalid ranking (shape {items.shape})"
                )
            elif items.min() < 0 or items.max() >= self.train.n_items:
                outcomes[row] = TierError(f"{tier.name}: returned out-of-catalog item ids")
        return outcomes

    def _settle(
        self,
        tier: ServingTier,
        shard_breaker: CircuitBreaker | None,
        outcome: np.ndarray | Exception,
        latency_ms: float,
    ) -> str | None:
        """Charge one attempted request's outcome to its breakers and
        stats; returns its error text, or ``None`` when it was served."""
        breaker = self.breakers[tier.name]
        stats = self.stats[tier.name]
        if not isinstance(outcome, Exception):
            breaker.record_success(latency_ms)
            if shard_breaker is not None:
                shard_breaker.record_success(latency_ms)
            stats.served += 1
            return None
        shard = getattr(outcome, "shard", None)
        failing = (
            self.shard_breakers.get(int(shard))
            if isinstance(outcome, ShardError) and shard is not None
            else None
        )
        if failing is not None:
            # A shard-local fault charges only that shard's breaker.  The
            # tier machinery itself behaved, so its breaker sees a success
            # sample — it stays closed for every other shard's users (and
            # half-open probe accounting stays balanced).
            breaker.record_success(0.0)
            failing.record_failure()
            if shard_breaker is not None and shard_breaker is not failing:
                shard_breaker.record_success(0.0)
            self.obs.counter("serving_shard_failures_total", shard=str(int(shard))).inc()
        else:
            breaker.record_failure()
            if shard_breaker is not None:
                shard_breaker.record_failure()
        if isinstance(outcome, DeadlineExceeded):
            stats.timeouts += 1
            stats.record_error("deadline exceeded")
            self.obs.counter("serving_timeouts_total", tier=tier.name).inc()
            return f"deadline exceeded ({outcome})"
        message = str(outcome) or type(outcome).__name__
        stats.failures += 1
        stats.record_error(message)
        self.obs.counter("serving_failures_total", tier=tier.name).inc()
        return message

    def _emergency_response(
        self, request: RecommendationRequest, deadline: Deadline, errors: dict
    ) -> ServedResponse:
        """Answer from the precomputed popularity ranking, no matter what."""
        self.stats[STATIC_POPULARITY].served += 1
        self.obs.counter("serving_emergency_total").inc()
        items = self._static_ranking[: min(request.k, self.train.n_items)].copy()
        return self._respond(request, items, STATIC_POPULARITY, deadline, errors)

    def _respond(
        self,
        request: RecommendationRequest,
        items: np.ndarray,
        served_by: str,
        deadline: Deadline,
        errors: dict,
    ) -> ServedResponse:
        degraded = served_by != self.tiers[0].name
        self.obs.counter("serving_served_total", tier=served_by).inc()
        if degraded:
            self.obs.counter("serving_degraded_total").inc()
        self.obs.histogram("serving_request_latency_ms").observe(deadline.elapsed_ms())
        return ServedResponse(
            user=request.user,
            items=self._finalize_ranking(items),
            served_by=served_by,
            degraded=degraded,
            deadline_ms_left=deadline.remaining_ms(),
            latency_ms=deadline.elapsed_ms(),
            model_version=self.slot.version if self.slot is not None else None,
            model_age_s=self._model_age_s(),
            tier_errors=errors,
        )

    # -- monitoring -------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready operational state: breakers, stats, executor load."""
        return {
            "requests_served": self.requests_served_,
            "degraded_mode": self._degraded_mode,
            "degraded_reason": self._degraded_reason,
            "model_version": self.slot.version if self.slot is not None else None,
            "model_age_s": self._model_age_s(),
            "breakers": {name: b.snapshot() for name, b in self.breakers.items()},
            "shard_breakers": {
                str(index): b.snapshot() for index, b in self.shard_breakers.items()
            },
            "tiers": {name: s.to_dict() for name, s in self.stats.items()},
            "executor_overruns": self.executor.overruns_,
        }

    def fallback_rate(self) -> float:
        """Fraction of requests not served by the primary tier."""
        total = sum(s.served for s in self.stats.values())
        if total == 0:
            return 0.0
        primary = self.stats[self.tiers[0].name].served
        return 1.0 - primary / total

    def close(self) -> None:
        """Release executor workers (idempotent)."""
        self.executor.shutdown()

    def __enter__(self) -> "RecommendationService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class BatchFlight(Flight):
    """One batch through the cascade, published for a deadline cut-off.

    The cascade records the next tier to run (``position``) and, while a
    tier call is in flight, the requests it admitted, all under
    :attr:`lock`.  :meth:`cut_off` (the edge's deadline timer) settles
    that call as a timeout, keeps the answers earlier tiers produced and
    answers the rest from the static-popularity path, with the
    ``tier_errors`` a per-tier cut-off produces.  Whichever side takes
    the lock first settles a tier call; the other leaves it alone.
    """

    def __init__(
        self,
        service: RecommendationService,
        requests: Sequence[RecommendationRequest | int],
        k: int | None = None,
    ):
        super().__init__(service.executor)
        self.service = service
        self.requests = requests
        self.batch = [
            request
            if isinstance(request, RecommendationRequest)
            else RecommendationRequest(user=int(request), k=k or 5)
            for request in requests
        ]
        self.deadline = Deadline(
            min(
                (r.deadline_ms or service.config.default_deadline_ms for r in self.batch),
                default=service.config.default_deadline_ms,
            ),
            clock=service.clock,
        )
        service.requests_served_ += len(self.batch)
        self.errors: list[dict[str, str]] = [{} for _ in self.batch]
        self.responses: list[ServedResponse | None] = [None] * len(self.batch)
        self.position = 0
        self.admitted: list[tuple[int, CircuitBreaker | None]] = []
        self.finished = False

    def cut_off(self) -> list[ServedResponse] | None:
        """Answer the batch now; ``None`` when it finished or was cut already."""
        with self.lock:
            if self.finished or self.cut:
                return None
            error = self.cut_call()
            tiers = self.service.tiers
            position = self.position
            if self.admitted:
                assert error is not None  # the call opened with the admission
                tier = tiers[position]
                for index, shard_breaker in self.admitted:
                    message = self.service._settle(tier, shard_breaker, error, 0.0)
                    self.errors[index][tier.name] = message or ""
                position += 1
            if position < len(tiers):
                for index, response in enumerate(self.responses):
                    if response is None:
                        self.errors[index][tiers[position].name] = "deadline exhausted"
            return self._answer()

    def finish(self) -> list[ServedResponse]:
        """The cascade's answers, or the cut-off's when it came first."""
        with self.lock:
            self.finished = True
            return self._answer()

    def _answer(self) -> list[ServedResponse]:
        for index, response in enumerate(self.responses):
            if response is None:
                self.responses[index] = self.service._emergency_response(
                    self.batch[index], self.deadline, self.errors[index]
                )
        return [response for response in self.responses if response is not None]
