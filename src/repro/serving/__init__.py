"""Resilient query-time serving for fitted recommenders.

``repro.serving`` wraps any fitted :class:`~repro.models.base.Recommender`
behind a production-shaped request path:

* :mod:`~repro.serving.service` — the deadline-bounded
  :class:`RecommendationService` walking the fallback cascade with full
  response provenance (``served_by`` / ``degraded`` /
  ``deadline_ms_left``); one cascade, where a single request is a
  batch of one;
* :mod:`~repro.serving.tiers` — the cascade itself: personalized →
  ridge fold-in → ItemKNN → popularity, each an isolated, independently
  testable scorer behind one ``serve_batch`` entry point;
* :mod:`~repro.serving.breaker` — rolling-window circuit breakers
  (closed/open/half-open, O(1) per call) so a sick tier is skipped, not
  retried; cold users skip the personalized tier without counting
  against its breaker;
* :mod:`~repro.serving.deadline` — per-request budgets and the
  executors that cut off overrunning tier calls;
* :mod:`~repro.serving.reload` — checksum-validated, canary-gated,
  atomically swapped hot model reload with instant rollback.

The injectable clocks that keep all of the above deterministic under
test live in :mod:`repro.utils.clock` and are re-exported here.

Fault injection for this layer lives in
:class:`repro.resilience.chaos.ServiceFaultInjector`.
"""

from repro.serving.breaker import CLOSED, HALF_OPEN, OPEN, BreakerConfig, CircuitBreaker
from repro.serving.deadline import (
    BudgetExecutor,
    Deadline,
    InlineExecutor,
    ThreadedExecutor,
)
from repro.serving.reload import (
    CanaryConfig,
    LoadedFactorModel,
    ModelReloader,
    ModelSlot,
    ReloadResult,
)
from repro.serving.schema import ServedResponse
from repro.serving.service import (
    STATIC_POPULARITY,
    RecommendationService,
    ServiceConfig,
)
from repro.serving.tiers import (
    FOLD_IN,
    ITEM_KNN,
    PERSONALIZED,
    POPULARITY,
    FoldInTier,
    ItemKNNTier,
    PersonalizedTier,
    PopularityTier,
    RecommendationRequest,
    ServingTier,
    TierStats,
)
from repro.utils.clock import Clock, FakeClock, SystemClock, as_clock

__all__ = [
    "BreakerConfig",
    "BudgetExecutor",
    "CLOSED",
    "CanaryConfig",
    "CircuitBreaker",
    "Clock",
    "Deadline",
    "FakeClock",
    "FOLD_IN",
    "FoldInTier",
    "HALF_OPEN",
    "ITEM_KNN",
    "InlineExecutor",
    "ItemKNNTier",
    "LoadedFactorModel",
    "ModelReloader",
    "ModelSlot",
    "OPEN",
    "PERSONALIZED",
    "POPULARITY",
    "PersonalizedTier",
    "PopularityTier",
    "RecommendationRequest",
    "RecommendationService",
    "ReloadResult",
    "STATIC_POPULARITY",
    "ServedResponse",
    "ServiceConfig",
    "ServingTier",
    "SystemClock",
    "ThreadedExecutor",
    "TierStats",
    "as_clock",
]
