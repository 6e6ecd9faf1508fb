"""The asynchronous HTTP edge: a versioned JSON API over the serving cascade.

``repro.edge`` puts :class:`~repro.serving.service.RecommendationService`
on the network without adding a single dependency:

* :mod:`~repro.edge.schema` — explicit v1 request/response dataclasses
  with typed field-path validation, unknown-field rejection, and
  version-skew refusal; the provenance payload *is*
  :class:`repro.serving.schema.ServedResponse`, shared with the
  in-process API;
* :mod:`~repro.edge.coalesce` — request coalescing: one
  ``recommend_batch`` call in flight, and the singles that queue behind
  it micro-batch into the next;
* :mod:`~repro.edge.http` — the stdlib asyncio server: ``/v1``
  routes, per-request deadline propagation, 429/503 load shedding,
  per-route metrics, Prometheus scrape endpoint;
* :mod:`~repro.edge.client` — the matching keep-alive client;
* :mod:`~repro.edge.loadgen` — the Zipf/diurnal/burst/replay traffic
  simulator and chaos-drill driver behind ``repro loadtest`` and
  ``benchmarks/bench_http.py``.
"""

from repro.edge.client import AsyncHttpClient, ClientError, HttpReply
from repro.edge.coalesce import CoalesceConfig, MicroBatcher
from repro.edge.http import EdgeConfig, EdgeServer, EdgeServerThread
from repro.edge.loadgen import (
    ChaosEvent,
    LoadReport,
    RequestOutcome,
    ScheduledRequest,
    WorkloadConfig,
    generate_schedule,
    load_trace,
    run_load,
    run_load_sync,
    save_trace,
    zipf_user_probabilities,
)
from repro.edge.schema import (
    API_VERSION,
    MAX_BATCH_SIZE,
    BatchRecommendRequestV1,
    BatchRecommendResponseV1,
    ErrorResponseV1,
    FeedbackRequestV1,
    FeedbackResponseV1,
    FieldIssue,
    HealthResponseV1,
    RecommendRequestV1,
    RecommendResponseV1,
    SchemaError,
)

__all__ = [
    "API_VERSION",
    "AsyncHttpClient",
    "BatchRecommendRequestV1",
    "BatchRecommendResponseV1",
    "ChaosEvent",
    "ClientError",
    "CoalesceConfig",
    "EdgeConfig",
    "EdgeServer",
    "EdgeServerThread",
    "ErrorResponseV1",
    "FeedbackRequestV1",
    "FeedbackResponseV1",
    "FieldIssue",
    "HealthResponseV1",
    "HttpReply",
    "LoadReport",
    "MAX_BATCH_SIZE",
    "MicroBatcher",
    "RecommendRequestV1",
    "RecommendResponseV1",
    "RequestOutcome",
    "ScheduledRequest",
    "SchemaError",
    "WorkloadConfig",
    "generate_schedule",
    "load_trace",
    "run_load",
    "run_load_sync",
    "save_trace",
    "zipf_user_probabilities",
]
