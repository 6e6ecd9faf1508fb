"""Zipf/burst traffic simulator for the HTTP edge.

Workload generation is *offline and deterministic*: a
:class:`WorkloadConfig` plus a seed expands into a concrete schedule of
:class:`ScheduledRequest` arrivals before any traffic flows, so the same
config always replays the same user sequence.  The pieces:

* **user popularity** — Zipf-distributed (``p ∝ rank^{-s}``) over a
  seeded permutation of the user ids, so "popular" users are scattered
  across the id space instead of clustering at 0;
* **arrival process** — exponential inter-arrivals whose instantaneous
  rate follows the mode: ``zipf`` (steady), ``diurnal`` (sinusoidal
  day curve compressed into ``diurnal_period_s``), ``burst``
  (periodic ``burst_multiplier``× spikes), ``replay`` (a recorded
  trace);
* **chaos** — a list of :class:`ChaosEvent` schedule times applied
  mid-run through a shared-process
  :class:`~repro.resilience.chaos.ServiceFaultInjector`, so the drill
  exercises the cascade's fallback path while traffic is in flight;
* **the driver** — :func:`run_load` plays a schedule against a live
  server with ``concurrency`` keep-alive virtual clients and folds the
  outcomes into a :class:`LoadReport` (p50/p99, fallback rate, shed
  rate, failed count).

Shed (429/503) is counted separately from *failed* (transport errors,
5xx, unexpected 4xx): shedding is the server protecting itself, failure
is the server breaking its contract.  The CI chaos drill asserts
``failed == 0`` while faults are injected.
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.edge.client import AsyncHttpClient, ClientError
from repro.serving.tiers import PERSONALIZED
from repro.utils.atomicio import write_json_atomic
from repro.utils.clock import Clock, as_clock
from repro.utils.exceptions import ConfigError, DataError
from repro.utils.rng import as_generator

MODES = ("zipf", "diurnal", "burst", "replay")


@dataclass(frozen=True)
class WorkloadConfig:
    """One traffic scenario, fully determined by its fields + ``seed``."""

    n_users: int
    requests: int = 500
    rate_rps: float = 200.0
    mode: str = "zipf"
    zipf_s: float = 1.1
    k: int = 10
    deadline_ms: float | None = None
    diurnal_amplitude: float = 0.6
    diurnal_period_s: float = 60.0
    burst_every_s: float = 10.0
    burst_duration_s: float = 2.0
    burst_multiplier: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.n_users < 1:
            raise ConfigError(f"n_users must be >= 1, got {self.n_users}")
        if self.requests < 1:
            raise ConfigError(f"requests must be >= 1, got {self.requests}")
        if self.rate_rps <= 0:
            raise ConfigError(f"rate_rps must be > 0, got {self.rate_rps}")
        if not 0 <= self.diurnal_amplitude < 1:
            raise ConfigError(
                f"diurnal_amplitude must be in [0, 1), got {self.diurnal_amplitude}"
            )
        if self.burst_multiplier < 1:
            raise ConfigError(
                f"burst_multiplier must be >= 1, got {self.burst_multiplier}"
            )


@dataclass(frozen=True)
class ScheduledRequest:
    """One planned arrival."""

    at_s: float
    user: int
    k: int
    deadline_ms: float | None = None

    def to_json_dict(self) -> dict:
        payload: dict = {"at_s": round(self.at_s, 6), "user": self.user, "k": self.k}
        if self.deadline_ms is not None:
            payload["deadline_ms"] = self.deadline_ms
        return payload


@dataclass(frozen=True)
class ChaosEvent:
    """One mid-run fault transition at schedule time ``at_s``.

    ``action`` is one of ``latency`` / ``exception`` / ``nan`` /
    ``clear``; ``tier`` names the cascade tier to poison (ignored for
    ``clear``).
    """

    at_s: float
    action: str
    tier: str = PERSONALIZED
    latency_ms: float = 0.0

    def apply(self, chaos) -> None:
        if self.action == "clear":
            chaos.clear()
        elif self.action == "latency":
            chaos.inject(self.tier, latency_ms=self.latency_ms)
        elif self.action == "exception":
            chaos.inject(self.tier, exception=True)
        elif self.action == "nan":
            chaos.inject(self.tier, nan_scores=True)
        else:
            raise ConfigError(f"unknown chaos action {self.action!r}")


def zipf_user_probabilities(n_users: int, s: float, rng) -> np.ndarray:
    """``p[user] ∝ rank^{-s}`` with ranks assigned by a seeded permutation."""
    ranks = np.arange(1, n_users + 1, dtype=np.float64)
    weights = ranks ** (-float(s))
    probabilities = np.empty(n_users, dtype=np.float64)
    probabilities[rng.permutation(n_users)] = weights / weights.sum()
    return probabilities


def _rate_at(config: WorkloadConfig, t: float) -> float:
    rate = config.rate_rps
    if config.mode == "diurnal":
        rate *= 1.0 + config.diurnal_amplitude * math.sin(
            2.0 * math.pi * t / config.diurnal_period_s
        )
    elif config.mode == "burst":
        if (t % config.burst_every_s) < config.burst_duration_s:
            rate *= config.burst_multiplier
    return max(rate, 1e-6)


def generate_schedule(config: WorkloadConfig) -> list[ScheduledRequest]:
    """Expand a config into concrete arrivals (deterministic in ``seed``)."""
    rng = as_generator(config.seed)
    probabilities = zipf_user_probabilities(config.n_users, config.zipf_s, rng)
    users = rng.choice(config.n_users, size=config.requests, p=probabilities)
    schedule: list[ScheduledRequest] = []
    t = 0.0
    for user in users:
        t += float(rng.exponential(1.0 / _rate_at(config, t)))
        schedule.append(
            ScheduledRequest(
                at_s=t, user=int(user), k=config.k, deadline_ms=config.deadline_ms
            )
        )
    return schedule


def save_trace(path: str | Path, schedule: Sequence[ScheduledRequest]) -> Path:
    """Persist a schedule for ``replay`` mode (atomic write)."""
    return write_json_atomic(
        path,
        {"version": "v1", "requests": [request.to_json_dict() for request in schedule]},
    )


def load_trace(path: str | Path) -> list[ScheduledRequest]:
    """Read back a :func:`save_trace` artifact."""
    import json

    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict) or "requests" not in raw:
        raise DataError(f"{path} is not a loadgen trace (missing 'requests')")
    return [
        ScheduledRequest(
            at_s=float(item["at_s"]),
            user=int(item["user"]),
            k=int(item.get("k", 10)),
            deadline_ms=item.get("deadline_ms"),
        )
        for item in raw["requests"]
    ]


@dataclass(frozen=True)
class RequestOutcome:
    """What happened to one scheduled request.

    ``retries`` counts transport-level resends: a real client facing a
    snapped connection retries against the restarted server, so a
    request that eventually succeeds is a success with a retry count,
    not a failure.  Only retries-exhausted surfaces as
    ``transport_error=True``.
    """

    status: int
    latency_ms: float
    served_by: str | None = None
    degraded: bool = False
    transport_error: bool = False
    retries: int = 0


#: Statuses that count as deliberate load shedding, not failure.
SHED_STATUSES = frozenset({429, 503})


@dataclass
class LoadReport:
    """Aggregated outcomes of one load run."""

    outcomes: list[RequestOutcome] = field(default_factory=list)
    duration_s: float = 0.0
    concurrency: int = 1
    mode: str = "zipf"

    def record(self, outcome: RequestOutcome) -> None:
        self.outcomes.append(outcome)

    # -- derived -------------------------------------------------------
    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def ok(self) -> int:
        return sum(1 for o in self.outcomes if o.status == 200)

    @property
    def shed(self) -> int:
        return sum(
            1 for o in self.outcomes
            if not o.transport_error and o.status in SHED_STATUSES
        )

    @property
    def failed(self) -> int:
        """Contract breaches: transport errors + anything not 200/shed."""
        return sum(
            1 for o in self.outcomes
            if o.transport_error
            or (o.status != 200 and o.status not in SHED_STATUSES)
        )

    @property
    def degraded(self) -> int:
        return sum(1 for o in self.outcomes if o.status == 200 and o.degraded)

    @property
    def retried(self) -> int:
        """Requests that needed at least one transport-level resend."""
        return sum(1 for o in self.outcomes if o.retries > 0)

    def fallback_rate(self) -> float:
        """Fraction of 200s served by any tier below ``personalized``."""
        served = [o for o in self.outcomes if o.status == 200]
        if not served:
            return 0.0
        fallbacks = sum(1 for o in served if o.served_by != PERSONALIZED)
        return fallbacks / len(served)

    def shed_rate(self) -> float:
        return self.shed / self.total if self.total else 0.0

    def latency_percentiles(self) -> dict[str, float]:
        served = [o.latency_ms for o in self.outcomes if o.status == 200]
        if not served:
            return {"p50_ms": 0.0, "p90_ms": 0.0, "p99_ms": 0.0}
        values = np.asarray(served, dtype=np.float64)
        p50, p90, p99 = np.percentile(values, [50.0, 90.0, 99.0])
        return {
            "p50_ms": round(float(p50), 3),
            "p90_ms": round(float(p90), 3),
            "p99_ms": round(float(p99), 3),
        }

    def tier_mix(self) -> dict[str, int]:
        mix: dict[str, int] = {}
        for outcome in self.outcomes:
            if outcome.status == 200 and outcome.served_by:
                mix[outcome.served_by] = mix.get(outcome.served_by, 0) + 1
        return mix

    def to_json_dict(self) -> dict:
        throughput = self.total / self.duration_s if self.duration_s > 0 else 0.0
        return {
            "mode": self.mode,
            "concurrency": self.concurrency,
            "total": self.total,
            "ok": self.ok,
            "shed": self.shed,
            "failed": self.failed,
            "degraded": self.degraded,
            "retried": self.retried,
            "fallback_rate": round(self.fallback_rate(), 4),
            "shed_rate": round(self.shed_rate(), 4),
            "duration_s": round(self.duration_s, 3),
            "throughput_rps": round(throughput, 1),
            "tier_mix": self.tier_mix(),
            **self.latency_percentiles(),
        }


async def run_load(
    host: str,
    port: int,
    schedule: Sequence[ScheduledRequest],
    *,
    concurrency: int = 8,
    mode: str = "zipf",
    clock: Clock | None = None,
    chaos=None,
    chaos_events: Sequence[ChaosEvent] = (),
    use_get_every: int = 0,
    timeout_s: float = 10.0,
    max_attempts: int = 1,
    retry_backoff_s: float = 0.05,
) -> LoadReport:
    """Play ``schedule`` against a live edge server.

    ``concurrency`` virtual clients (each its own keep-alive
    connection) pull arrivals from a shared queue, sleeping until each
    arrival time is due; a client that falls behind sends immediately,
    so bursts overflow into queueing like real traffic.  When
    ``chaos`` (a shared-process ``ServiceFaultInjector``) is given, each
    of ``chaos_events`` is applied just before the first arrival at or
    after its ``at_s`` is sent: events run on the schedule clock, so a
    fault window covers the same arrivals however far the server lags
    behind the schedule.  An event timed after the last arrival never
    fires.
    Every ``use_get_every``-th request uses the ``GET`` form of
    ``/v1/recommend`` to keep both entry points exercised.

    ``max_attempts > 1`` enables transport-error retries with linear
    backoff (``retry_backoff_s * attempt``): the disaster drills kill
    the edge component mid-traffic, and the contract under test is
    "every request eventually succeeds against the restarted server",
    so the virtual clients must behave like real retrying clients.
    Non-200 *responses* are never retried — only snapped connections.
    """
    if concurrency < 1:
        raise ConfigError(f"concurrency must be >= 1, got {concurrency}")
    if max_attempts < 1:
        raise ConfigError(f"max_attempts must be >= 1, got {max_attempts}")
    clock = as_clock(clock)
    report = LoadReport(concurrency=concurrency, mode=mode)
    queue: asyncio.Queue = asyncio.Queue()
    for index, request in enumerate(schedule):
        queue.put_nowait((index, request))
    events = deque(sorted(chaos_events, key=lambda e: e.at_s) if chaos is not None else ())
    started = clock.monotonic()

    async def worker() -> None:
        client = AsyncHttpClient(host, port, timeout_s=timeout_s)
        try:
            while True:
                try:
                    index, request = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                delay = request.at_s - (clock.monotonic() - started)
                if delay > 0:
                    await asyncio.sleep(delay)
                while events and events[0].at_s <= request.at_s:
                    events.popleft().apply(chaos)
                report.record(
                    await _fire(
                        client, request, clock, use_get_every, index,
                        max_attempts=max_attempts, retry_backoff_s=retry_backoff_s,
                    )
                )
        finally:
            await client.close()

    tasks = [asyncio.create_task(worker()) for _ in range(concurrency)]
    await asyncio.gather(*tasks)
    report.duration_s = clock.monotonic() - started
    return report


async def _fire(
    client: AsyncHttpClient,
    request: ScheduledRequest,
    clock: Clock,
    use_get_every: int,
    index: int,
    *,
    max_attempts: int = 1,
    retry_backoff_s: float = 0.05,
) -> RequestOutcome:
    sent = clock.monotonic()
    reply = None
    retries = 0
    for attempt in range(max_attempts):
        try:
            if use_get_every and index % use_get_every == 0:
                query = f"/v1/recommend?user={request.user}&k={request.k}"
                if request.deadline_ms is not None:
                    query += f"&deadline_ms={request.deadline_ms}"
                reply = await client.get(query)
            else:
                payload: dict = {"user": request.user, "k": request.k}
                if request.deadline_ms is not None:
                    payload["deadline_ms"] = request.deadline_ms
                reply = await client.post("/v1/recommend", payload)
            break
        except ClientError:
            if attempt + 1 >= max_attempts:
                return RequestOutcome(
                    status=0,
                    latency_ms=(clock.monotonic() - sent) * 1000.0,
                    transport_error=True,
                    retries=retries,
                )
            retries += 1
            await asyncio.sleep(retry_backoff_s * (attempt + 1))
    assert reply is not None
    latency_ms = (clock.monotonic() - sent) * 1000.0
    served_by = None
    degraded = False
    if reply.status == 200:
        try:
            body = reply.json()
            served_by = body.get("served_by")
            degraded = bool(body.get("degraded", False))
        except ValueError:
            return RequestOutcome(
                status=reply.status, latency_ms=latency_ms,
                transport_error=True, retries=retries,
            )
    return RequestOutcome(
        status=reply.status,
        latency_ms=latency_ms,
        served_by=served_by,
        degraded=degraded,
        retries=retries,
    )


def run_load_sync(
    host: str,
    port: int,
    schedule: Sequence[ScheduledRequest],
    **kwargs,
) -> LoadReport:
    """Synchronous entry point for the CLI and benchmarks."""
    return asyncio.run(run_load(host, port, schedule, **kwargs))
