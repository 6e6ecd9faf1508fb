"""Live-socket tests of the HTTP edge.

A real :class:`EdgeServer` (hosted by :class:`EdgeServerThread` on an
ephemeral port, backed by a BPR model over the hand-checked 4x6 tiny
matrix) is driven with stdlib ``http.client``.  Routes, error mappings,
and the cold-user degradation contract are asserted against the same
golden fixtures that pin the schema layer, so the wire behavior and the
schema behavior cannot drift apart.
"""

from __future__ import annotations

import asyncio
import http.client
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.data.interactions import InteractionMatrix
from repro.edge import (
    ChaosEvent,
    CoalesceConfig,
    EdgeConfig,
    EdgeServer,
    EdgeServerThread,
    ScheduledRequest,
    WorkloadConfig,
    generate_schedule,
    run_load_sync,
)
from repro.edge.schema import HealthResponseV1, RecommendResponseV1
from repro.mf.sgd import SGDConfig
from repro.models import BPR
from repro.resilience.chaos import ServiceFaultInjector
from repro.serving import (
    BreakerConfig,
    RecommendationService,
    ServiceConfig,
    ThreadedExecutor,
)
from repro.streaming import WriteAheadLog

GOLDEN_DIR = Path(__file__).parent / "golden" / "http"

#: Same pattern as the ``tiny_matrix`` conftest fixture (module-scoped
#: copy): user 3 is cold, item 2 is the unambiguous popularity leader.
TINY_PAIRS = [(0, 0), (0, 1), (0, 2), (1, 2), (1, 3), (2, 5)]


def load_golden(name: str) -> dict:
    with open(GOLDEN_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def http_json(host, port, method, path, payload=None, *, timeout=10.0):
    """One request over a fresh connection; returns (status, decoded body)."""
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        content_type = response.getheader("Content-Type", "")
        data = json.loads(raw) if content_type.startswith("application/json") else raw
        return response.status, data
    finally:
        connection.close()


@pytest.fixture(scope="module")
def stack():
    matrix = InteractionMatrix.from_pairs(TINY_PAIRS, n_users=4, n_items=6)
    model = BPR(n_factors=4, sgd=SGDConfig(n_epochs=1), seed=0).fit(matrix)
    service = RecommendationService.build(
        model,
        matrix,
        config=ServiceConfig(default_deadline_ms=250.0),
        executor=ThreadedExecutor(max_workers=2),
    )
    yield matrix, model, service
    service.close()


@pytest.fixture(scope="module")
def edge(stack):
    _, _, service = stack
    server = EdgeServer(
        service,
        config=EdgeConfig(workers=2, coalesce=CoalesceConfig(max_batch=8)),
    )
    with EdgeServerThread(server) as (host, port):
        yield host, port


class TestLiveRoutes:
    def test_health(self, edge):
        status, body = http_json(*edge, "GET", "/v1/health")
        assert status == 200
        parsed = HealthResponseV1.from_json_dict(body)
        assert parsed.status == "ok"
        assert "personalized" in parsed.breakers
        assert "popularity" in parsed.breakers
        # Model staleness: slot age on the real clock, >= 0 and present.
        assert parsed.model_age_s is not None
        assert parsed.model_age_s >= 0.0

    def test_recommend_carries_model_age_provenance(self, edge):
        status, body = http_json(*edge, "POST", "/v1/recommend", {"user": 0, "k": 2})
        assert status == 200
        assert body["model_age_s"] is not None
        assert body["model_age_s"] >= 0.0

    def test_post_recommend_round_trips_through_the_schema(self, edge):
        status, body = http_json(*edge, "POST", "/v1/recommend", {"user": 0, "k": 3})
        assert status == 200
        parsed = RecommendResponseV1.from_json_dict(body)
        assert parsed.served.user == 0
        assert len(parsed.served.items) == 3
        assert parsed.served.latency_ms >= 0.0
        # Wire body is exactly the parsed form re-serialized: no extras.
        assert parsed.to_json_dict() == body

    def test_cold_user_get_is_served_degraded_not_404(self, edge):
        # Satellite: a valid-but-cold user is an expected case, not an
        # error — the popularity tier answers with degraded provenance.
        status, body = http_json(*edge, "GET", "/v1/recommend?user=3&k=4")
        assert status == 200
        assert body["served_by"] == "popularity"
        assert body["degraded"] is True
        assert body["items"][0] == 2  # item 2 is the popularity leader
        assert "personalized" in body["tier_errors"]

    def test_batch_matches_singles_bitwise(self, edge):
        singles = [
            http_json(*edge, "POST", "/v1/recommend", {"user": user, "k": 4})[1]
            for user in range(4)
        ]
        status, batch = http_json(
            *edge, "POST", "/v1/recommend/batch",
            {"requests": [{"user": user, "k": 4} for user in range(4)]},
        )
        assert status == 200
        assert len(batch["responses"]) == 4
        for single, batched in zip(singles, batch["responses"]):
            assert batched["user"] == single["user"]
            assert batched["items"] == single["items"]

    def test_metrics_scrape(self, edge):
        host, port = edge
        connection = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            connection.request("GET", "/v1/metrics")
            response = connection.getresponse()
            text = response.read().decode("utf-8")
            assert response.status == 200
            assert response.getheader("Content-Type", "").startswith("text/plain")
        finally:
            connection.close()
        assert "http_request_latency_ms" in text
        assert "http_responses_total" in text

    def test_keep_alive_serves_sequential_requests(self, edge):
        host, port = edge
        connection = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            for _ in range(3):
                connection.request("GET", "/v1/health")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
        finally:
            connection.close()


class TestLiveGoldenErrors:
    @pytest.mark.parametrize(
        "name",
        [
            "recommend_malformed_field",
            "recommend_wrong_version",
            "batch_malformed_nested",
            "batch_oversized",
        ],
    )
    def test_request_fixtures_get_their_pinned_error_body(self, edge, name):
        fixture = load_golden(name)
        status, body = http_json(
            *edge, fixture["method"], fixture["route"], fixture["request"]
        )
        assert status == fixture["expect"]["status"]
        assert body == fixture["expect"]["body"]

    @pytest.mark.parametrize("name", ["error_not_found", "error_method_not_allowed"])
    def test_routing_fixtures_get_their_pinned_error_body(self, edge, name):
        fixture = load_golden(name)
        status, body = http_json(*edge, fixture["method"], fixture["route"])
        assert status == fixture["expect"]["status"]
        assert body == fixture["expect"]["body"]

    def test_invalid_json_body_is_a_400(self, edge):
        host, port = edge
        connection = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            connection.request(
                "POST", "/v1/recommend", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert body["error"]["code"] == "invalid_request"
            assert body["error"]["issues"][0]["path"] == "$"
        finally:
            connection.close()

    def test_bad_query_param_is_a_400_with_path(self, edge):
        status, body = http_json(*edge, "GET", "/v1/recommend?user=abc")
        assert status == 400
        assert body["error"]["issues"][0]["path"] == "user"


class TestSheddingAndDraining:
    """Shed paths unit-tested on an unstarted server: deterministic."""

    def make_server(self, **overrides):
        dummy = SimpleNamespace(recommend_batch=lambda requests: [])
        config = EdgeConfig(workers=1, **overrides)
        return EdgeServer(dummy, config=config)

    def request(self):
        from repro.edge.http import HttpRequest

        return HttpRequest(method="GET", path="/v1/health", query={}, headers={}, body=b"")

    def test_inflight_cap_sheds_429_with_retry_after(self):
        server = self.make_server(max_inflight=1)
        try:
            server._inflight = 1
            route = server._routes["/v1/health"]
            response = asyncio.run(server._route(self.request(), route))
            assert response.status == 429
            assert response.payload["error"]["code"] == "overloaded"
            assert ("Retry-After", "1") in response.extra_headers
            assert b"Retry-After: 1\r\n" in response.encode(keep_alive=True)
        finally:
            server._pool.shutdown(wait=False)

    def test_draining_sheds_503_with_retry_after(self):
        server = self.make_server(retry_after_s=2.5)
        try:
            server._draining = True
            route = server._routes["/v1/health"]
            response = asyncio.run(server._route(self.request(), route))
            assert response.status == 503
            assert response.payload["error"]["code"] == "draining"
            # Retry-After is RFC delay-seconds: an integer, rounded up.
            assert ("Retry-After", "3") in response.extra_headers
        finally:
            server._pool.shutdown(wait=False)

    def test_shed_responses_are_counted_per_reason_and_route(self):
        server = self.make_server(max_inflight=1)
        try:
            server._inflight = 1
            route = server._routes["/v1/health"]
            asyncio.run(server._route(self.request(), route))
            counter = server.obs.counter(
                "http_shed_total", reason="inflight", route="/v1/health"
            )
            assert counter.value == 1.0
        finally:
            server._pool.shutdown(wait=False)

    def test_connection_cap_sheds_503_with_retry_after(self, stack):
        _, _, service = stack
        server = EdgeServer(service, config=EdgeConfig(max_connections=1, workers=1))
        with EdgeServerThread(server) as (host, port):
            first = http.client.HTTPConnection(host, port, timeout=10.0)
            try:
                first.request("GET", "/v1/health")
                assert first.getresponse().status == 200
                # keep-alive: `first` still occupies the one slot
                second = http.client.HTTPConnection(host, port, timeout=10.0)
                try:
                    second.request("GET", "/v1/health")
                    response = second.getresponse()
                    body = json.loads(response.read())
                    assert response.status == 503
                    assert body["error"]["code"] == "overloaded"
                    assert response.getheader("Retry-After") == "1"
                finally:
                    second.close()
            finally:
                first.close()
        counter = server.obs.counter(
            "http_shed_total", reason="connections", route="none"
        )
        assert counter.value == 1.0


class TestFeedbackRoute:
    """POST /v1/feedback: durable acknowledgement into the WAL."""

    @pytest.fixture()
    def feedback_edge(self, stack, tmp_path):
        _, _, service = stack
        wal = WriteAheadLog(tmp_path / "wal")
        server = EdgeServer(
            service, config=EdgeConfig(workers=2), wal=wal
        )
        with EdgeServerThread(server) as (host, port):
            yield host, port, wal
        wal.close()

    def test_feedback_is_acknowledged_and_durable(self, feedback_edge):
        host, port, wal = feedback_edge
        status, body = http_json(
            host, port, "POST", "/v1/feedback",
            {"user": 1, "items": [2, 3], "key": "evt-1", "ts": 10.0},
        )
        assert status == 200
        assert body["status"] == "acknowledged"
        assert body["duplicate"] is False
        assert body["records"] == 1
        assert "evt-1" in wal
        record = next(iter(wal.read()))[1]
        assert record.user == 1 and record.items == (2, 3)

    def test_duplicate_delivery_is_idempotent(self, feedback_edge):
        host, port, wal = feedback_edge
        payload = {"user": 2, "items": [0], "key": "evt-dup"}
        first = http_json(host, port, "POST", "/v1/feedback", payload)[1]
        second = http_json(host, port, "POST", "/v1/feedback", payload)[1]
        assert first["duplicate"] is False
        assert second["duplicate"] is True
        assert second["records"] == first["records"]
        assert len(wal) == 1

    def test_invalid_feedback_is_a_400_not_an_append(self, feedback_edge):
        host, port, wal = feedback_edge
        status, body = http_json(
            host, port, "POST", "/v1/feedback", {"user": -1, "items": []}
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_request"
        assert len(wal) == 0

    def test_absurd_user_id_is_rejected_not_acknowledged(self, feedback_edge):
        # A durably acknowledged user=10**12 would be replayed forever
        # and size the factor matrix on every resume; the edge must
        # bounce it as a 400 before the WAL sees it.
        host, port, wal = feedback_edge
        status, body = http_json(
            host, port, "POST", "/v1/feedback", {"user": 10**12, "items": [1]}
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_request"
        assert body["error"]["issues"][0]["path"] == "user"
        assert len(wal) == 0

    def test_feedback_route_absent_without_a_wal(self, edge):
        status, body = http_json(
            *edge, "POST", "/v1/feedback", {"user": 0, "items": [1]}
        )
        assert status == 404
        assert body["error"]["code"] == "not_found"


class TestLoadgenAgainstLiveServer:
    def test_zipf_drill_has_zero_failed_requests(self, edge):
        host, port = edge
        schedule = generate_schedule(
            WorkloadConfig(n_users=4, requests=30, rate_rps=500.0, k=3, seed=1)
        )
        report = run_load_sync(host, port, schedule, concurrency=4, use_get_every=5)
        assert report.total == 30
        assert report.failed == 0
        assert report.ok + report.shed == 30
        assert report.to_json_dict()["p99_ms"] > 0.0

    def test_chaos_events_fire_on_the_schedule_clock(self, stack):
        """A slowed edge still degrades exactly the arrivals between the events.

        The schedule packs 60 arrivals into 0.6 ms while one client sends
        them one round trip at a time, so the run lasts far longer than
        its schedule on any host.  With one client, the fault must cover
        arrivals 20-39 and nothing else; the breaker never opens, so a
        degraded response can only come from the injected fault.
        """
        matrix, model, _ = stack
        chaos = ServiceFaultInjector()
        service = RecommendationService.build(
            model,
            matrix,
            config=ServiceConfig(
                default_deadline_ms=1000.0, breaker=BreakerConfig(min_calls=10_000)
            ),
            executor=ThreadedExecutor(max_workers=2),
            chaos=chaos,
        )
        warm_users = [0, 1, 2]
        schedule = [
            ScheduledRequest(at_s=i * 1e-5, user=warm_users[i % 3], k=3) for i in range(60)
        ]
        events = [
            ChaosEvent(at_s=schedule[20].at_s, action="exception"),
            ChaosEvent(at_s=schedule[40].at_s, action="clear"),
        ]
        server = EdgeServer(
            service,
            config=EdgeConfig(workers=1, coalesce=CoalesceConfig(max_batch=8)),
        )
        try:
            with EdgeServerThread(server) as (host, port):
                report = run_load_sync(
                    host, port, schedule, concurrency=1, chaos=chaos, chaos_events=events
                )
        finally:
            service.close()
        assert report.failed == 0
        assert report.duration_s > 10 * schedule[-1].at_s
        degraded = [outcome.degraded for outcome in report.outcomes]
        assert degraded == [20 <= i < 40 for i in range(60)]


    def test_stuck_batch_delays_the_next_by_one_deadline(self, stack):
        """Head-of-line bound of the coalescer.

        The personalized tier sleeps six deadlines.  Request A's batch is
        cut off at its deadline; B, sent while A is in flight, queues
        behind it and then gets its own batch, cut off the same way.  So
        B waits for one batch and answers a 200 fallback within about
        two deadlines, long before the tier wakes up.
        """
        matrix, model, _ = stack
        deadline_ms = 100.0
        chaos = ServiceFaultInjector().inject("personalized", latency_ms=6 * deadline_ms)
        service = RecommendationService.build(
            model,
            matrix,
            config=ServiceConfig(
                default_deadline_ms=deadline_ms, breaker=BreakerConfig(min_calls=10_000)
            ),
            executor=ThreadedExecutor(max_workers=4),
            chaos=chaos,
        )
        schedule = [
            ScheduledRequest(at_s=0.0, user=0, k=3, deadline_ms=deadline_ms),
            ScheduledRequest(at_s=0.02, user=1, k=3, deadline_ms=deadline_ms),
        ]
        server = EdgeServer(
            service, config=EdgeConfig(workers=2, coalesce=CoalesceConfig(max_batch=8))
        )
        try:
            with EdgeServerThread(server) as (host, port):
                report = run_load_sync(host, port, schedule, concurrency=2)
        finally:
            service.close()
        assert report.failed == 0
        assert [outcome.status for outcome in report.outcomes] == [200, 200]
        assert all(outcome.served_by != "personalized" for outcome in report.outcomes)
        assert server._batcher.batches_dispatched_ == 2  # B queued behind A
        assert report.outcomes[1].latency_ms < 2 * deadline_ms + 100.0


class TestReadiness:
    """``/v1/ready``: routability as the supervisor sees it (satellite 2)."""

    def test_ready_without_a_supervisor_matches_golden(self, edge):
        status, body = http_json(*edge, "GET", "/v1/ready")
        assert status == 200
        assert body == load_golden("ready_response")["wire"]

    def test_gated_stack_answers_503_with_retry_after(self, stack):
        _, _, service = stack
        fixture = load_golden("ready_not_ready_response")

        def readiness():
            detail = {
                "gate": fixture["wire"]["reason"],
                "components": fixture["wire"]["components"],
                "blocked_on": fixture["wire"]["blocked_on"],
            }
            return False, detail

        server = EdgeServer(service, config=EdgeConfig(workers=1), readiness=readiness)
        with EdgeServerThread(server) as (host, port):
            connection = http.client.HTTPConnection(host, port, timeout=10.0)
            try:
                connection.request("GET", "/v1/ready")
                response = connection.getresponse()
                body = json.loads(response.read())
                assert response.status == fixture["expect_status"]
                assert response.getheader("Retry-After") == "1"
            finally:
                connection.close()
            assert body == fixture["wire"]
            # Liveness stays 200 while readiness gates: a load balancer
            # drains this replica without the supervisor killing it.
            status, _ = http_json(host, port, "GET", "/v1/health")
            assert status == 200

    def test_readiness_flips_back_to_200_when_the_gate_lifts(self, stack):
        _, _, service = stack
        gate = {"reason": "restoring"}

        def readiness():
            if gate["reason"] is None:
                return True, {"components": {"edge": "running"}, "blocked_on": []}
            return False, {"gate": gate["reason"], "components": {}, "blocked_on": []}

        server = EdgeServer(service, config=EdgeConfig(workers=1), readiness=readiness)
        with EdgeServerThread(server) as (host, port):
            status, body = http_json(host, port, "GET", "/v1/ready")
            assert status == 503
            assert body["reason"] == "restoring"
            gate["reason"] = None
            status, body = http_json(host, port, "GET", "/v1/ready")
            assert status == 200
            assert body["status"] == "ready"
            assert body["components"] == {"edge": "running"}
