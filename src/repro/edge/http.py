"""A stdlib-only asyncio HTTP/1.1 front end for the serving cascade.

:class:`EdgeServer` wraps a
:class:`~repro.serving.service.RecommendationService` behind a JSON API:

========  ==========================  =======================================
method    path                        behavior
========  ==========================  =======================================
POST      ``/v1/recommend``           one request; coalesced + micro-batched
GET       ``/v1/recommend``           same, query-string form (curl-friendly)
POST      ``/v1/recommend/batch``     explicit batch, handed off uncoalesced
POST      ``/v1/feedback``            durable WAL append (when ``wal=`` given)
GET       ``/v1/health``              liveness + breakers + model staleness
GET       ``/v1/metrics``             Prometheus text (``repro.obs`` export)
========  ==========================  =======================================

Design points:

* **versioned schemas** — every body is validated through
  :mod:`repro.edge.schema`; schema failures return a typed
  :class:`~repro.edge.schema.ErrorResponseV1` with field paths, never a
  bare 500;
* **coalescing** — single requests queue in a
  :class:`~repro.edge.coalesce.MicroBatcher`, which keeps one batch in
  flight: an idle edge dispatches a request at once, a busy one batches
  the requests that queued behind the batch in flight, so concurrent
  singles share one scoring pass, not N.  Each batch is one hand-off to
  a serving thread of the service's executor; the loop runs no tier;
* **deadline propagation** — a request's ``deadline_ms`` (capped by
  :attr:`EdgeConfig.max_deadline_ms`) flows straight into the service's
  per-request :class:`~repro.serving.deadline.Deadline` budget, and the
  event loop cuts a batch, coalesced or explicit, off at that deadline;
* **load shedding** — beyond :attr:`EdgeConfig.max_inflight` concurrent
  requests the server answers 429 immediately; beyond
  :attr:`EdgeConfig.max_connections` open sockets, or while draining,
  it answers 503.  Every shed carries a ``Retry-After`` header
  (:attr:`EdgeConfig.retry_after_s`) and is counted per reason *and*
  per route — a shed request is *not* a failed request;
* **observability** — per-route latency histograms and per-status
  counters in the shared :class:`~repro.obs.registry.MetricsRegistry`,
  scraped back out through ``/v1/metrics``.

Everything is standard library: ``asyncio`` streams, no web framework.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Coroutine
from urllib.parse import parse_qsl, urlsplit

from repro.edge.coalesce import CoalesceConfig, MicroBatcher, serve_handed_off
from repro.edge.schema import (
    API_VERSION,
    ERROR_DRAINING,
    ERROR_INTERNAL,
    ERROR_METHOD_NOT_ALLOWED,
    ERROR_NOT_FOUND,
    ERROR_OVERLOADED,
    ERROR_PAYLOAD_TOO_LARGE,
    MAX_BATCH_SIZE,
    BatchRecommendRequestV1,
    BatchRecommendResponseV1,
    ErrorResponseV1,
    FeedbackRequestV1,
    FeedbackResponseV1,
    FieldIssue,
    HealthResponseV1,
    ReadyResponseV1,
    RecommendRequestV1,
    RecommendResponseV1,
    SchemaError,
)
from repro.obs.export import prometheus_text
from repro.obs.registry import MetricsRegistry
from repro.serving.service import RecommendationService
from repro.streaming.wal import WalRecord, WriteAheadLog
from repro.utils.clock import Clock, as_clock
from repro.utils.exceptions import ConfigError

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: HTTP status each schema error code maps to.
_SCHEMA_STATUS = {"batch_too_large": 413, "payload_too_large": 413}


@dataclass(frozen=True)
class EdgeConfig:
    """Front-end knobs (the service keeps its own
    :class:`~repro.serving.service.ServiceConfig`)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral, read the bound port from the server
    max_connections: int = 128
    max_inflight: int = 64
    max_body_bytes: int = 1 << 20
    max_batch: int = MAX_BATCH_SIZE
    max_deadline_ms: float = 2_000.0
    default_deadline_ms: float | None = None  # None = service default
    idle_timeout_s: float = 30.0
    workers: int = 8
    """Threads for WAL appends only.  Every recommendation, coalesced or
    from ``/v1/recommend/batch``, runs on the serving threads of the
    service's executor (``max_workers`` of them)."""
    coalesce: CoalesceConfig = field(default_factory=CoalesceConfig)
    retry_after_s: float = 1.0  # Retry-After hint on every 429/503 shed
    # Highest feedback user id accepted = served n_users + this headroom.
    # Acknowledged ids are replayed forever and grow the factor matrix,
    # so the cap bounds what one hostile POST can commit into the WAL.
    feedback_user_headroom: int = 100_000

    def __post_init__(self):
        if self.max_connections < 1 or self.max_inflight < 1:
            raise ConfigError("max_connections and max_inflight must be >= 1")
        if self.max_batch < 1 or self.max_batch > MAX_BATCH_SIZE:
            raise ConfigError(f"max_batch must be in [1, {MAX_BATCH_SIZE}], got {self.max_batch}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.retry_after_s <= 0:
            raise ConfigError(f"retry_after_s must be > 0, got {self.retry_after_s}")
        if self.feedback_user_headroom < 0:
            raise ConfigError(
                f"feedback_user_headroom must be >= 0, got {self.feedback_user_headroom}"
            )


@dataclass(frozen=True)
class HttpRequest:
    """One parsed inbound request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes

    def json(self) -> Any:
        try:
            return json.loads(self.body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise SchemaError([FieldIssue("$", f"body is not valid JSON: {error}")]) from None


@dataclass(frozen=True)
class HttpResponse:
    """One outbound response (JSON unless ``content_type`` overrides)."""

    status: int
    payload: Any = None
    content_type: str = "application/json"
    body: bytes | None = None
    extra_headers: tuple[tuple[str, str], ...] = ()

    def encode(self, *, keep_alive: bool) -> bytes:
        body = self.body
        if body is None:
            body = (json.dumps(self.payload, sort_keys=True) + "\n").encode("utf-8")
        reason = _REASONS.get(self.status, "Unknown")
        extra = "".join(f"{name}: {value}\r\n" for name, value in self.extra_headers)
        head = (
            f"HTTP/1.1 {self.status} {reason}\r\n"
            f"Content-Type: {self.content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Server: repro-edge/{API_VERSION}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"{extra}"
            "\r\n"
        )
        return head.encode("ascii") + body


def _error_response(status: int, code: str, message: str, issues=(), *, headers=()) -> HttpResponse:
    return HttpResponse(
        status,
        ErrorResponseV1(code=code, message=message, issues=tuple(issues)).to_json_dict(),
        extra_headers=tuple(headers),
    )


class EdgeServer:
    """The asyncio front end.  One instance per served model/service.

    Use :meth:`start`/:meth:`stop` inside a running loop, or
    :class:`EdgeServerThread` to host it in a background thread (tests,
    benchmarks, the ``repro loadtest --self-boot`` path).
    """

    def __init__(
        self,
        service: RecommendationService,
        *,
        config: EdgeConfig | None = None,
        obs: MetricsRegistry | None = None,
        clock: Clock | None = None,
        wal: WriteAheadLog | None = None,
        readiness: Callable[[], tuple[bool, dict]] | None = None,
    ):
        self.service = service
        self.config = config or EdgeConfig()
        # The edge defaults to a *live* registry (unlike library code):
        # /v1/metrics is part of the API surface.
        self.obs = obs if obs is not None else MetricsRegistry()
        self.clock = as_clock(clock)
        self.wal = wal
        # Readiness is delegated to whoever owns the component tree (the
        # runtime supervisor); a standalone edge with no supervisor is
        # ready whenever it is not draining.
        self.readiness = readiness
        self._server: asyncio.base_events.Server | None = None
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-edge"
        )
        self._batcher = MicroBatcher(self.service, self.config.coalesce)
        self._connections = 0
        self._inflight = 0
        self._draining = False
        self._routes: dict[str, dict[str, Callable[[HttpRequest], Coroutine[Any, Any, HttpResponse]]]] = {
            "/v1/recommend": {"POST": self._handle_recommend, "GET": self._handle_recommend_get},
            "/v1/recommend/batch": {"POST": self._handle_batch},
            "/v1/health": {"GET": self._handle_health},
            "/v1/ready": {"GET": self._handle_ready},
            "/v1/metrics": {"GET": self._handle_metrics},
        }
        # The ingestion endpoint exists only when the server is given a
        # durable log to acknowledge into — a read-only edge has no
        # business returning 200 for feedback it cannot persist.
        if self.wal is not None:
            self._routes["/v1/feedback"] = {"POST": self._handle_feedback}

    def _retry_after(self) -> tuple[tuple[str, str], ...]:
        """The ``Retry-After`` header every 429/503 shed carries."""
        return (("Retry-After", str(max(1, math.ceil(self.config.retry_after_s)))),)

    def _shed(
        self, status: int, code: str, message: str, *, reason: str, route: str
    ) -> HttpResponse:
        """Count one shed (per reason *and* per route) and build its response."""
        self.obs.counter("http_shed_total", reason=reason, route=route).inc()
        return _error_response(status, code, message, headers=self._retry_after())

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    @property
    def port(self) -> int:
        if self._server is None:
            raise ConfigError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Drain: stop accepting, flush the coalescer, release workers."""
        self._draining = True
        await self._batcher.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._pool.shutdown(wait=False, cancel_futures=True)

    # -- connection / request plumbing ---------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._connections >= self.config.max_connections:
            # No request line has been read yet, so there is no route to
            # attribute this shed to — "none" keeps the label total.
            writer.write(
                self._shed(
                    503, ERROR_OVERLOADED, "server at connection capacity",
                    reason="connections", route="none",
                ).encode(keep_alive=False)
            )
            await self._close(writer)
            return
        self._connections += 1
        try:
            await self._connection_loop(reader, writer)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            self.obs.counter("http_connection_errors_total").inc()
        except asyncio.CancelledError:
            # Drain cancels parked keep-alive reads; finishing the task
            # normally keeps asyncio's reader-protocol done-callback
            # from re-raising the cancellation at loop teardown.
            self.obs.counter("http_connections_cancelled_total").inc()
        finally:
            self._connections -= 1
            await self._close(writer)

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            request = await self._read_request(reader, writer)
            if request is None:
                return
            keep_alive = request.headers.get("connection", "keep-alive").lower() != "close"
            response = await self._dispatch(request)
            writer.write(response.encode(keep_alive=keep_alive))
            await writer.drain()
            if not keep_alive:
                return

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> HttpRequest | None:
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=self.config.idle_timeout_s
            )
        except (asyncio.IncompleteReadError, asyncio.TimeoutError, asyncio.LimitOverrunError):
            return None
        try:
            request_line, *header_lines = head.decode("latin-1").split("\r\n")
            method, target, _protocol = request_line.split(" ", 2)
        except ValueError:
            writer.write(
                _error_response(400, "invalid_request", "malformed request line").encode(
                    keep_alive=False
                )
            )
            return None
        headers: dict[str, str] = {}
        for line in header_lines:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        split = urlsplit(target)
        if length > self.config.max_body_bytes:
            self.obs.counter(
                "http_shed_total", reason="body_size",
                route=split.path if split.path in self._routes else "unknown",
            ).inc()
            writer.write(
                _error_response(
                    413, ERROR_PAYLOAD_TOO_LARGE,
                    f"body of {length} bytes exceeds the {self.config.max_body_bytes} limit",
                ).encode(keep_alive=False)
            )
            return None
        body = await reader.readexactly(length) if length else b""
        query = dict(parse_qsl(split.query, keep_blank_values=True))
        return HttpRequest(
            method=method.upper(), path=split.path, query=query, headers=headers, body=body
        )

    async def _dispatch(self, request: HttpRequest) -> HttpResponse:
        route = self._routes.get(request.path)
        label = request.path if route is not None else "unknown"
        started = self.clock.monotonic()
        response = await self._route(request, route)
        latency_ms = (self.clock.monotonic() - started) * 1000.0
        self.obs.histogram("http_request_latency_ms", route=label).observe(latency_ms)
        self.obs.counter(
            "http_responses_total", route=label, status=str(response.status)
        ).inc()
        return response

    async def _route(self, request: HttpRequest, route) -> HttpResponse:
        label = request.path if route is not None else "unknown"
        if self._draining:
            return self._shed(
                503, ERROR_DRAINING, "server is draining",
                reason="draining", route=label,
            )
        if route is None:
            return _error_response(
                404, ERROR_NOT_FOUND, f"no such route: {request.path} (API root is /v1)"
            )
        handler = route.get(request.method)
        if handler is None:
            return _error_response(
                405, ERROR_METHOD_NOT_ALLOWED,
                f"{request.method} not allowed on {request.path} "
                f"(allowed: {', '.join(sorted(route))})",
            )
        if self._inflight >= self.config.max_inflight:
            return self._shed(
                429, ERROR_OVERLOADED,
                f"more than {self.config.max_inflight} requests in flight; retry",
                reason="inflight", route=label,
            )
        self._inflight += 1
        try:
            return await handler(request)
        except SchemaError as error:
            return HttpResponse(
                _SCHEMA_STATUS.get(error.code, 400),
                ErrorResponseV1.from_schema_error(error).to_json_dict(),
            )
        except Exception as error:  # noqa: BLE001 - the edge never leaks tracebacks
            self.obs.counter("http_internal_errors_total").inc()
            return _error_response(
                500, ERROR_INTERNAL, str(error) or type(error).__name__
            )
        finally:
            self._inflight -= 1

    # -- route handlers ------------------------------------------------
    def _clamp_deadline(self, parsed: RecommendRequestV1) -> RecommendRequestV1:
        deadline_ms = parsed.deadline_ms
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        if deadline_ms is not None:
            deadline_ms = min(deadline_ms, self.config.max_deadline_ms)
        if deadline_ms == parsed.deadline_ms:
            return parsed
        return RecommendRequestV1(
            user=parsed.user, k=parsed.k, history=parsed.history,
            deadline_ms=deadline_ms, exclude_observed=parsed.exclude_observed,
        )

    async def _serve_one(self, parsed: RecommendRequestV1) -> HttpResponse:
        served = await self._batcher.submit(self._clamp_deadline(parsed).to_serving())
        return HttpResponse(200, RecommendResponseV1(served=served).to_json_dict())

    async def _handle_recommend(self, request: HttpRequest) -> HttpResponse:
        parsed = RecommendRequestV1.from_json_dict(request.json())
        return await self._serve_one(parsed)

    async def _handle_recommend_get(self, request: HttpRequest) -> HttpResponse:
        parsed = RecommendRequestV1.from_json_dict(_query_to_payload(request.query))
        return await self._serve_one(parsed)

    async def _handle_batch(self, request: HttpRequest) -> HttpResponse:
        parsed = BatchRecommendRequestV1.from_json_dict(
            request.json(), max_batch=self.config.max_batch
        )
        serving_requests = [
            self._clamp_deadline(item).to_serving() for item in parsed.requests
        ]
        responses = await serve_handed_off(self.service, serving_requests)
        return HttpResponse(
            200, BatchRecommendResponseV1(responses=tuple(responses)).to_json_dict()
        )

    async def _handle_health(self, _request: HttpRequest) -> HttpResponse:
        snapshot = self.service.snapshot()
        return HttpResponse(
            200,
            HealthResponseV1(
                status="draining" if self._draining else "ok",
                model_version=snapshot["model_version"],
                requests_served=snapshot["requests_served"],
                model_age_s=snapshot.get("model_age_s"),
                breakers={
                    name: state.get("state", "unknown")
                    for name, state in snapshot["breakers"].items()
                },
            ).to_json_dict(),
        )

    async def _handle_ready(self, _request: HttpRequest) -> HttpResponse:
        # Reached only when not draining (_route sheds every request
        # with 503 while draining, which is the correct ready answer).
        if self.readiness is None:
            return HttpResponse(200, ReadyResponseV1(status="ready").to_json_dict())
        is_ready, detail = self.readiness()
        payload = ReadyResponseV1(
            status="ready" if is_ready else "not_ready",
            reason=detail.get("gate"),
            components=detail.get("components", {}),
            blocked_on=tuple(detail.get("blocked_on", ())),
        ).to_json_dict()
        if is_ready:
            return HttpResponse(200, payload)
        self.obs.counter("http_not_ready_total").inc()
        return HttpResponse(503, payload, extra_headers=self._retry_after())

    async def _handle_feedback(self, request: HttpRequest) -> HttpResponse:
        assert self.wal is not None  # route registered only with a WAL
        parsed = FeedbackRequestV1.from_json_dict(
            request.json(),
            max_user=self.service.train.n_users - 1 + self.config.feedback_user_headroom,
        )
        record = WalRecord(
            key=parsed.record_key(), user=parsed.user, items=parsed.items, ts=parsed.ts
        )
        # The append fsyncs before returning (per the WAL's policy), so
        # run it on the worker pool — the event loop must not block on
        # disk flushes while other connections wait.
        wal = self.wal
        loop = asyncio.get_running_loop()
        result = await loop.run_in_executor(self._pool, lambda: wal.append(record))
        self.obs.counter(
            "http_feedback_total", duplicate=str(result.duplicate).lower()
        ).inc()
        return HttpResponse(
            200,
            FeedbackResponseV1(
                duplicate=result.duplicate,
                segment=result.position.segment,
                offset=result.position.offset,
                records=len(wal),
            ).to_json_dict(),
        )

    async def _handle_metrics(self, _request: HttpRequest) -> HttpResponse:
        text = prometheus_text(self.obs)
        return HttpResponse(
            200, body=text.encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    async def _close(self, writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
            await writer.wait_closed()
        except asyncio.CancelledError:
            # A drain-time cancel can surface here (the task's pending
            # cancellation fires at the next await); the transport is
            # already closing, so finish the task normally.
            self.obs.counter("http_connections_cancelled_total").inc()
        except (ConnectionResetError, BrokenPipeError, OSError):
            self.obs.counter("http_connection_errors_total").inc()


def _query_to_payload(query: dict[str, str]) -> dict:
    """Coerce ``GET /v1/recommend`` query params into a v1 body dict."""
    payload: dict[str, Any] = {}
    issues: list[FieldIssue] = []
    for name in ("user", "k"):
        if name in query:
            try:
                payload[name] = int(query[name])
            except ValueError:
                issues.append(FieldIssue(name, f"expected an integer, got {query[name]!r}"))
    if "deadline_ms" in query:
        try:
            payload["deadline_ms"] = float(query["deadline_ms"])
        except ValueError:
            issues.append(
                FieldIssue("deadline_ms", f"expected a number, got {query['deadline_ms']!r}")
            )
    if "exclude_observed" in query:
        flag = query["exclude_observed"].lower()
        if flag in ("true", "1", "yes"):
            payload["exclude_observed"] = True
        elif flag in ("false", "0", "no"):
            payload["exclude_observed"] = False
        else:
            issues.append(
                FieldIssue("exclude_observed", f"expected a boolean, got {flag!r}")
            )
    if "history" in query and query["history"]:
        try:
            payload["history"] = [int(item) for item in query["history"].split(",")]
        except ValueError:
            issues.append(
                FieldIssue("history", "expected comma-separated integers")
            )
    if "version" in query:
        payload["version"] = query["version"]
    if issues:
        raise SchemaError(issues)
    return payload


class EdgeServerThread:
    """Host an :class:`EdgeServer` on a dedicated event-loop thread.

    The synchronous harness used by tests, benchmarks, and the CLI's
    self-boot loadtest::

        with EdgeServerThread(server) as addr:
            ...  # addr == (host, port); requests served concurrently

    Startup errors (e.g. a taken port) re-raise in the entering thread.
    """

    def __init__(self, server: EdgeServer):
        self.server = server
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self.address: tuple[str, int] | None = None

    def __enter__(self) -> tuple[str, int]:
        self._thread = threading.Thread(target=self._run, name="repro-edge-loop", daemon=True)
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._startup_error is not None:
            raise self._startup_error
        if self.address is None:
            raise ConfigError("edge server failed to start within 30s")
        return self.address

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def boot() -> None:
            try:
                self.address = await self.server.start()
            except BaseException as error:  # noqa: BLE001 - surfaced to __enter__
                self._startup_error = error
            finally:
                self._started.set()

        loop.run_until_complete(boot())
        if self._startup_error is None:
            loop.run_forever()
        loop.close()

    def __exit__(self, *exc_info: object) -> None:
        loop = self._loop
        if loop is None:
            return

        async def drain() -> None:
            await self.server.stop()
            # Cancel lingering connection handlers (parked keep-alive
            # reads) so the loop closes without destroying live tasks.
            current = asyncio.current_task()
            pending = [task for task in asyncio.all_tasks() if task is not current]
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
            loop.stop()

        asyncio.run_coroutine_threadsafe(drain(), loop)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
