"""Request coalescing: single requests micro-batched into one scoring call.

Work-conserving, with no timer: :meth:`MicroBatcher.submit` parks the
caller on a future in a FIFO and, when no drain task is running, starts
one.  The drain task takes up to ``max_batch`` queued requests at a
time, runs them through :meth:`RecommendationService.recommend_batch
<repro.serving.service.RecommendationService.recommend_batch>` on a
worker thread (so the event loop never blocks on scoring), and loops
until the queue is empty.  Each batcher has at most one batch in
flight, so an idle edge answers a request at once and a busy edge
batches exactly the requests that queued behind the batch in flight.

Head-of-line bound: a queued request waits for at most one batch, the
one in flight when it arrived (more only when over ``max_batch``
requests are queued ahead of it).  The service's default threaded
executor cuts that batch off at its deadline — the smallest
``deadline_ms`` in the batch, the service default (50 ms) when none is
given, capped at the edge by
:attr:`~repro.edge.http.EdgeConfig.max_deadline_ms`.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.serving.schema import ServedResponse
from repro.serving.tiers import RecommendationRequest
from repro.utils.exceptions import ConfigError


@dataclass(frozen=True)
class CoalesceConfig:
    """Micro-batching knobs.

    Attributes
    ----------
    max_batch:
        Most requests one dispatch carries; a longer queue drains in
        arrival-order batches of this size.
    """

    max_batch: int = 16

    def __post_init__(self):
        if self.max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {self.max_batch}")


BatchRunner = Callable[[Sequence[RecommendationRequest]], Sequence[ServedResponse]]


class MicroBatcher:
    """Asyncio coalescer with at most one batch in flight.

    ``runner`` is the synchronous batch call (normally
    ``service.recommend_batch``); it is executed via
    ``loop.run_in_executor`` on ``executor`` so scoring happens off the
    event loop.  All futures of a dispatched batch resolve from one
    runner call, in arrival order.
    """

    def __init__(
        self,
        runner: BatchRunner,
        config: CoalesceConfig | None = None,
        *,
        executor: Any = None,
    ):
        self.config = config or CoalesceConfig()
        self.runner = runner
        self.executor = executor
        self.batches_dispatched_ = 0
        self._queue: deque[tuple[RecommendationRequest, asyncio.Future]] = deque()
        self._drain_task: asyncio.Task | None = None

    async def submit(self, request: RecommendationRequest) -> ServedResponse:
        """Queue ``request``; resolves with its response."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._queue.append((request, future))
        if self._drain_task is None:
            self._drain_task = loop.create_task(self._drain())
        # The drain task, not this caller, owns the dispatch: a caller
        # cancelling (dropped connection) cancels only its own future.
        return await future

    async def close(self) -> None:
        """Wait for the batch in flight and everything queued behind it."""
        if self._drain_task is not None:
            await asyncio.shield(self._drain_task)

    async def _drain(self) -> None:
        try:
            while self._queue:
                size = min(len(self._queue), self.config.max_batch)
                await self._dispatch([self._queue.popleft() for _ in range(size)])
        finally:
            self._drain_task = None

    async def _dispatch(self, batch: list) -> None:
        self.batches_dispatched_ += 1
        requests = [request for request, _ in batch]
        loop = asyncio.get_running_loop()
        try:
            responses = await loop.run_in_executor(
                self.executor, lambda: list(self.runner(requests))
            )
        except Exception as error:  # noqa: BLE001 - fan the failure out to callers
            for _, future in batch:
                if not future.done():
                    future.set_exception(error)
            return
        for (_, future), response in zip(batch, responses):
            if not future.done():
                future.set_result(response)
