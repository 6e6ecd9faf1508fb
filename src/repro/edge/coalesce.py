"""Request coalescing: single requests micro-batched into one scoring call.

Work-conserving, with no coalescing timer: :meth:`MicroBatcher.submit`
parks the caller on a future in a FIFO and, when no drain task is
running, starts one.  The drain task takes up to ``max_batch`` queued
requests at a time, hands them whole to a serving thread of the
service's executor (:meth:`RecommendationService.hand_off
<repro.serving.service.RecommendationService.hand_off>`, one
``queue.SimpleQueue`` hop; ``loop.call_soon_threadsafe`` brings the
answers back), so the event loop never runs a tier, and loops until
the queue is empty.  Each batcher has at most one batch in flight, so
an idle edge answers a request at once and a busy edge batches exactly
the requests that queued behind the batch in flight.

The event loop cuts a stuck batch off (:func:`serve_handed_off`, also
behind ``/v1/recommend/batch``).  It arms one ``loop.call_at`` timer at
the batch deadline — the smallest ``deadline_ms`` in the batch, the
service default (50 ms) when none is given, capped at the edge by
:attr:`~repro.edge.http.EdgeConfig.max_deadline_ms`.  When it fires
first, the flight's ``cut_off()`` settles the tier in flight as a
timeout, keeps the answers earlier tiers produced and answers the rest
from the static-popularity path; the next batch goes to a fresh serving
thread.  So a queued request waits for at most one batch, the one in
flight when it arrived (more only when over ``max_batch`` requests are
queued ahead of it), and that batch for at most its deadline.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.serving.deadline import InlineExecutor
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


class _Runner:
    """A plain batch callable behind the same hand-off, with no deadline."""

    def __init__(self, runner: BatchRunner):
        self.runner = runner
        self.executor = InlineExecutor()

    def hand_off(self, requests: Sequence, done: Callable[[Any], None]) -> None:
        self.executor.hand_off(lambda: list(self.runner(requests)), done)


class MicroBatcher:
    """Asyncio coalescer with at most one batch in flight.

    ``service`` is normally the
    :class:`~repro.serving.service.RecommendationService`; a plain
    synchronous batch callable works too, on a serving thread of its
    own and with no deadline.  All futures of a dispatched batch
    resolve from one hand-off, in arrival order.
    """

    def __init__(self, service: Any, config: CoalesceConfig | None = None):
        self.config = config or CoalesceConfig()
        self.service = service if hasattr(service, "hand_off") else _Runner(service)
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
        try:
            result = await serve_handed_off(self.service, [request for request, _ in batch])
        except Exception as error:  # noqa: BLE001 - fan the failure out to callers
            for _, future in batch:
                if not future.done():
                    future.set_exception(error)
            return
        for (_, future), response in zip(batch, result):
            if not future.done():
                future.set_result(response)


async def serve_handed_off(service: Any, requests: Sequence[RecommendationRequest]) -> list:
    """Serve ``requests`` on a serving thread; cut the batch off at its deadline.

    ``service.hand_off`` returns the batch's flight, or ``None`` for a
    runner with no deadline.  Returns (or raises) whichever answer comes
    first: the serving thread's, or the cut-off's.
    """
    loop = asyncio.get_running_loop()
    answered: asyncio.Future = loop.create_future()

    def answer(result: Any) -> None:
        if not answered.done():
            answered.set_result(result)

    def done(result: Any) -> None:  # on the serving thread
        try:
            loop.call_soon_threadsafe(answer, result)
        except RuntimeError:
            pass  # the loop has closed: nobody waits for this batch any more

    def cut_off() -> None:
        responses = flight.cut_off()
        if responses is not None:
            answer(responses)

    timer = None
    try:
        flight = service.hand_off(requests, done)
        if flight is not None:
            timer = loop.call_at(loop.time() + flight.deadline.budget_ms / 1000.0, cut_off)
        result = await answered
    finally:
        if timer is not None:
            timer.cancel()
    if isinstance(result, BaseException):
        raise result
    return result
