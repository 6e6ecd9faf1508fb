"""Per-request deadlines and budget-aware tier execution.

A serving request arrives with a total time budget (say 50 ms).  Each
cascade tier gets whatever is left of that budget; a tier that overruns
is cut off, recorded, and the request falls through to the next tier —
the request never blocks on a sick tier for longer than its own
deadline.

Two executor strategies implement the ``call(fn, budget_ms)`` contract:

* :class:`ThreadedExecutor` — runs the tier call on a worker thread and
  abandons it at the timeout (``future.result(timeout=...)``).  Python
  threads cannot be killed, so an abandoned call keeps running in the
  background until it finishes; the pool is sized so a burst of stuck
  calls degrades to breaker-open behavior instead of unbounded thread
  growth.  This is the production strategy: a genuinely wedged
  ``recommend_batch`` cannot stall the request.
* :class:`InlineExecutor` — runs the call inline and raises
  :class:`~repro.utils.exceptions.DeadlineExceeded` *after the fact*
  when the measured latency exceeded the budget.  With a
  :class:`~repro.utils.clock.FakeClock` this makes every deadline
  path deterministic and sleep-free in tests; it cannot pre-empt a call
  mid-flight, so production setups should prefer the threaded strategy.

Both count overruns (``overruns_``/``overrun_ms_``) so the service can
report how much deadline pressure each tier is causing.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Callable, TypeVar

from repro.utils.clock import Clock, as_clock
from repro.utils.exceptions import ConfigError, DeadlineExceeded

T = TypeVar("T")


class Deadline:
    """A countdown started at request arrival.

    ``remaining_ms()`` is what the cascade hands to each tier; once it
    hits zero the request can only be answered from the static
    emergency path.
    """

    def __init__(self, budget_ms: float, *, clock: Clock | None = None):
        if budget_ms <= 0:
            raise ConfigError(f"deadline budget_ms must be > 0, got {budget_ms}")
        self.budget_ms = float(budget_ms)
        self.clock = as_clock(clock)
        self._start = self.clock.monotonic()

    def elapsed_ms(self) -> float:
        return (self.clock.monotonic() - self._start) * 1000.0

    def remaining_ms(self) -> float:
        return self.budget_ms - self.elapsed_ms()

    def expired(self) -> bool:
        return self.remaining_ms() <= 0.0


class BudgetExecutor:
    """Interface: run ``fn`` under a millisecond budget.

    ``call`` returns ``(result, latency_ms)`` or raises
    :class:`DeadlineExceeded`; exceptions raised by ``fn`` propagate
    unchanged.  Overruns are counted on the executor.
    """

    overruns_: int
    overrun_ms_: float

    def call(self, fn: Callable[[], T], budget_ms: float) -> tuple[T, float]:
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release any worker resources (no-op by default)."""


class InlineExecutor(BudgetExecutor):
    """Run tier calls inline; enforce the budget by post-hoc measurement."""

    def __init__(self, *, clock: Clock | None = None):
        self.clock = as_clock(clock)
        self.overruns_ = 0
        self.overrun_ms_ = 0.0

    def call(self, fn: Callable[[], T], budget_ms: float) -> tuple[T, float]:
        start = self.clock.monotonic()
        result = fn()
        latency_ms = (self.clock.monotonic() - start) * 1000.0
        if latency_ms > budget_ms:
            self.overruns_ += 1
            self.overrun_ms_ += latency_ms - budget_ms
            raise DeadlineExceeded(
                f"tier call took {latency_ms:.1f}ms against a {budget_ms:.1f}ms budget",
                budget_ms=budget_ms,
                elapsed_ms=latency_ms,
            )
        return result, latency_ms


class ThreadedExecutor(BudgetExecutor):
    """Run tier calls on a worker pool; cut them off at the budget.

    The timed-out worker thread is abandoned, not killed (Python offers
    no safe pre-emption), so ``max_workers`` bounds how many stuck calls
    can pile up before new calls queue — by then the tier's breaker
    will be open and the tier skipped entirely.
    """

    def __init__(self, max_workers: int = 8, *, clock: Clock | None = None):
        if max_workers < 1:
            raise ConfigError(f"max_workers must be >= 1, got {max_workers}")
        self.clock = as_clock(clock)
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serving"
        )
        self._lock = threading.Lock()
        self.overruns_ = 0
        self.overrun_ms_ = 0.0

    def call(self, fn: Callable[[], T], budget_ms: float) -> tuple[T, float]:
        start = self.clock.monotonic()
        future = self._pool.submit(fn)
        try:
            result = future.result(timeout=budget_ms / 1000.0)
        except FutureTimeout:
            future.cancel()
            elapsed_ms = (self.clock.monotonic() - start) * 1000.0
            with self._lock:
                self.overruns_ += 1
                self.overrun_ms_ += max(0.0, elapsed_ms - budget_ms)
            raise DeadlineExceeded(
                f"tier call cut off after {elapsed_ms:.1f}ms "
                f"(budget {budget_ms:.1f}ms); worker abandoned",
                budget_ms=budget_ms,
                elapsed_ms=elapsed_ms,
            ) from None
        latency_ms = (self.clock.monotonic() - start) * 1000.0
        return result, latency_ms

    def shutdown(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)
