"""Per-request deadlines and budget-aware tier execution.

A serving request arrives with a total time budget (say 50 ms).  Each
cascade tier gets whatever is left of that budget; a tier that overruns
is cut off, recorded, and the request falls through to the next tier —
the request never blocks on a sick tier for longer than its own
deadline.

Every tier call goes through :meth:`BudgetExecutor.call`: it runs the
call on the thread that makes it and raises
:class:`~repro.utils.exceptions.DeadlineExceeded` *after the fact* when
the measured latency exceeded the budget, counting the overrun
(``overruns_``/``overrun_ms_``).  It cannot pre-empt a call mid-flight;
whoever waits for the batch does that (below).

**Serving threads.**  Every executor also owns up to ``max_workers``
serving threads, fed through one :class:`queue.SimpleQueue` by
:meth:`BudgetExecutor.hand_off`: a caller hands a batch over whole,
with one lean hop, and the cascade runs there.  The caller enforces the
deadline.  It holds the batch's :class:`Flight` and calls its cut-off
at the deadline (the edge arms one event-loop timer, a synchronous
caller waits until then), which charges the tier call in flight as
one overrun and answers the batch without waiting for it.  A cut-off
thread keeps running until its tier returns (Python threads cannot be
killed); later batches go to a fresh serving thread, never more than
``max_workers`` alive, wedged ones included, so a burst of stuck calls
queues behind them until the tier's breaker opens.

The two executors differ in one choice only, made by the service for a
synchronous batch: :class:`ThreadedExecutor` hands it off, so a wedged
tier cannot stall the caller past its deadline;
:class:`InlineExecutor` runs it on the caller's thread, which with a
:class:`~repro.utils.clock.FakeClock` makes every deadline path
deterministic and sleep-free in tests.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable, TypeVar

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


_serving = threading.local()


def current_flight() -> Flight | None:
    """The flight the calling serving thread is running, if any."""
    return getattr(_serving, "flight", None)


class BudgetExecutor:
    """Run ``fn`` under a millisecond budget, and own the serving threads.

    ``call`` returns ``(result, latency_ms)`` or raises
    :class:`DeadlineExceeded`; exceptions raised by ``fn`` propagate
    unchanged.  Overruns are counted on the executor.  The serving
    threads behind :meth:`hand_off` run whole batches.
    """

    def __init__(self, max_workers: int = 8, *, clock: Clock | None = None):
        if max_workers < 1:
            raise ConfigError(f"max_workers must be >= 1, got {max_workers}")
        self.clock = as_clock(clock)
        self.max_workers = max_workers
        self.overruns_ = 0
        self.overrun_ms_ = 0.0
        self._lock = threading.Lock()
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        # Serving threads alive, and alive minus jobs handed off and not
        # yet finished (negative while jobs wait for a thread).
        self._alive = 0
        self._idle = 0
        self._closed = False

    def hand_off(
        self,
        fn: Callable[[], Any],
        done: Callable[[Any], None],
        flight: Flight | None = None,
    ) -> None:
        """Run ``fn()`` on a serving thread, then ``done(result)`` there.

        ``done`` receives the exception instead when ``fn`` raises.  A
        thread is started only when none is idle, up to ``max_workers``;
        beyond that the job waits for the first thread to come free.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot hand off after shutdown")
            self._idle -= 1
            if self._idle < 0 and self._alive < self.max_workers:
                self._alive += 1
                self._idle += 1
                threading.Thread(
                    target=self._serve, name="repro-serving-batch", daemon=True
                ).start()
        self._jobs.put((fn, done, flight))

    def _serve(self) -> None:
        while True:
            job = self._jobs.get()
            if job is None:
                with self._lock:
                    self._alive -= 1
                return
            fn, done, flight = job
            _serving.flight = flight
            try:
                result = fn()
            except Exception as error:  # noqa: BLE001 - handed to done()
                result = error
            _serving.flight = None
            # Idle before done(): the caller may hand the next batch off
            # the moment done() wakes it, and this thread will take it.
            with self._lock:
                self._idle += 1
            done(result)

    def call(self, fn: Callable[[], T], budget_ms: float) -> tuple[T, float]:
        """Run ``fn`` here; raise :class:`DeadlineExceeded` after an overrun."""
        start = self.clock.monotonic()
        result = fn()
        latency_ms = (self.clock.monotonic() - start) * 1000.0
        if latency_ms > budget_ms:
            flight = current_flight()
            if flight is None:
                self._count_overrun(latency_ms - budget_ms)
            else:
                flight.charge_overrun(latency_ms - budget_ms)
            raise DeadlineExceeded(
                f"tier call took {latency_ms:.1f}ms against a {budget_ms:.1f}ms budget",
                budget_ms=budget_ms,
                elapsed_ms=latency_ms,
            )
        return result, latency_ms

    def _count_overrun(self, over_ms: float) -> None:
        with self._lock:
            self.overruns_ += 1
            self.overrun_ms_ += over_ms

    def shutdown(self) -> None:
        """Stop the serving threads (a wedged one once its job returns)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            stopping = self._alive
            self._idle -= stopping
        for _ in range(stopping):
            self._jobs.put(None)


class Flight:
    """One batch on a serving thread, and its caller's right to cut it off.

    The serving thread opens each tier call with :meth:`open_call` and
    closes it with :meth:`close_call`; the caller's deadline timer calls
    :meth:`cut_call`.  All three run under :attr:`lock`.  An open call's
    overrun is charged to the executor once: after the fact by ``call``
    (:meth:`charge_overrun`), or at cut-off time, whichever comes first.
    """

    def __init__(self, executor: BudgetExecutor):
        self.executor = executor
        self.lock = threading.Lock()
        self.cut = False
        self._call: list | None = None  # [start, budget_ms, charged]

    def open_call(self, budget_ms: float) -> None:
        """Publish a tier call about to start (the caller holds the lock)."""
        self._call = [self.executor.clock.monotonic(), budget_ms, False]

    def close_call(self) -> None:
        """The serving thread settled the call (the caller holds the lock)."""
        self._call = None

    def charge_overrun(self, over_ms: float) -> None:
        """Charge the open call's overrun, unless the cut-off already did."""
        with self.lock:
            call = self._call
            if call is None or call[2]:
                return
            call[2] = True
        self.executor._count_overrun(over_ms)

    def cut_call(self) -> DeadlineExceeded | None:
        """Mark the flight cut off (the caller holds the lock).

        Returns the open call's timeout, charged as an overrun unless the
        executor already charged it, or ``None`` when no call is open.
        """
        self.cut = True
        call, self._call = self._call, None
        if call is None:
            return None
        start, budget_ms, charged = call
        elapsed_ms = (self.executor.clock.monotonic() - start) * 1000.0
        if not charged:
            self.executor._count_overrun(max(0.0, elapsed_ms - budget_ms))
        return DeadlineExceeded(
            f"tier call cut off after {elapsed_ms:.1f}ms "
            f"(budget {budget_ms:.1f}ms); worker abandoned",
            budget_ms=budget_ms,
            elapsed_ms=elapsed_ms,
        )


class InlineExecutor(BudgetExecutor):
    """Run a synchronous batch on the caller's thread."""


class ThreadedExecutor(BudgetExecutor):
    """Hand a synchronous batch off to a serving thread, cut off at its deadline."""
