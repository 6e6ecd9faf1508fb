"""Rolling-window circuit breaker guarding one cascade tier.

A sick tier (NaN-poisoned model, saturated executor, flaky similarity
store) must be *skipped*, not re-tried on every request — otherwise each
request pays the tier's failure latency before falling back.  The
breaker implements the classic three-state machine:

* **closed** — requests flow; every call is recorded into a rolling
  time window.  When the window holds at least ``min_calls`` samples
  and the failure rate reaches ``failure_rate_threshold``, the breaker
  opens.  A call that succeeds but takes longer than
  ``latency_threshold_ms`` counts as a failure — a tier that answers
  correctly-but-slowly is as useless to a deadline-bounded request
  path as one that raises.
* **open** — requests are rejected instantly (``allow()`` is false) for
  ``cooldown_seconds``, after which the breaker moves to half-open.
* **half-open** — up to ``half_open_max_probes`` trial requests are let
  through.  ``half_open_successes`` consecutive successes close the
  breaker (window cleared); any probe failure re-opens it and restarts
  the cooldown.

All timing flows through an injectable :class:`~repro.utils.clock.Clock`,
so the full state machine is unit-testable with a fake clock and zero
sleeps.  The window keeps a running failure count beside its event
deque, so recording, pruning and reading the rate are O(1) per call
however many samples the window holds.  The breaker is thread-safe: the serving executor may record
results from worker threads while the request loop calls ``allow()``.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from repro.obs.registry import MetricsRegistry, as_registry
from repro.utils.clock import Clock, as_clock
from repro.utils.exceptions import ConfigError

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerConfig:
    """Thresholds of one circuit breaker.

    Attributes
    ----------
    window_seconds:
        Length of the rolling sample window.
    min_calls:
        Minimum samples in the window before the failure rate is
        evaluated (prevents one early failure from tripping a cold
        breaker).
    failure_rate_threshold:
        Fraction of window samples that must be failures to open.
    latency_threshold_ms:
        Successes slower than this count as failures (``None`` disables
        the latency criterion).
    cooldown_seconds:
        Time spent open before probing resumes.
    half_open_max_probes:
        Probe requests admitted while half-open.
    half_open_successes:
        Consecutive probe successes required to close.
    """

    window_seconds: float = 30.0
    min_calls: int = 5
    failure_rate_threshold: float = 0.5
    latency_threshold_ms: float | None = None
    cooldown_seconds: float = 10.0
    half_open_max_probes: int = 2
    half_open_successes: int = 2

    def __post_init__(self):
        if self.window_seconds <= 0:
            raise ConfigError(f"window_seconds must be > 0, got {self.window_seconds}")
        if self.min_calls < 1:
            raise ConfigError(f"min_calls must be >= 1, got {self.min_calls}")
        if not 0.0 < self.failure_rate_threshold <= 1.0:
            raise ConfigError(
                f"failure_rate_threshold must be in (0, 1], got {self.failure_rate_threshold}"
            )
        if self.latency_threshold_ms is not None and self.latency_threshold_ms <= 0:
            raise ConfigError(
                f"latency_threshold_ms must be > 0, got {self.latency_threshold_ms}"
            )
        if self.cooldown_seconds <= 0:
            raise ConfigError(f"cooldown_seconds must be > 0, got {self.cooldown_seconds}")
        if self.half_open_max_probes < 1:
            raise ConfigError(
                f"half_open_max_probes must be >= 1, got {self.half_open_max_probes}"
            )
        if self.half_open_successes < 1:
            raise ConfigError(
                f"half_open_successes must be >= 1, got {self.half_open_successes}"
            )


class CircuitBreaker:
    """Thread-safe closed/open/half-open breaker over a rolling window."""

    def __init__(
        self,
        config: BreakerConfig | None = None,
        *,
        clock: Clock | None = None,
        name: str = "",
        obs: MetricsRegistry | None = None,
    ):
        self.config = config or BreakerConfig()
        self.clock = as_clock(clock)
        self.name = name
        self.obs = as_registry(obs)
        self._lock = threading.Lock()
        self._events: deque[tuple[float, bool]] = deque()  # (timestamp, failed)
        self._failures = 0  # failed events in ``_events``
        self._state = CLOSED
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._probe_successes = 0
        self.opened_count_ = 0

    # -- state inspection ------------------------------------------------
    @property
    def state(self) -> str:
        """Current state, advancing open -> half-open when cooldown is over."""
        with self._lock:
            self._maybe_enter_half_open()
            return self._state

    def failure_rate(self) -> float:
        """Failure fraction of the current window (0.0 when empty)."""
        with self._lock:
            self._prune()
            if not self._events:
                return 0.0
            return self._failures / len(self._events)

    # -- the request-path API --------------------------------------------
    def allow(self) -> bool:
        """Whether the guarded tier may be attempted right now.

        In half-open state this *admits a probe*: callers that receive
        ``True`` are expected to follow up with exactly one
        :meth:`record_success` / :meth:`record_failure` call, or with
        :meth:`release` if they end up not calling the tier.
        """
        with self._lock:
            self._maybe_enter_half_open()
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                return False
            if self._probes_in_flight >= self.config.half_open_max_probes:
                return False
            self._probes_in_flight += 1
            return True

    def release(self) -> None:
        """Give back a probe slot that :meth:`allow` admitted but no call used.

        A caller that gets ``True`` from :meth:`allow` and then does not
        attempt the tier (another breaker refused the request) releases
        the slot instead of recording an outcome; otherwise the unused
        probe stays in flight and a half-open breaker runs out of probes
        for good.  Outside half-open state this does nothing.
        """
        with self._lock:
            if self._state == HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)

    def record_success(self, latency_ms: float = 0.0) -> None:
        """Record one successful tier call (slow successes may still trip)."""
        slow = (
            self.config.latency_threshold_ms is not None
            and latency_ms > self.config.latency_threshold_ms
        )
        self._record(failed=slow)

    def record_failure(self, latency_ms: float = 0.0) -> None:
        """Record one failed (raised or timed-out) tier call."""
        self._record(failed=True)

    # -- internals -------------------------------------------------------
    def _record(self, *, failed: bool) -> None:
        with self._lock:
            now = self.clock.monotonic()
            self._maybe_enter_half_open()
            if self._state == HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                if failed:
                    self._open(now)
                else:
                    self._probe_successes += 1
                    if self._probe_successes >= self.config.half_open_successes:
                        self._close()
                return
            if self._state == OPEN:
                # A straggler from before the trip; the window is moot.
                return
            self._events.append((now, failed))
            self._failures += failed
            self._prune()
            calls = len(self._events)
            if calls >= self.config.min_calls:
                if self._failures / calls >= self.config.failure_rate_threshold:
                    self._open(now)

    def _transition(self, to: str) -> None:
        """Record one state transition (called with ``self._lock`` held;
        the registry's own locks never call back into the breaker, so
        the nesting is one-directional and deadlock-free)."""
        self.obs.counter("breaker_transitions_total", tier=self.name, to=to).inc()
        self.obs.event("breaker_transition", tier=self.name, to=to)

    def _open(self, now: float) -> None:
        self._state = OPEN
        self._opened_at = now
        self._events.clear()
        self._failures = 0
        self._probes_in_flight = 0
        self._probe_successes = 0
        self.opened_count_ += 1
        self._transition(OPEN)

    def _close(self) -> None:
        self._state = CLOSED
        self._events.clear()
        self._failures = 0
        self._probes_in_flight = 0
        self._probe_successes = 0
        self._transition(CLOSED)

    def _maybe_enter_half_open(self) -> None:
        if self._state == OPEN:
            if self.clock.monotonic() - self._opened_at >= self.config.cooldown_seconds:
                self._state = HALF_OPEN
                self._probes_in_flight = 0
                self._probe_successes = 0
                self._transition(HALF_OPEN)

    def _prune(self) -> None:
        horizon = self.clock.monotonic() - self.config.window_seconds
        while self._events and self._events[0][0] < horizon:
            self._failures -= self._events.popleft()[1]

    def snapshot(self) -> dict:
        """JSON-ready view of the breaker for monitoring endpoints."""
        with self._lock:
            self._maybe_enter_half_open()
            self._prune()
            n = len(self._events)
            failures = self._failures
            return {
                "name": self.name,
                "state": self._state,
                "window_calls": n,
                "window_failures": failures,
                "failure_rate": failures / n if n else 0.0,
                "times_opened": self.opened_count_,
            }

    def __repr__(self) -> str:
        return f"CircuitBreaker(name={self.name!r}, state={self.state!r})"
