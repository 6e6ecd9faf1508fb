"""Pure-unit tests of the circuit-breaker state machine.

Everything runs on a :class:`FakeClock` — no ``sleep`` anywhere, so the
full closed → open → half-open → closed lifecycle is exercised as a
deterministic pure function of recorded events and advanced time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerConfig,
    CircuitBreaker,
    FakeClock,
)
from repro.utils.exceptions import ConfigError


def make_breaker(clock=None, **overrides) -> CircuitBreaker:
    defaults = dict(
        window_seconds=10.0,
        min_calls=4,
        failure_rate_threshold=0.5,
        cooldown_seconds=5.0,
        half_open_max_probes=2,
        half_open_successes=2,
    )
    defaults.update(overrides)
    return CircuitBreaker(BreakerConfig(**defaults), clock=clock or FakeClock())


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_seconds": 0.0},
            {"min_calls": 0},
            {"failure_rate_threshold": 0.0},
            {"failure_rate_threshold": 1.5},
            {"latency_threshold_ms": -1.0},
            {"cooldown_seconds": 0.0},
            {"half_open_max_probes": 0},
            {"half_open_successes": 0},
        ],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ConfigError):
            make_breaker(**kwargs)


class TestClosedState:
    def test_starts_closed_and_allows(self):
        breaker = make_breaker()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_failures_below_min_calls_do_not_trip(self):
        breaker = make_breaker(min_calls=4)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == CLOSED  # 3/3 failed but below min_calls

    def test_trips_at_failure_rate_threshold(self):
        breaker = make_breaker(min_calls=4, failure_rate_threshold=0.5)
        breaker.record_success()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # 1/3, below min_calls anyway
        breaker.record_failure()  # 2/4 = 0.5 >= threshold
        assert breaker.state == OPEN
        assert breaker.opened_count_ == 1

    def test_stays_closed_below_threshold(self):
        breaker = make_breaker(min_calls=4, failure_rate_threshold=0.5)
        for _ in range(6):
            breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()  # 2/8 = 0.25 < 0.5
        assert breaker.state == CLOSED

    def test_slow_success_counts_as_failure(self):
        breaker = make_breaker(min_calls=2, latency_threshold_ms=50.0)
        breaker.record_success(latency_ms=200.0)
        breaker.record_success(latency_ms=200.0)
        assert breaker.state == OPEN

    def test_fast_success_does_not_count_as_failure(self):
        breaker = make_breaker(min_calls=2, latency_threshold_ms=50.0)
        for _ in range(10):
            breaker.record_success(latency_ms=5.0)
        assert breaker.state == CLOSED
        assert breaker.failure_rate() == 0.0

    def test_window_expiry_forgets_old_failures(self):
        clock = FakeClock()
        breaker = make_breaker(clock, window_seconds=10.0, min_calls=4)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(11.0)  # the two failures age out of the window
        breaker.record_failure()
        breaker.record_success()
        breaker.record_success()
        breaker.record_success()  # 1/4 = 0.25 < 0.5
        assert breaker.state == CLOSED
        assert breaker.failure_rate() == pytest.approx(0.25)


class TestOpenState:
    def trip(self, clock):
        breaker = make_breaker(clock, min_calls=2, cooldown_seconds=5.0)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == OPEN
        return breaker

    def test_open_rejects(self):
        breaker = self.trip(FakeClock())
        assert not breaker.allow()
        assert not breaker.allow()

    def test_straggler_results_ignored_while_open(self):
        breaker = self.trip(FakeClock())
        breaker.record_success()  # a call from before the trip finishing late
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.opened_count_ == 1

    def test_cooldown_transitions_to_half_open(self):
        clock = FakeClock()
        breaker = self.trip(clock)
        clock.advance(4.9)
        assert breaker.state == OPEN
        clock.advance(0.2)
        assert breaker.state == HALF_OPEN


class TestHalfOpenState:
    def make_half_open(self, clock, **overrides):
        breaker = make_breaker(clock, min_calls=2, cooldown_seconds=5.0, **overrides)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.state == HALF_OPEN
        return breaker

    def test_admits_limited_probes(self):
        breaker = self.make_half_open(FakeClock(), half_open_max_probes=2)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()  # both probe slots in flight

    def test_probe_completion_frees_a_slot(self):
        breaker = self.make_half_open(
            FakeClock(), half_open_max_probes=1, half_open_successes=3
        )
        assert breaker.allow()
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == HALF_OPEN  # needs 3 successes
        assert breaker.allow()

    def test_release_frees_an_unused_probe(self):
        breaker = self.make_half_open(
            FakeClock(), half_open_max_probes=1, half_open_successes=1
        )
        assert breaker.allow()
        assert not breaker.allow()
        breaker.release()
        assert breaker.state == HALF_OPEN  # a release is not an outcome
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_release_outside_half_open_is_a_no_op(self):
        breaker = make_breaker(FakeClock())
        assert breaker.allow()
        breaker.release()
        assert breaker.state == CLOSED
        assert breaker.snapshot()["window_calls"] == 0

    def test_enough_successes_close(self):
        breaker = self.make_half_open(FakeClock(), half_open_successes=2)
        for _ in range(2):
            assert breaker.allow()
            breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        clock = FakeClock()
        breaker = self.make_half_open(clock)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.opened_count_ == 2
        clock.advance(5.0)
        assert breaker.state == HALF_OPEN

    def test_close_clears_window(self):
        breaker = self.make_half_open(FakeClock(), half_open_successes=1)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.failure_rate() == 0.0
        # One new failure must not instantly re-trip off stale history.
        breaker.record_failure()
        assert breaker.state == CLOSED


class TestFullLifecycle:
    def test_closed_open_half_open_closed(self):
        clock = FakeClock()
        breaker = make_breaker(
            clock, min_calls=3, cooldown_seconds=5.0, half_open_successes=2
        )
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        clock.advance(5.0)
        for _ in range(2):
            assert breaker.allow()
            breaker.record_success()
        assert breaker.state == CLOSED
        snap = breaker.snapshot()
        assert snap["state"] == CLOSED
        assert snap["times_opened"] == 1

    def test_snapshot_reports_window(self):
        breaker = make_breaker(min_calls=10)
        breaker.record_success(latency_ms=1.0)
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap["window_calls"] == 2
        assert snap["window_failures"] == 1
        assert snap["failure_rate"] == pytest.approx(0.5)


class RecountingBreaker(CircuitBreaker):
    """Reference trip rule: re-sum the whole window on every record, as
    the breaker did before it kept a running failure count."""

    def _record(self, *, failed: bool) -> None:
        if self.state != CLOSED:
            super()._record(failed=failed)
            return
        with self._lock:
            now = self.clock.monotonic()
            self._events.append((now, failed))
            self._failures += failed
            self._prune()
            calls = len(self._events)
            failures = sum(f for _, f in self._events)
            threshold = self.config.failure_rate_threshold
            if calls >= self.config.min_calls and failures / calls >= threshold:
                self._open(now)


class TestRunningCounts:
    def test_counts_match_a_recount_through_every_transition(self):
        config = BreakerConfig(
            window_seconds=3.0,
            min_calls=4,
            failure_rate_threshold=0.5,
            latency_threshold_ms=50.0,
            cooldown_seconds=2.0,
            half_open_max_probes=2,
            half_open_successes=2,
        )
        clock = FakeClock()
        breaker = CircuitBreaker(config, clock=clock)
        reference = RecountingBreaker(config, clock=clock)
        rng = np.random.default_rng(11)
        transitions = set()
        expiries = 0
        previous = breaker.snapshot()
        for step in range(4000):
            clock.advance(float(rng.choice([0.01, 0.05, 0.2, 0.6, 3.5])))
            # Alternate calm and sick stretches so the breaker trips,
            # probes, re-opens and closes many times over.
            failure_p = 0.7 if (step // 150) % 2 else 0.1
            admitted = breaker.allow()
            assert reference.allow() == admitted
            if admitted:
                roll = rng.random()
                for b in (breaker, reference):
                    if roll < failure_p / 2:
                        b.record_failure()
                    elif roll < failure_p:
                        b.record_success(latency_ms=80.0)  # slow: a failure
                    else:
                        b.record_success(latency_ms=5.0)
            snapshot = breaker.snapshot()
            events = list(breaker._events)
            assert snapshot["window_calls"] == len(events)
            assert snapshot["window_failures"] == sum(failed for _, failed in events)
            assert breaker.failure_rate() == (
                snapshot["window_failures"] / len(events) if events else 0.0
            )
            assert snapshot["state"] == reference.state
            assert breaker.opened_count_ == reference.opened_count_
            if snapshot["state"] != previous["state"]:
                transitions.add((previous["state"], snapshot["state"]))
            elif snapshot["state"] == CLOSED and (
                snapshot["window_calls"] < previous["window_calls"]
            ):
                expiries += 1
            previous = snapshot
        assert {
            (CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED), (HALF_OPEN, OPEN),
        } <= transitions
        assert expiries > 0
