"""Supervision-tree policy tests on a FakeClock.

Component bodies run on real (daemon) threads, but every restart /
backoff / quarantine *decision* is made inside :meth:`Supervisor.poll`
against the injected clock — so these tests advance a
:class:`FakeClock` by hand and only ever block on thread joins, never
on wall-clock backoff delays.
"""

from __future__ import annotations

import time

import pytest

from repro.obs import MetricsRegistry
from repro.resilience.chaos import KillSwitch as ProcessFaultInjector
from repro.runtime import (
    BACKOFF,
    QUARANTINED,
    RUNNING,
    STOPPED,
    Supervisor,
    SupervisorConfig,
)
from repro.utils.clock import FakeClock
from repro.utils.exceptions import ConfigError


def well_behaved(ctx) -> None:
    while not ctx.wait(0.001):
        ctx.heartbeat()


class CrashNTimes:
    """A body that dies on its first ``n`` starts, then behaves."""

    def __init__(self, n: int):
        self.n = n
        self.starts = 0

    def __call__(self, ctx) -> None:
        self.starts += 1
        if self.starts <= self.n:
            raise RuntimeError(f"boom {self.starts}")
        well_behaved(ctx)


def wait_for_state(supervisor: Supervisor, name: str, state: str, timeout=5.0) -> None:
    """Block (real time) until the component thread reports ``state``.

    Crash accounting runs on the dying component thread itself, so the
    only real-time wait these tests need is for that thread to finish.
    """
    deadline = time.monotonic() + timeout  # repro: allow(REP002) — real thread join
    while time.monotonic() < deadline:  # repro: allow(REP002) — real thread join
        if supervisor.states()[name] == state:
            return
        time.sleep(0.001)
    raise AssertionError(
        f"{name} never reached {state!r}; states={supervisor.states()}"
    )


@pytest.fixture
def clock():
    return FakeClock()


def make_supervisor(clock, **overrides):
    settings = dict(
        backoff_base_s=1.0,
        backoff_factor=2.0,
        backoff_max_s=8.0,
        max_restarts=3,
        crash_window_s=100.0,
        heartbeat_timeout_s=5.0,
        drain_timeout_s=5.0,
    )
    settings.update(overrides)
    return Supervisor(SupervisorConfig(**settings), clock=clock, obs=MetricsRegistry())


class TestRestartPolicy:
    def test_crash_restarts_after_backoff_expires(self, clock):
        supervisor = make_supervisor(clock)
        body = CrashNTimes(1)
        supervisor.add("worker", body)
        supervisor.start()
        wait_for_state(supervisor, "worker", BACKOFF)

        # The backoff has not expired on the fake clock: no restart.
        assert supervisor.poll()["worker"] == BACKOFF
        assert supervisor.component("worker").restarts == 1

        clock.advance(1.0)
        assert supervisor.poll()["worker"] == RUNNING
        assert body.starts == 2
        supervisor.drain()

    def test_backoff_schedule_doubles_then_caps(self, clock):
        supervisor = make_supervisor(clock, backoff_max_s=3.0)
        supervisor.add("worker", CrashNTimes(10))
        supervisor.start()
        # base * factor**(burst-1), clamped to backoff_max_s.
        for expected_delay in (1.0, 2.0, 3.0):
            wait_for_state(supervisor, "worker", BACKOFF)
            managed = supervisor.component("worker")
            assert managed.backoff_until - clock.now == pytest.approx(expected_delay)
            clock.advance(expected_delay)
            supervisor.poll()
        supervisor.drain()

    def test_exiting_without_stop_request_counts_as_a_crash(self, clock):
        supervisor = make_supervisor(clock)
        supervisor.add("worker", lambda ctx: None)  # returns immediately
        supervisor.start()
        wait_for_state(supervisor, "worker", BACKOFF)
        assert supervisor.component("worker").restarts == 1
        supervisor.drain()

    def test_crash_outside_window_resets_the_burst(self, clock):
        supervisor = make_supervisor(clock, crash_window_s=10.0)
        supervisor.add("worker", CrashNTimes(2))
        supervisor.start()
        wait_for_state(supervisor, "worker", BACKOFF)
        assert supervisor.component("worker").backoff_until - clock.now == 1.0

        # Let the first crash age out of the window before the second.
        clock.advance(50.0)
        supervisor.poll()
        wait_for_state(supervisor, "worker", BACKOFF)
        # Burst restarted at 1 => the delay is the base again, not 2x.
        managed = supervisor.component("worker")
        assert managed.backoff_until - clock.now == pytest.approx(1.0)
        assert len(managed.crash_times) == 1
        supervisor.drain()


class TestQuarantine:
    def test_crash_loop_quarantines_and_fires_hook(self, clock):
        quarantined: list[str] = []
        supervisor = make_supervisor(clock, max_restarts=2)
        supervisor.add(
            "worker", CrashNTimes(10), on_quarantine=quarantined.append
        )
        supervisor.add("bystander", well_behaved, critical=False)
        supervisor.start()
        # Crashes 1 and 2 restart; crash 3 exceeds max_restarts=2.
        for _ in range(2):
            wait_for_state(supervisor, "worker", BACKOFF)
            clock.advance(10.0)
            supervisor.poll()
        wait_for_state(supervisor, "worker", QUARANTINED)
        assert quarantined == ["worker"]
        assert supervisor.component("worker").restarts == 2

        # Quarantine is terminal for poll(): no further restarts.
        clock.advance(1000.0)
        assert supervisor.poll()["worker"] == QUARANTINED
        assert supervisor.states()["bystander"] == RUNNING
        supervisor.drain()

    def test_quarantined_critical_component_blocks_readiness(self, clock):
        supervisor = make_supervisor(clock, max_restarts=0)
        supervisor.add("worker", CrashNTimes(10), critical=True)
        supervisor.start()
        wait_for_state(supervisor, "worker", QUARANTINED)
        is_ready, detail = supervisor.ready()
        assert not is_ready
        assert detail["blocked_on"] == ["worker"]
        supervisor.drain()

    def test_non_critical_quarantine_keeps_readiness(self, clock):
        supervisor = make_supervisor(clock, max_restarts=0)
        supervisor.add("edge", well_behaved, critical=True)
        supervisor.add("scrub", CrashNTimes(10), critical=False)
        supervisor.start()
        wait_for_state(supervisor, "scrub", QUARANTINED)
        is_ready, detail = supervisor.ready()
        assert is_ready
        assert detail["blocked_on"] == []
        supervisor.drain()


class TestHeartbeats:
    def test_stall_is_flagged_once_and_not_restarted(self, clock):
        obs = MetricsRegistry()
        supervisor = Supervisor(
            SupervisorConfig(heartbeat_timeout_s=5.0), clock=clock, obs=obs
        )

        def silent(ctx) -> None:
            ctx.heartbeat()
            ctx.stop_event.wait()  # alive but never beats again

        supervisor.add("worker", silent)
        supervisor.start()
        clock.advance(6.0)
        assert supervisor.poll()["worker"] == RUNNING
        managed = supervisor.component("worker")
        assert managed.stalled
        assert managed.restarts == 0
        is_ready, detail = supervisor.ready()
        assert not is_ready and detail["blocked_on"] == ["worker"]

        # Flagged once per episode, not once per poll.
        clock.advance(6.0)
        supervisor.poll()
        assert obs.counter("supervisor_heartbeat_stalls_total").value == 1
        supervisor.drain()

    def test_heartbeat_clears_the_stall_flag(self, clock):
        supervisor = make_supervisor(clock)
        beat = {"go": False}

        def sometimes(ctx) -> None:
            while not ctx.wait(0.001):
                if beat["go"]:
                    ctx.heartbeat()

        supervisor.add("worker", sometimes)
        supervisor.start()
        clock.advance(6.0)
        supervisor.poll()
        assert supervisor.component("worker").stalled
        beat["go"] = True
        deadline = time.monotonic() + 5.0  # repro: allow(REP002) — real thread wait
        while supervisor.component("worker").stalled:
            assert time.monotonic() < deadline, "stall flag never cleared"  # repro: allow(REP002) — real thread wait
            time.sleep(0.001)
        assert supervisor.ready()[0]
        supervisor.drain()

    def test_simulated_kill_fires_from_heartbeat(self, clock):
        faults = ProcessFaultInjector()
        supervisor = Supervisor(
            SupervisorConfig(backoff_base_s=1.0), clock=clock,
            obs=MetricsRegistry(), faults=faults,
        )
        supervisor.add("worker", well_behaved)
        supervisor.start()
        faults.kill("worker")
        wait_for_state(supervisor, "worker", BACKOFF)
        assert faults.fired_ == ["worker"]
        assert "SimulatedKill" in supervisor.component("worker").last_error
        clock.advance(1.0)
        supervisor.poll()
        wait_for_state(supervisor, "worker", RUNNING)
        supervisor.drain()


class TestLifecycle:
    def test_drain_stops_in_reverse_start_order(self, clock):
        supervisor = make_supervisor(clock)
        for name in ("edge", "ingest", "scrub"):
            supervisor.add(name, well_behaved)
        supervisor.start()
        report = supervisor.drain()
        assert report["order"] == ["scrub", "ingest", "edge"]
        assert report["stragglers"] == []
        assert set(supervisor.states().values()) == {STOPPED}

    def test_gate_blocks_readiness_until_lifted(self, clock):
        supervisor = make_supervisor(clock)
        supervisor.add("worker", well_behaved)
        supervisor.start()
        assert supervisor.ready()[0]
        supervisor.set_gate("restoring")
        is_ready, detail = supervisor.ready()
        assert not is_ready
        assert detail["gate"] == "restoring"
        supervisor.set_gate(None)
        assert supervisor.ready()[0]
        supervisor.drain()

    def test_draining_reports_not_ready(self, clock):
        supervisor = make_supervisor(clock)
        supervisor.add("worker", well_behaved)
        supervisor.start()
        supervisor.drain()
        is_ready, detail = supervisor.ready()
        assert not is_ready
        assert detail["draining"] is True

    def test_duplicate_registration_is_rejected(self, clock):
        supervisor = make_supervisor(clock)
        supervisor.add("worker", well_behaved)
        with pytest.raises(ConfigError):
            supervisor.add("worker", well_behaved)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SupervisorConfig(backoff_base_s=-1.0)
        with pytest.raises(ConfigError):
            SupervisorConfig(backoff_factor=0.5)
        with pytest.raises(ConfigError):
            SupervisorConfig(backoff_base_s=2.0, backoff_max_s=1.0)
        with pytest.raises(ConfigError):
            SupervisorConfig(crash_window_s=0.0)
