"""A supervision tree for the always-on serving/ingest stack.

PR 7 made each streaming component individually crash-safe: the WAL
survives ``kill -9`` at any byte, the ingestor resumes bitwise-
identically from its checkpoint triple, retrain promotion is canary-
gated.  What nothing did was *restart* a dead component — a crashed
ingest thread simply stopped ingesting until an operator noticed.  The
:class:`Supervisor` closes that gap with the classic supervision-tree
contract:

* every component runs in its own thread and calls
  ``ctx.heartbeat()`` as it works;
* a crashed (or silently exited) component is restarted with
  exponential backoff;
* a component that crashes ``max_restarts`` times inside
  ``crash_window_s`` is **quarantined** — taken out of rotation and its
  ``on_quarantine`` hook fired so the serving layer can degrade to the
  static-popularity tier instead of the process dying;
* shutdown drains components in **reverse start order**, so the edge
  stops accepting work before the WAL consumer underneath it goes away.

The monitor step (:meth:`Supervisor.poll`) is synchronous and driven by
an injectable clock, so every restart/backoff/quarantine decision is
unit-testable on a :class:`~repro.utils.clock.FakeClock` without
sleeping.  Only the component bodies themselves run on real threads.

Process faults are injected cooperatively: real threads cannot receive
signals, so ``ctx.heartbeat()`` ticks the component's name on a
:class:`~repro.resilience.chaos.KillSwitch`, and a kill armed with
:meth:`~repro.resilience.chaos.KillSwitch.kill` raises
:class:`~repro.resilience.chaos.SimulatedKill` from inside it — the
same switch the streaming crash-site drills tick.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.obs import MetricsRegistry, as_registry
from repro.resilience.chaos import KillSwitch
from repro.utils.clock import Clock, as_clock
from repro.utils.exceptions import ConfigError

#: Component lifecycle states (strings so they serialize straight into
#: readiness payloads and metrics labels).
STARTING = "starting"
RUNNING = "running"
BACKOFF = "backoff"
QUARANTINED = "quarantined"
STOPPED = "stopped"


@dataclass(frozen=True)
class SupervisorConfig:
    """Restart and health policy for every supervised component.

    ``backoff_base_s * backoff_factor**n`` (capped at ``backoff_max_s``)
    is the delay before restart ``n`` of the current crash burst; the
    burst resets once a crash falls out of ``crash_window_s``.  More
    than ``max_restarts`` crashes inside the window is a crash loop —
    restart number ``max_restarts + 1`` becomes a quarantine instead.
    """

    backoff_base_s: float = 0.1
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    max_restarts: int = 5
    crash_window_s: float = 30.0
    heartbeat_timeout_s: float = 10.0
    drain_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.backoff_base_s < 0:
            raise ConfigError(f"backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if self.backoff_factor < 1:
            raise ConfigError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.backoff_max_s < self.backoff_base_s:
            raise ConfigError("backoff_max_s must be >= backoff_base_s")
        if self.max_restarts < 0:
            raise ConfigError(f"max_restarts must be >= 0, got {self.max_restarts}")
        if self.crash_window_s <= 0:
            raise ConfigError(f"crash_window_s must be > 0, got {self.crash_window_s}")
        if self.heartbeat_timeout_s <= 0:
            raise ConfigError(
                f"heartbeat_timeout_s must be > 0, got {self.heartbeat_timeout_s}"
            )
        if self.drain_timeout_s <= 0:
            raise ConfigError(f"drain_timeout_s must be > 0, got {self.drain_timeout_s}")


class ComponentContext:
    """What a component body sees of its supervisor.

    The body is a callable ``run(ctx)`` that should loop until
    ``ctx.should_stop`` (or ``ctx.wait(...)`` returns ``True``), calling
    :meth:`heartbeat` at least once per iteration.  Heartbeats feed the
    stall detector and are the injection point for simulated kills.
    """

    def __init__(self, supervisor: "Supervisor", name: str):
        self._supervisor = supervisor
        self.name = name
        self.stop_event = threading.Event()

    @property
    def should_stop(self) -> bool:
        return self.stop_event.is_set()

    def wait(self, seconds: float) -> bool:
        """Sleep up to ``seconds``; returns True if stop was requested."""
        return self.stop_event.wait(seconds)

    def heartbeat(self) -> None:
        """Report liveness; raises SimulatedKill when a kill is armed."""
        self._supervisor._record_heartbeat(self.name)
        faults = self._supervisor.faults
        if faults is not None:
            faults.tick(self.name)


@dataclass
class _Managed:
    """Supervisor-side bookkeeping for one component."""

    name: str
    run: Callable[[ComponentContext], None]
    critical: bool
    on_quarantine: Callable[[str], None] | None
    state: str = STARTING
    thread: threading.Thread | None = None
    context: ComponentContext | None = None
    crash_times: list[float] = field(default_factory=list)
    restarts: int = 0
    backoff_until: float = 0.0
    last_beat: float = 0.0
    stalled: bool = False
    last_error: str | None = None


class Supervisor:
    """Heartbeat-monitored component tree with restart and quarantine.

    Thread-safety: component threads report heartbeats and crash
    outcomes concurrently with :meth:`poll` and :meth:`ready`, so all
    bookkeeping mutations happen under ``self._lock``.
    """

    def __init__(
        self,
        config: SupervisorConfig | None = None,
        *,
        clock: Clock | None = None,
        obs: MetricsRegistry | None = None,
        faults: KillSwitch | None = None,
    ):
        self.config = config or SupervisorConfig()
        self.clock = as_clock(clock)
        self.obs = as_registry(obs)
        self.faults = faults
        self._lock = threading.Lock()
        self._components: dict[str, _Managed] = {}
        self._start_order: list[str] = []
        self._gate: str | None = None
        self._draining = False

    # -- registration and start ----------------------------------------

    def add(
        self,
        name: str,
        run: Callable[[ComponentContext], None],
        *,
        critical: bool = True,
        on_quarantine: Callable[[str], None] | None = None,
    ) -> "Supervisor":
        """Register a component (start order = registration order)."""
        with self._lock:
            if name in self._components:
                raise ConfigError(f"component {name!r} already registered")
            self._components[name] = _Managed(
                name=name, run=run, critical=critical, on_quarantine=on_quarantine
            )
            self._start_order.append(name)
        return self

    def start(self) -> None:
        """Start every registered component, in registration order."""
        for name in list(self._start_order):
            self._spawn(name)

    def _spawn(self, name: str) -> None:
        managed = self._components[name]
        context = ComponentContext(self, name)
        thread = threading.Thread(
            target=self._component_main,
            args=(managed, context),
            name=f"supervised-{name}",
            daemon=True,
        )
        now = self.clock.monotonic()
        with self._lock:
            managed.context = context
            managed.thread = thread
            managed.state = RUNNING
            managed.last_beat = now
            managed.stalled = False
        thread.start()

    def _component_main(self, managed: _Managed, context: ComponentContext) -> None:
        error: str | None = None
        try:
            managed.run(context)
        except BaseException as exc:  # noqa: BLE001 - supervisor boundary:
            # this thread IS the crash barrier; the failure is recorded
            # and drives the restart policy, never silently dropped.
            error = f"{type(exc).__name__}: {exc}"
        with self._lock:
            if context.should_stop and error is None:
                managed.state = STOPPED
                return
            managed.last_error = error
        self.obs.counter("supervisor_crashes_total").inc()
        self.obs.event(
            "component_crashed",
            component=managed.name,
            error=error or "exited without stop request",
        )
        # Crash accounting happens here (not in poll) so the timestamp
        # is the actual death time, but the restart decision stays in
        # poll() where it is clock-driven and testable.
        now = self.clock.monotonic()
        with self._lock:
            managed.crash_times = [
                t for t in managed.crash_times if now - t <= self.config.crash_window_s
            ] + [now]
            burst = len(managed.crash_times)
            if burst > self.config.max_restarts:
                managed.state = QUARANTINED
            else:
                managed.restarts += 1
                delay = min(
                    self.config.backoff_base_s * self.config.backoff_factor ** (burst - 1),
                    self.config.backoff_max_s,
                )
                managed.backoff_until = now + delay
                managed.state = BACKOFF
            state = managed.state
        if state == QUARANTINED:
            self.obs.counter("supervisor_quarantines_total").inc()
            self.obs.event("component_quarantined", component=managed.name, crashes=burst)
            if managed.on_quarantine is not None:
                managed.on_quarantine(managed.name)

    # -- monitoring ------------------------------------------------------

    def _record_heartbeat(self, name: str) -> None:
        now = self.clock.monotonic()
        with self._lock:
            managed = self._components[name]
            managed.last_beat = now
            managed.stalled = False

    def poll(self) -> dict[str, str]:
        """One monitor step: restart expired backoffs, flag stalls.

        Returns the post-step state map (name -> state).  Call this in
        a loop from one thread of the hosting process (``RuntimeStack``
        runs its own); each call is cheap and side-effect-free unless a
        decision is due, so the cadence only bounds restart latency.
        """
        now = self.clock.monotonic()
        to_restart: list[str] = []
        with self._lock:
            for managed in self._components.values():
                if managed.state == BACKOFF and now >= managed.backoff_until:
                    to_restart.append(managed.name)
                elif (
                    managed.state == RUNNING
                    and not managed.stalled
                    and now - managed.last_beat > self.config.heartbeat_timeout_s
                ):
                    managed.stalled = True
                    self.obs.counter("supervisor_heartbeat_stalls_total").inc()
                    self.obs.event("component_stalled", component=managed.name)
        for name in to_restart:
            self.obs.counter("supervisor_restarts_total").inc()
            self.obs.event("component_restarted", component=name)
            self._spawn(name)
        return self.states()

    def states(self) -> dict[str, str]:
        with self._lock:
            return {name: managed.state for name, managed in self._components.items()}

    def component(self, name: str) -> _Managed:
        with self._lock:
            return self._components[name]

    # -- readiness --------------------------------------------------------

    def set_gate(self, reason: str | None) -> None:
        """Force not-ready with ``reason`` (``None`` lifts the gate).

        Used for operator-driven windows where serving state is
        untrustworthy — e.g. while a snapshot restore is rewriting the
        data directory.
        """
        with self._lock:
            self._gate = reason

    def ready(self) -> tuple[bool, dict]:
        """(is_ready, detail) — the ``/v1/ready`` contract.

        Not ready while a gate is set, while draining, or while any
        *critical* component is quarantined, stalled, or waiting out a
        restart backoff.  Liveness (``/v1/health``) stays separate: a
        degraded-but-alive process answers health 200 / ready 503, which
        is what tells a load balancer to stop routing without telling an
        orchestrator to kill the replica.
        """
        with self._lock:
            components = {name: m.state for name, m in self._components.items()}
            blockers = [
                name
                for name, m in self._components.items()
                if m.critical and (m.state in (BACKOFF, QUARANTINED) or m.stalled)
            ]
            gate = self._gate
            draining = self._draining
        is_ready = not blockers and gate is None and not draining
        detail = {"components": components, "blocked_on": blockers}
        if gate is not None:
            detail["gate"] = gate
        if draining:
            detail["draining"] = True
        return is_ready, detail

    # -- shutdown ---------------------------------------------------------

    def drain(self) -> dict:
        """Stop everything in reverse start order; returns a report.

        Each component gets a stop request and up to ``drain_timeout_s``
        to exit; stragglers are reported (and, being daemon threads,
        cannot outlive the process).
        """
        with self._lock:
            self._draining = True
            order = [name for name in reversed(self._start_order)]
        stragglers: list[str] = []
        for name in order:
            with self._lock:
                managed = self._components[name]
                context = managed.context
                thread = managed.thread
            if context is not None:
                context.stop_event.set()
            if thread is not None and thread.is_alive():
                thread.join(timeout=self.config.drain_timeout_s)
                if thread.is_alive():
                    stragglers.append(name)
            with self._lock:
                if managed.state not in (QUARANTINED,) and name not in stragglers:
                    managed.state = STOPPED
        self.obs.event("supervisor_drained", order=order, stragglers=stragglers)
        return {"order": order, "stragglers": stragglers}
