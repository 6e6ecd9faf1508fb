"""The supervised full stack: edge, ingest, retrain, reload, scrub.

:class:`RuntimeStack` assembles the whole always-on system — the HTTP
edge, the WAL-consuming ingestor, the drift-triggered retrainer, the
canary-gated model-reload poller, and the storage scrubber — as
components of one :class:`~repro.runtime.supervisor.Supervisor`.  Each
component is a restartable loop whose durable state lives on disk, so
the supervisor's restart-on-crash contract composes with the streaming
layer's crash-safety contract:

* the **edge** rebinds the same port after a crash (pinned after the
  first ephemeral bind) and rebuilds its worker pool; snapped
  connections are the client's retry problem (the loadgen retries
  transport errors), shed requests are already non-failures;
* the **ingestor** is rebuilt with :meth:`StreamIngestor.resume` from
  the last committed (checkpoint, interactions, offset) triple and
  replays the WAL suffix deterministically — a restart costs work, not
  correctness;
* the **retrain** and **reload** components are stateless between
  iterations (the candidate file and the slot carry the state);
* the **scrubber** re-walks its manifests from disk on every pass.

Quarantine (a crash loop) of any model-pipeline component flips the
serving layer into forced static-popularity mode
(:meth:`RecommendationService.set_degraded`) instead of letting a
broken pipeline feed traffic — the process stays up, ``/v1/ready``
reports 503, ``/v1/health`` and ``/v1/recommend`` keep answering.

The stack supervises itself: a monitor thread, started and stopped
with the stack, is the only caller of :meth:`Supervisor.poll` — ``poll``
decides restarts under its lock but spawns outside it, so a second
poller could restart one component twice.  Callers block on
:meth:`RuntimeStack.wait_until` instead.

Shared mutable state (the live ingestor handle, the pinned address,
drill counters) is guarded by ``self._lock``; component bodies run on
supervisor threads and only touch the stack through that lock.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro.data.interactions import InteractionMatrix
from repro.edge.http import EdgeConfig, EdgeServer
from repro.obs import MetricsRegistry, as_registry
from repro.resilience.chaos import KillSwitch
from repro.runtime.scrub import ReplicaPair, Scrubber, ScrubReport
from repro.runtime.snapshot import (
    SnapshotManifest,
    create_snapshot,
    restore_snapshot,
)
from repro.runtime.supervisor import (
    ComponentContext,
    Supervisor,
    SupervisorConfig,
)
from repro.serving.reload import ModelReloader
from repro.serving.service import RecommendationService
from repro.streaming.drift import DriftMonitor, DriftThresholds
from repro.streaming.ingest import IngestConfig, StreamIngestor
from repro.streaming.retrain import AutoRetrainManager, RetrainConfig, publish_candidate
from repro.streaming.wal import WalConfig, WriteAheadLog
from repro.utils.atomicio import array_checksum
from repro.utils.clock import Clock, as_clock
from repro.utils.exceptions import ConfigError

#: Component names (stable: they are metrics labels and kill targets).
EDGE = "edge"
INGEST = "ingest"
RETRAIN = "retrain"
RELOAD = "reload"
SCRUB = "scrub"

COMPONENTS = (EDGE, INGEST, RETRAIN, RELOAD, SCRUB)

#: Seconds between supervisor monitor steps: how late a restart may be.
MONITOR_INTERVAL_S = 0.02
#: Seconds between two checks of a ``wait_until`` predicate.
_WAIT_STEP_S = 0.005


@dataclass(frozen=True)
class StackConfig:
    """Loop cadences for the supervised components.

    These pace *idle* iterations only — every loop heartbeats and
    checks its stop event at least once per interval, so the intervals
    bound kill-detection and drain latency, not throughput.
    """

    heartbeat_interval_s: float = 0.05
    ingest_poll_s: float = 0.05
    ingest_max_batches: int = 8
    retrain_poll_s: float = 0.2
    reload_poll_s: float = 0.2
    scrub_poll_s: float = 0.25
    start_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        for name in (
            "heartbeat_interval_s", "ingest_poll_s", "retrain_poll_s",
            "reload_poll_s", "scrub_poll_s", "start_timeout_s",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.ingest_max_batches < 1:
            raise ConfigError(
                f"ingest_max_batches must be >= 1, got {self.ingest_max_batches}"
            )


class DataDir:
    """The on-disk layout under one root, shared by the live stack and the
    offline ``snapshot`` / ``restore`` / ``scrub`` commands."""

    def __init__(self, root: str | Path):
        self.data_dir = Path(root)
        self.wal_dir = self.data_dir / "wal"
        self.state_dir = self.data_dir / "state"
        self.mirror_dir = self.data_dir / "mirror"
        self.snapshots_dir = self.data_dir / "snapshots"
        self.candidate_path = self.data_dir / "candidate.npz"

    def snapshot_sources(self) -> dict[str, Path]:
        """The directories a snapshot must capture to rebuild serving state."""
        return {"wal": self.wal_dir, "state": self.state_dir}

    def replica_pairs(self) -> list[ReplicaPair]:
        """Each durable directory paired with its scrub mirror."""
        return [
            ReplicaPair.of(name, path, self.mirror_dir / name)
            for name, path in self.snapshot_sources().items()
        ]


class RuntimeStack(DataDir):
    """Everything behind one port, supervised.

    Parameters
    ----------
    service:
        The serving cascade traffic reads from.  Its slot is the only
        path incremental updates take to traffic (canary-gated reload).
    model:
        The *ingest-side* fitted model — a separate instance from the
        one inside ``service`` (same seed => bitwise-identical fit), so
        incremental updates never alias into serving.
    train / validation:
        The matrices backing the reloader's shape checks and the canary
        NDCG gate.
    data_dir:
        Root of all durable state, laid out as :class:`DataDir`.
    faults:
        Optional :class:`~repro.resilience.chaos.KillSwitch`;
        the disaster drill arms kills against component names through it.
    """

    def __init__(
        self,
        service: RecommendationService,
        model,
        train: InteractionMatrix,
        validation: InteractionMatrix | None,
        data_dir: str | Path,
        *,
        edge_config: EdgeConfig | None = None,
        ingest_config: IngestConfig | None = None,
        wal_config: WalConfig | None = None,
        supervisor_config: SupervisorConfig | None = None,
        stack_config: StackConfig | None = None,
        retrain_config: RetrainConfig | None = None,
        drift_thresholds: DriftThresholds | None = None,
        obs: MetricsRegistry | None = None,
        clock: Clock | None = None,
        faults: KillSwitch | None = None,
    ):
        super().__init__(data_dir)
        self.service = service
        self.model = model
        self.train = train
        self.validation = validation
        self.edge_config = edge_config or EdgeConfig()
        self.ingest_config = ingest_config or IngestConfig()
        self.stack_config = stack_config or StackConfig()
        self.obs = as_registry(obs)
        self.clock = as_clock(clock)

        self.state_dir.mkdir(parents=True, exist_ok=True)

        self.wal = WriteAheadLog(self.wal_dir, wal_config, obs=self.obs)
        self.reloader = ModelReloader(
            service.slot, self.candidate_path, train, validation, obs=self.obs
        )
        self.monitor = DriftMonitor(
            service, thresholds=drift_thresholds or DriftThresholds(), obs=self.obs
        )
        self.manager = AutoRetrainManager(
            self._trainer, self.reloader,
            config=retrain_config or RetrainConfig(),
            clock=self.clock, obs=self.obs,
        )
        self.scrubber = Scrubber(
            self.replica_pairs(),
            obs=self.obs,
            active_paths=lambda: {self.wal.active_segment_path()},
        )
        self.supervisor = Supervisor(
            supervisor_config, clock=self.clock, obs=self.obs, faults=faults
        )
        degrade = self._on_quarantine
        self.supervisor.add(EDGE, self._edge_component, critical=True)
        self.supervisor.add(
            INGEST, self._ingest_component, critical=True, on_quarantine=degrade
        )
        self.supervisor.add(
            RETRAIN, self._retrain_component, critical=False, on_quarantine=degrade
        )
        self.supervisor.add(
            RELOAD, self._reload_component, critical=False, on_quarantine=degrade
        )
        self.supervisor.add(SCRUB, self._scrub_component, critical=False)

        self._lock = threading.Lock()
        # Serializes candidate-file polling between the reload poller
        # and the retrain path, so a promotion is attributed to exactly
        # one of them.
        self._reload_lock = threading.Lock()
        self._edge_bound = threading.Event()
        self._monitor_stop = threading.Event()
        self._monitor: threading.Thread | None = None
        self._host: str | None = None
        self._port: int = self.edge_config.port
        self._ingestor: StreamIngestor | None = None
        self._pending_volumes: list[int] = []
        self._batches_total = 0
        self._scrub_totals = ScrubReport()
        self._last_drift: dict | None = None
        self._last_retrain: dict | None = None
        self._reload_accepts = 0

    # -- component bodies --------------------------------------------------

    def _edge_component(self, ctx: ComponentContext) -> None:
        """Host the asyncio edge on this thread; heartbeat from the loop.

        A fresh :class:`EdgeServer` per (re)start: the previous
        incarnation's worker pool and coalescer died with it.  The port
        is pinned after the first bind so restarts land on the same
        address the load generator is already pointed at.
        """
        with self._lock:
            port = self._port
        config = self.edge_config if port == 0 else replace(self.edge_config, port=port)
        server = EdgeServer(
            self.service, config=config, obs=self.obs, clock=self.clock,
            wal=self.wal, readiness=self.supervisor.ready,
        )
        loop = asyncio.new_event_loop()
        try:
            host, bound_port = loop.run_until_complete(server.start())
            with self._lock:
                self._host, self._port = host, int(bound_port)
            self._edge_bound.set()

            interval = self.stack_config.heartbeat_interval_s

            async def _beat() -> None:
                # SimulatedKill raised from heartbeat() unwinds through
                # run_until_complete — the component's crash.
                while not ctx.should_stop:
                    ctx.heartbeat()
                    await asyncio.sleep(interval)

            loop.run_until_complete(_beat())
        finally:
            # Runs on both clean stop and simulated kill: a dead process
            # would have its sockets closed by the OS, so the simulation
            # must close them too or the restart could never rebind.
            async def _shutdown() -> None:
                await server.stop()
                current = asyncio.current_task()
                pending = [task for task in asyncio.all_tasks() if task is not current]
                for task in pending:
                    task.cancel()
                await asyncio.gather(*pending, return_exceptions=True)

            try:
                loop.run_until_complete(_shutdown())
            finally:
                loop.close()

    def _ingest_component(self, ctx: ComponentContext) -> None:
        """Resume-from-disk WAL consumer loop.

        Every (re)start rebuilds the ingestor from the last committed
        triple; an injected crash between commits merely replays the
        suffix, bitwise-identically.
        """
        ingestor = StreamIngestor.resume(
            self.wal, self.model, self.state_dir,
            config=self.ingest_config, obs=self.obs,
        )
        with self._lock:
            self._ingestor = ingestor
        while True:
            ctx.heartbeat()
            reports = ingestor.run(max_batches=self.stack_config.ingest_max_batches)
            if reports:
                with self._lock:
                    self._batches_total += len(reports)
                    self._pending_volumes.extend(r.records for r in reports)
            if ctx.wait(self.stack_config.ingest_poll_s):
                return

    def _retrain_component(self, ctx: ComponentContext) -> None:
        """Drift check -> (maybe) retrain -> rebase on promotion."""
        while True:
            ctx.heartbeat()
            with self._lock:
                volumes, self._pending_volumes = self._pending_volumes, []
            for volume in volumes:
                self.monitor.observe_volume(volume)
            drift = self.monitor.check()
            with self._lock:
                self._last_drift = drift.to_json_dict()
            if drift.drifted:
                with self._reload_lock:
                    outcome = self.manager.maybe_retrain(drift)
                if outcome.promoted:
                    self.monitor.rebase()
                with self._lock:
                    self._last_retrain = outcome.to_json_dict()
            if ctx.wait(self.stack_config.retrain_poll_s):
                return

    def _reload_component(self, ctx: ComponentContext) -> None:
        """Poll the candidate path for externally-dropped factor files."""
        while True:
            ctx.heartbeat()
            if self._reload_lock.acquire(blocking=False):
                try:
                    result = self.reloader.poll()
                finally:
                    self._reload_lock.release()
                if result.accepted:
                    with self._lock:
                        self._reload_accepts += 1
            if ctx.wait(self.stack_config.reload_poll_s):
                return

    def _scrub_component(self, ctx: ComponentContext) -> None:
        """Background verify-and-repair over the WAL and ingest state."""
        while True:
            ctx.heartbeat()
            report = self.scrubber.scrub_once()
            with self._lock:
                self._scrub_totals.merge(report)
            if ctx.wait(self.stack_config.scrub_poll_s):
                return

    # -- pipeline glue -------------------------------------------------------

    def _trainer(self) -> None:
        """The retrain manager's trainer: publish the ingest factors."""
        with self._lock:
            ingestor = self._ingestor
        if ingestor is None:
            raise ConfigError("retrain triggered before the ingest component started")
        publish_candidate(ingestor, self.reloader)

    def _on_quarantine(self, name: str) -> None:
        """Crash-looped pipeline component => distrust the model path."""
        self.service.set_degraded(True, reason=f"component {name!r} quarantined")

    # -- lifecycle -----------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._monitor_stop.wait(MONITOR_INTERVAL_S):
            self.supervisor.poll()

    def start(self) -> tuple[str, int]:
        """Start every component and the monitor loop; blocks until the
        edge is bound."""
        self.supervisor.start()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="stack-monitor", daemon=True
        )
        self._monitor.start()
        if not self._edge_bound.wait(timeout=self.stack_config.start_timeout_s):
            raise ConfigError(
                f"edge failed to bind within {self.stack_config.start_timeout_s}s"
            )
        return self.address()

    def address(self) -> tuple[str, int]:
        with self._lock:
            if self._host is None:
                raise ConfigError("stack is not started")
            return self._host, self._port

    def wait_until(self, predicate: Callable[[], bool], timeout_s: float, what: str) -> bool:
        """Block until ``predicate()`` holds (True) or ``timeout_s`` passes
        (False, recorded as a ``stack_wait_timeout`` event naming ``what``)."""
        deadline = self.clock.monotonic() + timeout_s
        while not predicate():
            if self.clock.monotonic() >= deadline:
                self.obs.event("stack_wait_timeout", what=what, timeout_s=timeout_s)
                return False
            self.clock.sleep(_WAIT_STEP_S)
        return True

    def drain(self) -> dict:
        """Ordered shutdown: the monitor loop, then components in reverse
        start order, then I/O."""
        self._monitor_stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=self.supervisor.config.drain_timeout_s)
        report = self.supervisor.drain()
        self.wal.close()
        return report

    def close(self) -> None:
        self.service.close()

    def __enter__(self) -> "RuntimeStack":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.drain()
        self.close()

    # -- state and drill hooks -------------------------------------------------

    def factors_checksum(self) -> int:
        """CRC-32 of the ingest-side factors (the bitwise-replay witness)."""
        with self._lock:
            ingestor = self._ingestor
        if ingestor is not None:
            return ingestor.factors_checksum()
        params = self.model.params_
        return array_checksum(
            params.user_factors, params.item_factors, params.item_bias
        )

    def batches_total(self) -> int:
        with self._lock:
            return self._batches_total

    def caught_up(self) -> bool:
        """True once the ingest cursor has reached the end of the WAL.

        Positions are (segment, offset) pairs ordered across rotations;
        the cursor of a fully drained ingestor equals the log's end.
        """
        with self._lock:
            ingestor = self._ingestor
        if ingestor is None or ingestor.position is None:
            return len(self.wal) == 0
        return ingestor.position >= self.wal.position()

    def scrub_totals(self) -> ScrubReport:
        """Accumulated scrub outcomes since start (a merged copy)."""
        merged = ScrubReport()
        with self._lock:
            merged.merge(self._scrub_totals)
        return merged

    def status(self) -> dict:
        """JSON-ready operational state for reports and ``--json-out``."""
        with self._lock:
            drift = self._last_drift
            retrain = self._last_retrain
            reload_accepts = self._reload_accepts
            batches = self._batches_total
        scrub = self.scrub_totals()
        is_ready, detail = self.supervisor.ready()
        return {
            "components": detail["components"],
            "ready": is_ready,
            "blocked_on": detail["blocked_on"],
            "batches_total": batches,
            "records_total": len(self.wal),
            "slot_version": self.service.slot.version if self.service.slot else None,
            "degraded_mode": self.service.degraded_mode(),
            "last_drift": drift,
            "last_retrain": retrain,
            "reload_accepts": reload_accepts,
            "scrub": scrub.to_json_dict(),
        }

    # -- disaster recovery -------------------------------------------------------

    def snapshot(self, *, tag: str = "snap") -> SnapshotManifest:
        """Bundle the durable state.  Quiesce first (drain) — the copy is
        per-file atomic, not transactional across the commit triple."""
        return create_snapshot(
            self.snapshots_dir, self.snapshot_sources(), tag=tag, obs=self.obs
        )

    def restore(self, snapshot_id: str, *, wipe: bool = True):
        """Rebuild the data directories from a bundle (drained stacks only).

        The readiness gate is held for the duration so a load balancer
        watching ``/v1/ready`` routes away even if the edge of a future
        incarnation is already up.
        """
        self.supervisor.set_gate("restoring")
        try:
            return restore_snapshot(
                self.snapshots_dir, snapshot_id, self.snapshot_sources(),
                wipe=wipe, obs=self.obs,
            )
        finally:
            self.supervisor.set_gate(None)
