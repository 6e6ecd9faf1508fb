"""The drills: the streaming loop and the supervised runtime under fault.

A drill serves a fitted model over HTTP, plays rounds of traffic and
feedback, injects faults, and returns a typed report: ``to_json_dict()``
is the ``--json-out`` file, ``failures()`` the ``--expect-*`` gates.
The CLI only turns flags into these configs; the tests call the same code.
The configs hold no tuning defaults of their own: every knob is passed
in (the CLI's flag defaults are the one place those values are chosen);
only the switches that are off unless asked for default.
"""

from __future__ import annotations

import shutil
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.data.dataset import DatasetSplit
from repro.edge import (
    EdgeConfig,
    EdgeServer,
    EdgeServerThread,
    WorkloadConfig,
    generate_schedule,
    run_load_sync,
)
from repro.experiments.config import ExperimentScale
from repro.experiments.registry import make_model
from repro.obs import MetricsRegistry
from repro.resilience.chaos import (
    KillSwitch,
    ServiceFaultInjector,
    TierFault,
    flip_bits,
)
from repro.runtime import COMPONENTS, RUNNING, RuntimeStack, SupervisorConfig
from repro.serving import (
    InlineExecutor,
    ModelReloader,
    RecommendationService,
    ServiceConfig,
    ThreadedExecutor,
)
from repro.streaming import (
    AutoRetrainManager,
    DriftMonitor,
    DriftThresholds,
    IngestConfig,
    RetrainConfig,
    StreamIngestor,
    TimeDecayReranker,
    WalConfig,
    WalRecord,
    WriteAheadLog,
    append_all,
    publish_candidate,
    synthesize_records,
)


@dataclass(frozen=True)
class ModelSpec:
    """A registry method fitted for ``epochs`` at ``seed`` with the
    ``profile``'s hyperparameters; two fits are bitwise one model."""

    method: str
    epochs: int
    profile: str
    seed: int

    def fit(self, split: DatasetSplit, *, obs: MetricsRegistry | None = None):
        scale = ExperimentScale(n_epochs=self.epochs, repeats=1, seed=self.seed)
        model = make_model(
            self.method, scale=scale, dataset=self.profile, seed=self.seed
        )
        if obs is not None:
            model.obs = obs
        return model.fit(split.train, split.validation)


@dataclass(frozen=True)
class ServingConfig:
    """The cascade around a fitted model; ``inline`` runs tiers on the
    calling thread instead of worker threads with hard cut-offs."""

    service: ServiceConfig
    inline: bool = False
    fit_knn: bool = True

    def build(
        self, model, train, *, chaos=None, obs=None, reranker=None
    ) -> RecommendationService:
        return RecommendationService.build(
            model,
            train,
            fit_knn=self.fit_knn,
            config=self.service,
            executor=InlineExecutor() if self.inline else ThreadedExecutor(),
            chaos=chaos,
            obs=obs,
            reranker=reranker,
        )


@dataclass(frozen=True, kw_only=True)
class DrillConfig:
    """What both drills share.  Round ``r`` plays ``requests_per_round``
    Zipf arrivals and appends ``synthesize`` feedback records, both
    seeded with ``model.seed + r``."""

    model: ModelSpec
    serving: ServingConfig
    edge: EdgeConfig
    ingest: IngestConfig
    retrain: RetrainConfig
    drift: DriftThresholds
    rounds: int
    requests_per_round: int
    rate_rps: float
    concurrency: int
    k: int
    synthesize: int
    expect_zero_failed: bool = False


def _fit_twice(spec: ModelSpec, split: DatasetSplit):
    """One fitted state twice: the slot serves one, ingest mutates the
    other, so updates reach traffic only through the canary gate."""
    print(f"training base {spec.method} ({spec.epochs} epochs)...")
    return spec.fit(split), spec.fit(split)


def _play_rounds(
    config: DrillConfig,
    split: DatasetSplit,
    address: tuple[str, int],
    wal: WriteAheadLog,
    before: Callable[[int], dict],
    after: Callable[[int], dict],
    **load_options,
) -> list[dict]:
    """Every round: ``before`` → load → feedback → ``after``; one JSON
    record per round, with the hooks' entries merged in."""
    train = split.train
    rounds = []
    for index in range(config.rounds):
        record = {"round": index, **before(index)}
        seed = config.model.seed + index
        schedule = generate_schedule(
            WorkloadConfig(
                n_users=train.n_users,
                requests=config.requests_per_round,
                rate_rps=config.rate_rps,
                k=config.k,
                seed=seed,
            )
        )
        load = run_load_sync(
            *address, schedule, concurrency=config.concurrency, **load_options
        ).to_json_dict()
        print(
            f"[round {index}] failed={load['failed']} retried={load['retried']} "
            f"p99={load['p99_ms']:.1f}ms fallback={load['fallback_rate']:.1%}"
        )
        records = synthesize_records(
            config.synthesize, n_users=train.n_users, n_items=train.n_items, seed=seed
        )
        record.update(load=load, fresh_records=append_all(wal, records), **after(index))
        rounds.append(record)
    return rounds


@dataclass(frozen=True, kw_only=True)
class DrillReport:
    """A drill's outcome; every field but ``config`` is a ``--json-out`` key."""

    rounds: list[dict]
    total_failed: int
    config: DrillConfig

    def to_json_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "config"}

    def failures(self) -> list[str]:
        """The ``--expect-*`` gates that did not hold."""
        if self.config.expect_zero_failed and self.total_failed:
            return [f"{self.total_failed} failed requests during the drill"]
        return []


@dataclass(frozen=True, kw_only=True)
class RetrainDrillConfig(DrillConfig):
    """Faults armed at ``fault_at_round`` and cleared at ``clear_at_round``;
    the retrain candidate lands at ``state_dir/candidate.npz``."""

    wal_dir: Path
    state_dir: Path
    fault_at_round: int
    clear_at_round: int
    faults: Mapping[str, TierFault] = field(default_factory=dict)
    decay_half_life_s: float | None = None
    expect_retrain: bool = False


@dataclass(frozen=True, kw_only=True)
class RetrainDrillReport(DrillReport):
    config: RetrainDrillConfig
    retrain_statuses: list[str]
    records_total: int
    factors_crc32: int
    slot_version: str

    def failures(self) -> list[str]:
        failures = super().failures()
        if self.config.expect_retrain and not (
            {"promoted", "rejected"} & set(self.retrain_statuses)
        ):
            failures.append(
                "no retrain reached the canary gate despite --expect-retrain"
            )
        return failures


def run_retrain_drill(
    config: RetrainDrillConfig,
    split: DatasetSplit,
    *,
    obs: MetricsRegistry | None = None,
) -> RetrainDrillReport:
    """Load → feedback → ingest → drift check → maybe retrain, per round,
    all on the calling thread, so a round's outcome depends only on its inputs."""
    serve_model, model = _fit_twice(config.model, split)
    chaos = ServiceFaultInjector()
    with WriteAheadLog(config.wal_dir, obs=obs) as wal:
        ingestor = StreamIngestor(
            wal, model, config.state_dir, config=config.ingest, obs=obs
        )
        reranker = None
        if config.decay_half_life_s is not None:
            reranker = TimeDecayReranker(
                ingestor.item_last_seen_, half_life_s=config.decay_half_life_s
            )
        with config.serving.build(
            serve_model, split.train, chaos=chaos, obs=obs, reranker=reranker
        ) as service:
            reloader = ModelReloader(
                service.slot,
                Path(config.state_dir) / "candidate.npz",
                split.train,
                split.validation,
                obs=obs,
            )
            monitor = DriftMonitor(service, thresholds=config.drift, obs=obs)
            manager = AutoRetrainManager(
                lambda: publish_candidate(ingestor, reloader),
                reloader,
                config=config.retrain,
                obs=obs,
            )

            def before(index: int) -> dict:
                if index == config.fault_at_round and config.faults:
                    chaos.faults.update(config.faults)
                    print(f"[round {index}] armed faults: {sorted(chaos.faults)}")
                if index == config.clear_at_round and chaos.faults:
                    chaos.clear()
                    print(f"[round {index}] faults cleared")
                return {}

            def after(index: int) -> dict:
                for report in ingestor.run():
                    monitor.observe_volume(report.records)
                drift = monitor.check()
                outcome = manager.maybe_retrain(drift)
                if outcome.promoted:
                    monitor.rebase()
                print(f"[round {index}] drift={drift.drifted} retrain={outcome.status}")
                return {"drift": drift.to_json_dict(), "retrain": outcome.to_json_dict()}

            server = EdgeServer(service, config=config.edge, obs=obs, wal=wal)
            with EdgeServerThread(server) as (host, port):
                print(
                    f"edge listening on http://{host}:{port} (feedback route enabled)"
                )
                rounds = _play_rounds(
                    config, split, (host, port), wal, before, after
                )
            return RetrainDrillReport(
                rounds=rounds,
                total_failed=sum(r["load"]["failed"] for r in rounds),
                retrain_statuses=[r["retrain"]["status"] for r in rounds],
                records_total=ingestor.records_total_,
                factors_crc32=ingestor.factors_checksum(),
                slot_version=service.slot.version,
                config=config,
            )


@dataclass(frozen=True, kw_only=True)
class DisasterDrillConfig(DrillConfig):
    """``kills`` are ``(component, round)`` pairs; ``corrupt_*_at`` name the
    round that flips a bit in a mirrored state blob / rotated WAL segment.
    Clients retry transport errors; each recovery wait has one timeout."""

    data_dir: Path
    wal_segment_bytes: int
    supervisor: SupervisorConfig
    retry_attempts: int
    retry_backoff_s: float
    recovery_timeout_s: float
    snapshot_tag: str
    kills: tuple[tuple[str, int], ...] = ()
    corrupt_state_at: int | None = None
    corrupt_wal_at: int | None = None
    restore: bool = True
    expect_recovery: bool = False
    expect_all_repaired: bool = False
    expect_restore_identical: bool = False


@dataclass(frozen=True)
class RestoreCheck:
    ok: bool
    files_restored: int
    problems: list[str]
    factors_crc32: int | None
    identical: bool


@dataclass(frozen=True, kw_only=True)
class DisasterDrillReport(DrillReport):
    config: DisasterDrillConfig
    total_retried: int
    kills_requested: list[list]
    kills_fired: list[str]
    restarts: dict[str, int]
    corruption_injected: int
    scrub: dict
    factors_crc32: int
    snapshot_id: str
    restore: RestoreCheck | None
    status: dict

    def failures(self) -> list[str]:
        config = self.config
        failures = super().failures()
        if config.expect_recovery:
            if len(self.kills_fired) < len(config.kills):
                failures.append(
                    f"only {len(self.kills_fired)} of {len(config.kills)} armed kills fired"
                )
            lazy = sorted(
                {name for name, _ in config.kills if self.restarts[name] == 0}
            )
            if lazy:
                failures.append(f"killed components never restarted: {lazy}")
            if not all(r.get("recovered", True) for r in self.rounds):
                failures.append("a killed component did not return to running")
        if config.expect_all_repaired:
            unrepaired = self.scrub["unrepaired"]
            if self.corruption_injected == 0:
                failures.append(
                    "--expect-all-repaired set but no corruption was injected "
                    "(use --corrupt-state-at/--corrupt-wal-at)"
                )
            elif unrepaired or not all(r.get("repaired", True) for r in self.rounds):
                repairs = self.scrub["repaired_primary"] + self.scrub["repaired_mirror"]
                failures.append(
                    f"scrub repaired {repairs} with {len(unrepaired)} unrepaired "
                    f"of {self.corruption_injected} injected corruptions"
                )
        if config.expect_restore_identical:
            if self.restore is None:
                failures.append("--expect-restore-identical set with --no-restore")
            elif not self.restore.identical:
                failures.append(
                    f"restored factors crc32 {self.restore.factors_crc32} != "
                    f"live {self.factors_crc32}"
                )
        return failures


def _corrupt(stack: RuntimeStack, kinds: list[str], wait) -> list[str]:
    """Flip a bit in the newest state blob / rotated WAL segment, once
    mirrored: a never-replicated file is unrepairable by construction."""
    active = stack.wal.active_segment_path()
    candidates = {
        "state": sorted(stack.state_dir.glob("*.npz"))[-1:],
        "wal": [p for p in sorted(stack.wal_dir.glob("*.wal")) if p != active][-1:],
    }
    injected = []
    for kind in kinds:
        if not candidates[kind]:
            print(f"note: no {kind} file to corrupt yet; skipping")
            continue
        path = candidates[kind][0]
        mirror = stack.mirror_dir / kind / path.name
        size = path.stat().st_size
        if wait(
            lambda: mirror.exists() and mirror.stat().st_size >= size,
            f"the scrubber to mirror {path.name}",
        ):
            flip_bits(path, [size // 2])
            injected.append(f"{kind}/{path.name}")
            print(f"[corrupt] flipped a bit in {path}")
    return injected


def run_disaster_drill(
    config: DisasterDrillConfig,
    split: DatasetSplit,
    *,
    obs: MetricsRegistry | None = None,
) -> DisasterDrillReport:
    """Kills and bit flips under traffic on the supervised stack, then
    drain → snapshot → wipe → restore → replay to the same factors."""
    serve_model, model = _fit_twice(config.model, split)
    faults = KillSwitch()
    stack = RuntimeStack(
        config.serving.build(serve_model, split.train, obs=obs),
        model,
        split.train,
        split.validation,
        config.data_dir,
        edge_config=config.edge,
        ingest_config=config.ingest,
        wal_config=WalConfig(segment_bytes=config.wal_segment_bytes),
        supervisor_config=config.supervisor,
        retrain_config=config.retrain,
        drift_thresholds=config.drift,
        obs=obs,
        faults=faults,
    )

    def wait(predicate: Callable[[], bool], what: str) -> bool:
        if stack.wait_until(predicate, config.recovery_timeout_s, what):
            return True
        print(
            f"note: timed out after {config.recovery_timeout_s:.0f}s waiting for {what}"
        )
        return False

    armed: dict[str, int] = {}  # this round's kills -> restart count before

    def before(index: int) -> dict:
        record: dict = {}
        corruptions = (("state", config.corrupt_state_at), ("wal", config.corrupt_wal_at))
        kinds = [kind for kind, at in corruptions if at == index]
        repairs = stack.scrub_totals().repairs
        injected = _corrupt(stack, kinds, wait)
        if injected:
            record["corrupted"] = injected
            record["repaired"] = wait(
                lambda: stack.scrub_totals().repairs - repairs >= len(injected),
                "scrub repair of injected corruption",
            )
        armed.clear()
        for name in (name for name, at in config.kills if at == index):
            armed[name] = stack.supervisor.component(name).restarts
            faults.kill(name)
        if armed:
            print(f"[round {index}] armed kills: {', '.join(armed)}")
        return record

    def recovered() -> bool:
        states = stack.supervisor.states()
        return all(
            states[name] == RUNNING and stack.supervisor.component(name).restarts > count
            for name, count in armed.items()
        )

    def after(index: int) -> dict:
        wait(stack.caught_up, "ingest to drain the WAL")
        if not armed:
            return {}
        return {"recovered": wait(recovered, f"restart of {', '.join(armed)}")}

    with stack:  # drains the stack and closes the service on the way out
        host, port = stack.start()
        print(
            f"supervised stack on http://{host}:{port} "
            f"(components: {', '.join(COMPONENTS)})"
        )
        rounds = _play_rounds(
            config,
            split,
            (host, port),
            stack.wal,
            before,
            after,
            max_attempts=config.retry_attempts,
            retry_backoff_s=config.retry_backoff_s,
        )
        status = stack.status()
    checksum = stack.factors_checksum()
    print(f"drained; factors crc32: {checksum}")
    manifest = stack.snapshot(tag=config.snapshot_tag)
    print(f"snapshot {manifest.snapshot_id}: {len(manifest.files)} files")

    restore = None
    if config.restore:
        # The actual disaster: lose every durable directory, rebuild
        # from the bundle, and replay to bitwise-identical factors.
        shutil.rmtree(stack.wal_dir, ignore_errors=True)
        shutil.rmtree(stack.state_dir, ignore_errors=True)
        result = stack.restore(manifest.snapshot_id, wipe=True)
        restored = None
        if result.ok:
            restored = ingest(
                config.model.fit(split),
                stack.wal_dir,
                stack.state_dir,
                config.ingest,
                resume=True,
                obs=obs,
            ).factors_checksum()
        restore = RestoreCheck(
            ok=result.ok,
            files_restored=result.files_restored,
            problems=list(result.problems),
            factors_crc32=restored,
            identical=result.ok and restored == checksum,
        )
        print(
            f"restore: ok={restore.ok} files={restore.files_restored} "
            f"identical={restore.identical}"
        )

    return DisasterDrillReport(
        rounds=rounds,
        total_failed=sum(r["load"]["failed"] for r in rounds),
        total_retried=sum(r["load"]["retried"] for r in rounds),
        kills_requested=[[name, at] for name, at in config.kills],
        kills_fired=list(faults.fired_),
        restarts={name: stack.supervisor.component(name).restarts for name in COMPONENTS},
        corruption_injected=sum(len(r.get("corrupted", ())) for r in rounds),
        scrub=stack.scrub_totals().to_json_dict(),
        factors_crc32=checksum,
        snapshot_id=manifest.snapshot_id,
        restore=restore,
        status=status,
        config=config,
    )


def ingest(
    model,
    wal_dir: str | Path,
    state_dir: str | Path,
    config: IngestConfig,
    *,
    resume: bool,
    records: Sequence[WalRecord] = (),
    wal_config: WalConfig | None = None,
    max_batches: int | None = None,
    obs: MetricsRegistry | None = None,
) -> StreamIngestor:
    """Append ``records`` to the WAL, then consume it into ``model``; with
    ``resume``, from the last committed state triple under ``state_dir``,
    to bitwise the factors of an uninterrupted run (``factors crc32:``)."""
    with WriteAheadLog(wal_dir, wal_config, obs=obs) as wal:
        if records:
            fresh = append_all(wal, records)
            print(
                f"appended {fresh} fresh records "
                f"({len(records) - fresh} duplicates) to {wal_dir}"
            )
        if resume:
            ingestor = StreamIngestor.resume(
                wal, model, state_dir, config=config, obs=obs
            )
            if ingestor.batch_index_ >= 0:
                print(
                    f"resumed at committed batch {ingestor.batch_index_} "
                    f"(position {ingestor.position})"
                )
            else:
                print(f"no committed state under {state_dir}; starting fresh")
        else:
            ingestor = StreamIngestor(wal, model, state_dir, config=config, obs=obs)
        for report in ingestor.run(max_batches=max_batches):
            print(
                f"  batch {report.batch_index}: {report.records} records -> "
                f"{report.pairs} pairs, +{report.new_users} users "
                f"({report.folded_users} folded in), "
                f"{report.skipped_items} out-of-catalog items skipped, "
                f"{report.skipped_users} over-cap user records skipped"
            )
    print(
        f"ingested {ingestor.records_total_} records total over "
        f"{ingestor.batch_index_ + 1} batches: {ingestor.train.n_users} users, "
        f"{ingestor.train.n_interactions} interactions"
    )
    print(f"factors crc32: {ingestor.factors_checksum()}")
    return ingestor
