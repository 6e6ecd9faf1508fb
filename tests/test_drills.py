"""The drills as library calls, at a scale tier-1 can afford.

Both drills run end to end through :mod:`repro.drills` — real HTTP
edge, real WAL, real scrubber — so "zero failed requests under chaos"
and "bitwise kill-and-resume" are pinned by tests, not only by the CI
drill commands.  The report gates are also checked on hand-built
rounds, since a healthy drill never reaches their failure branches.
The CI drill commands are parsed flag for flag into the same configs.
"""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from repro import make_profile_dataset, train_test_split
from repro.cli import _disaster_config, _retrain_config, build_parser
from repro.drills import (
    DisasterDrillConfig,
    DisasterDrillReport,
    ModelSpec,
    RestoreCheck,
    RetrainDrillConfig,
    RetrainDrillReport,
    ServingConfig,
    run_disaster_drill,
    run_retrain_drill,
)
from repro.edge import EdgeConfig
from repro.persistence import load_factors
from repro.resilience.chaos import TierFault
from repro.runtime import COMPONENTS, ScrubReport, SupervisorConfig
from repro.serving import ServiceConfig
from repro.streaming import DriftThresholds, IngestConfig, RetrainConfig

CI_WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"

#: Top-level keys of the ``--json-out`` reports (what CI archives).
RETRAIN_KEYS = {
    "rounds", "total_failed", "retrain_statuses", "records_total",
    "factors_crc32", "slot_version",
}
DISASTER_KEYS = {
    "rounds", "total_failed", "total_retried", "kills_requested", "kills_fired",
    "restarts", "corruption_injected", "scrub", "factors_crc32", "snapshot_id",
    "restore", "status",
}


@pytest.fixture(scope="module")
def split():
    return train_test_split(make_profile_dataset("ML100K", scale=0.1, seed=0), seed=0)


def drill_options(**overrides) -> dict:
    settings = dict(
        model=ModelSpec("BPR", epochs=1, profile="ML100K", seed=0),
        serving=ServingConfig(service=ServiceConfig(default_deadline_ms=250.0)),
        edge=EdgeConfig(),
        ingest=IngestConfig(batch_records=64),
        retrain=RetrainConfig(max_retries=2),
        drift=DriftThresholds(min_requests=20),
        rounds=2,
        requests_per_round=40,
        rate_rps=400.0,
        concurrency=4,
        k=5,
        synthesize=30,
        expect_zero_failed=True,
    )
    settings.update(overrides)
    return settings


def disaster_options(data_dir, **overrides) -> dict:
    settings = drill_options(
        ingest=IngestConfig(batch_records=16),
        data_dir=data_dir,
        wal_segment_bytes=1024,
        supervisor=SupervisorConfig(backoff_base_s=0.05, backoff_max_s=0.5),
        retry_attempts=4,
        retry_backoff_s=0.25,
        recovery_timeout_s=30.0,
        snapshot_tag="drill",
    )
    settings.update(overrides)
    return settings


def retrain_options(tmp_path, **overrides) -> dict:
    settings = drill_options(
        wal_dir=tmp_path / "wal",
        state_dir=tmp_path / "state",
        fault_at_round=1,
        clear_at_round=2,
    )
    settings.update(overrides)
    return settings


def test_disaster_drill_recovers_repairs_and_restores_bitwise(split, tmp_path):
    config = DisasterDrillConfig(
        **disaster_options(tmp_path / "data"),
        kills=(("edge", 0), ("ingest", 1)),
        corrupt_state_at=1,
        corrupt_wal_at=1,
        expect_recovery=True,
        expect_all_repaired=True,
        expect_restore_identical=True,
    )
    report = run_disaster_drill(config, split)

    assert report.failures() == []
    assert report.total_failed == 0
    assert report.kills_fired == ["edge", "ingest"]
    assert report.restarts["edge"] >= 1 and report.restarts["ingest"] >= 1
    assert report.corruption_injected == 2
    assert report.rounds[1]["repaired"] and report.rounds[1]["recovered"]
    assert report.restore is not None and report.restore.identical
    assert report.restore.factors_crc32 == report.factors_crc32
    assert set(report.to_json_dict()) == DISASTER_KEYS


def test_retrain_drill_reaches_the_canary_gate_under_nan_faults(split, tmp_path):
    config = RetrainDrillConfig(
        **retrain_options(tmp_path),
        faults={"personalized": TierFault(nan_scores=True)},
        expect_retrain=True,
    )
    report = run_retrain_drill(config, split)

    assert report.failures() == []
    assert report.total_failed == 0
    assert report.retrain_statuses[0] == "skipped"
    assert report.retrain_statuses[1] in ("promoted", "rejected")
    assert report.rounds[1]["load"]["fallback_rate"] == 1.0
    assert set(report.to_json_dict()) == RETRAIN_KEYS
    _, metadata = load_factors(tmp_path / "state" / "candidate.npz")
    assert metadata["method"] == "BPR"
    assert metadata["version_tag"].startswith("stream-")


def retrain_report(config, statuses) -> RetrainDrillReport:
    return RetrainDrillReport(
        rounds=[], total_failed=2, retrain_statuses=statuses, records_total=0,
        factors_crc32=0, slot_version="initial", config=config,
    )


def test_retrain_gates_report_failed_requests_and_a_missing_retrain(tmp_path):
    config = RetrainDrillConfig(**retrain_options(tmp_path), expect_retrain=True)
    assert retrain_report(config, ["skipped", "failed"]).failures() == [
        "2 failed requests during the drill",
        "no retrain reached the canary gate despite --expect-retrain",
    ]
    assert retrain_report(config, ["skipped", "rejected"]).failures() == [
        "2 failed requests during the drill",
    ]
    quiet = RetrainDrillConfig(**retrain_options(tmp_path, expect_zero_failed=False))
    assert retrain_report(quiet, ["skipped"]).failures() == []


def disaster_report(config, rounds, corruption_injected, restore) -> DisasterDrillReport:
    return DisasterDrillReport(
        rounds=rounds,
        total_failed=2,
        total_retried=0,
        kills_requested=[["edge", 0], ["scrub", 0]],
        kills_fired=["edge"],
        restarts={"edge": 1, "ingest": 0, "retrain": 0, "reload": 0, "scrub": 0},
        corruption_injected=corruption_injected,
        scrub=ScrubReport(repaired_primary=1).to_json_dict(),
        factors_crc32=7,
        snapshot_id="drill-000000",
        restore=restore,
        status={},
        config=config,
    )


def test_disaster_gates_report_every_unmet_expectation(tmp_path):
    config = DisasterDrillConfig(
        **disaster_options(tmp_path),
        kills=(("edge", 0), ("scrub", 0)),
        expect_recovery=True,
        expect_all_repaired=True,
        expect_restore_identical=True,
    )
    nothing_injected = disaster_report(config, [{"round": 0, "recovered": False}], 0, None)
    assert nothing_injected.failures() == [
        "2 failed requests during the drill",
        "only 1 of 2 armed kills fired",
        "killed components never restarted: ['scrub']",
        "a killed component did not return to running",
        "--expect-all-repaired set but no corruption was injected "
        "(use --corrupt-state-at/--corrupt-wal-at)",
        "--expect-restore-identical set with --no-restore",
    ]
    assert set(nothing_injected.to_json_dict()) == DISASTER_KEYS

    diverged = RestoreCheck(True, 12, [], 8, False)
    unrepaired = disaster_report(config, [{"round": 0, "repaired": False}], 2, diverged)
    assert unrepaired.failures()[-2:] == [
        "scrub repaired 1 with 0 unrepaired of 2 injected corruptions",
        "restored factors crc32 8 != live 7",
    ]


def ci_args(command: str):
    """``repro <command>``'s flags exactly as the CI workflow passes them."""
    text = CI_WORKFLOW.read_text().replace("\\\n", " ")
    for line in text.splitlines():
        _, found, rest = line.partition(f"python -m repro {command} ")
        if found:
            return build_parser().parse_args([command, *shlex.split(rest)])
    raise AssertionError(f"no `repro {command}` step in {CI_WORKFLOW}")


def test_ci_run_flags_build_the_disaster_drill_config():
    config = _disaster_config(ci_args("run"))

    assert config.model == ModelSpec("BPR", 1, "ML100K", 0)
    assert (config.rounds, config.requests_per_round, config.rate_rps) == (3, 60, 200.0)
    assert (config.synthesize, config.concurrency, config.k) == (40, 4, 5)
    assert config.kills == (("edge", 0), ("ingest", 1), *((name, 2) for name in COMPONENTS))
    assert (config.corrupt_state_at, config.corrupt_wal_at) == (1, 2)
    assert config.wal_segment_bytes == 1024
    assert config.ingest.batch_records == 16
    assert config.supervisor.backoff_base_s == 0.05
    assert config.supervisor.backoff_max_s == 0.5
    assert (config.retry_attempts, config.retry_backoff_s) == (4, 0.25)
    assert config.snapshot_tag == "drill" and config.restore
    assert config.expect_zero_failed and config.expect_recovery
    assert config.expect_all_repaired and config.expect_restore_identical


def test_ci_retrain_daemon_flags_build_the_retrain_drill_config():
    config = _retrain_config(ci_args("retrain-daemon"))

    assert config.model == ModelSpec("BPR", 1, "ML100K", 0)
    assert (config.rounds, config.requests_per_round, config.rate_rps) == (3, 40, 400.0)
    assert config.synthesize == 30
    assert config.faults == {"personalized": TierFault(nan_scores=True)}
    assert (config.fault_at_round, config.clear_at_round) == (1, 2)
    assert config.ingest.batch_records == 64
    assert config.retrain.max_retries == 2
    assert config.drift.min_requests == 20
    assert config.wal_dir.name == "daemon-wal"
    assert config.state_dir.name == "daemon-state"
    assert config.expect_zero_failed and config.expect_retrain
