"""Fault-tolerant training and experiment execution.

The ``repro.resilience`` subsystem makes the hours-long training runs
and 5-repeat × multi-method × multi-λ sweeps of the paper's protocol
survivable:

* :mod:`~repro.resilience.checkpoint` — atomic epoch-boundary
  snapshots of parameters + RNG/sampler state, with checksum-verified
  load and ``fit(resume_from=...)`` support in the SGD models;
* :mod:`~repro.resilience.guard` — NaN/Inf, exploding-loss, and
  validation-stall detection with gradient clipping, LR-backoff
  rollback, or typed abort;
* :mod:`~repro.resilience.journal` — per-cell partial-result
  journaling so interrupted sweeps resume where they stopped;
* :mod:`~repro.resilience.retry` — retry-with-backoff for flaky cells;
* :mod:`~repro.resilience.chaos` — deterministic fault injection
  (NaNs, exceptions, simulated kills, disk errors, tier faults) behind
  one armed-site schedule, which makes all of the above testable.
"""

from repro.resilience.chaos import (
    DiskFault,
    DiskFaultInjector,
    FaultInjector,
    InjectedFault,
    FaultSchedule,
    KillSwitch,
    ServiceFaultInjector,
    SimulatedKill,
    TierFault,
    flip_bits,
)
from repro.resilience.checkpoint import (
    CheckpointConfig,
    CheckpointManager,
    TrainingCheckpoint,
    checkpoint_path,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    resolve_checkpoint,
    save_checkpoint,
)
from repro.resilience.guard import GuardConfig, TrainingGuard, as_guard
from repro.resilience.journal import ExperimentJournal, cell_key
from repro.resilience.retry import retry_call

__all__ = [
    "CheckpointConfig",
    "CheckpointManager",
    "DiskFault",
    "DiskFaultInjector",
    "ExperimentJournal",
    "FaultInjector",
    "FaultSchedule",
    "GuardConfig",
    "InjectedFault",
    "KillSwitch",
    "ServiceFaultInjector",
    "SimulatedKill",
    "TierFault",
    "TrainingCheckpoint",
    "TrainingGuard",
    "as_guard",
    "cell_key",
    "checkpoint_path",
    "flip_bits",
    "latest_checkpoint",
    "list_checkpoints",
    "load_checkpoint",
    "resolve_checkpoint",
    "retry_call",
    "save_checkpoint",
]
