"""Self-healing runtime: supervision, scrubbing, snapshots, the full stack."""

from repro.runtime.scrub import ReplicaPair, Scrubber, ScrubFinding, ScrubReport
from repro.runtime.snapshot import (
    RestoreReport,
    SnapshotManifest,
    create_snapshot,
    latest_snapshot,
    list_snapshots,
    load_manifest,
    restore_marker_present,
    restore_snapshot,
    verify_snapshot,
)
from repro.runtime.stack import COMPONENTS, DataDir, RuntimeStack, StackConfig
from repro.runtime.supervisor import (
    BACKOFF,
    QUARANTINED,
    RUNNING,
    STARTING,
    STOPPED,
    ComponentContext,
    Supervisor,
    SupervisorConfig,
)

__all__ = [
    "BACKOFF",
    "COMPONENTS",
    "ComponentContext",
    "DataDir",
    "QUARANTINED",
    "RUNNING",
    "ReplicaPair",
    "RestoreReport",
    "RuntimeStack",
    "STARTING",
    "STOPPED",
    "ScrubFinding",
    "ScrubReport",
    "Scrubber",
    "SnapshotManifest",
    "StackConfig",
    "Supervisor",
    "SupervisorConfig",
    "create_snapshot",
    "latest_snapshot",
    "list_snapshots",
    "load_manifest",
    "restore_marker_present",
    "restore_snapshot",
    "verify_snapshot",
]
