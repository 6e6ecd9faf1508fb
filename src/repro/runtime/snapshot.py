"""Versioned snapshot/restore bundles for disaster recovery.

The streaming stack's durable state is a handful of directories — the
WAL segments and the ingest state dir (checkpoint / interactions /
offset triples).  A snapshot copies every file of every named source
into a bundle directory together with a manifest recording the SHA-256
and size of each file, so a wiped node can be rebuilt to *bitwise-
identical* serving state: restore the bundle, resume the ingestor, and
``factors_checksum()`` matches the pre-wipe value (the end-to-end drill
in ``repro run --drill`` asserts exactly this).

Restore discipline:

* every file's hash is verified against the manifest **before** any
  target is touched — a rotted bundle is rejected outright rather than
  half-applied;
* each file lands via the atomic write-temp-then-rename path with
  ``durable=True``;
* a ``.restore-incomplete`` marker is written into each target
  directory first and removed (durably) last, so a crash mid-restore is
  detectable and the restore can simply be re-run — every step is
  idempotent.

Snapshot ids are ``{tag}-{seq:06d}`` with ``seq`` derived from the
bundle directory contents, so ids are deterministic (no wall-clock or
randomness — REP001/REP002) yet strictly increasing per tag.  Each
manifest also records a root-wide creation ``sequence``, which is how
:func:`latest_snapshot` finds the newest bundle across tags.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.obs import MetricsRegistry, as_registry
from repro.utils.atomicio import fsync_directory, write_bytes_atomic, write_json_atomic
from repro.utils.exceptions import DataError

MANIFEST_NAME = "manifest.json"
RESTORE_MARKER = ".restore-incomplete"
_MANIFEST_VERSION = 1


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class SnapshotManifest:
    """The integrity contract of one bundle.

    ``files`` maps ``"{source}/{relpath}"`` to ``{"sha256", "size"}``;
    ``sources`` records the original directory of each source name for
    operator forensics (restore targets are chosen at restore time, not
    read from here).  ``sequence`` numbers the bundles of one root in
    creation order across tags (ids number per tag); ``-1`` marks a
    bundle written before it was recorded.
    """

    snapshot_id: str
    tag: str
    sources: Mapping[str, str]
    files: Mapping[str, dict]
    version: int = _MANIFEST_VERSION
    sequence: int = -1

    def to_json_dict(self) -> dict:
        return {
            "snapshot_id": self.snapshot_id,
            "tag": self.tag,
            "sources": dict(self.sources),
            "files": {key: dict(value) for key, value in self.files.items()},
            "version": self.version,
            "sequence": self.sequence,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "SnapshotManifest":
        version = int(payload.get("version", 0))
        if version != _MANIFEST_VERSION:
            raise DataError(
                f"unsupported snapshot manifest version {version} "
                f"(this build reads version {_MANIFEST_VERSION})"
            )
        return cls(
            snapshot_id=str(payload["snapshot_id"]),
            tag=str(payload["tag"]),
            sources=dict(payload["sources"]),
            files={key: dict(value) for key, value in payload["files"].items()},
            version=version,
            sequence=int(payload.get("sequence", -1)),
        )


@dataclass
class RestoreReport:
    """What a restore (or verify) actually did."""

    snapshot_id: str
    files_restored: int = 0
    bytes_restored: int = 0
    files_removed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _source_files(directory: Path) -> list[Path]:
    if not directory.is_dir():
        return []
    return sorted(p for p in directory.rglob("*") if p.is_file())


def _bundle_dir(root: Path, snapshot_id: str) -> Path:
    return Path(root) / snapshot_id


def list_snapshots(root: str | Path) -> list[str]:
    """Snapshot ids under ``root`` that carry a manifest, sorted ascending."""
    root = Path(root)
    if not root.is_dir():
        return []
    return sorted(
        entry.name for entry in root.iterdir() if (entry / MANIFEST_NAME).is_file()
    )


def _sequence(root: Path, snapshot_id: str) -> int:
    """A bundle's creation sequence (-1 when unrecorded or unreadable)."""
    try:
        return load_manifest(root, snapshot_id).sequence
    except (DataError, KeyError, ValueError):
        return -1


def latest_snapshot(root: str | Path) -> str | None:
    """Id of the most recently created bundle under ``root``, if any."""
    ids = list_snapshots(root)
    if not ids:
        return None
    return max(ids, key=lambda snapshot_id: (_sequence(Path(root), snapshot_id), snapshot_id))


def _next_snapshot_id(root: Path, tag: str) -> str:
    existing = list_snapshots(root)
    sequence = 0
    for snapshot_id in existing:
        head, _, seq = snapshot_id.rpartition("-")
        if head == tag and seq.isdigit():
            sequence = max(sequence, int(seq) + 1)
    return f"{tag}-{sequence:06d}"


def create_snapshot(
    root: str | Path,
    sources: Mapping[str, str | Path],
    *,
    tag: str = "snap",
    obs: MetricsRegistry | None = None,
) -> SnapshotManifest:
    """Copy every file of every source directory into a new bundle.

    Call this with the writers quiesced (drained supervisor or paused
    ingest): the copy is not transactional across files, and a snapshot
    taken mid-commit would be internally consistent per file but could
    pair a new checkpoint with an old offset.  The bundle is fsynced
    file-by-file and the manifest is written last, so a bundle without a
    manifest (crash mid-snapshot) is simply invisible to
    :func:`list_snapshots` and a rerun starts a fresh id.
    """
    registry = as_registry(obs)
    if not sources:
        raise DataError("create_snapshot needs at least one source directory")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    snapshot_id = _next_snapshot_id(root, tag)
    sequence = 1 + max(
        (_sequence(root, existing) for existing in list_snapshots(root)), default=-1
    )
    bundle = _bundle_dir(root, snapshot_id)
    files: dict[str, dict] = {}
    recorded_sources: dict[str, str] = {}
    with registry.span("snapshot_create", snapshot_id=snapshot_id):
        for name in sorted(sources):
            directory = Path(sources[name])
            recorded_sources[name] = str(directory)
            for path in _source_files(directory):
                relpath = path.relative_to(directory).as_posix()
                if Path(relpath).name == RESTORE_MARKER:
                    continue
                data = path.read_bytes()
                key = f"{name}/{relpath}"
                write_bytes_atomic(bundle / name / relpath, data, durable=True)
                files[key] = {"sha256": _sha256(data), "size": len(data)}
        manifest = SnapshotManifest(
            snapshot_id=snapshot_id,
            tag=tag,
            sources=recorded_sources,
            files=files,
            sequence=sequence,
        )
        write_json_atomic(bundle / MANIFEST_NAME, manifest.to_json_dict(), durable=True)
    registry.counter("snapshot_creates_total").inc()
    registry.counter("snapshot_bytes_total").inc(
        sum(entry["size"] for entry in files.values())
    )
    return manifest


def load_manifest(root: str | Path, snapshot_id: str) -> SnapshotManifest:
    manifest_path = _bundle_dir(Path(root), snapshot_id) / MANIFEST_NAME
    if not manifest_path.is_file():
        raise DataError(f"snapshot {snapshot_id!r} has no manifest under {root}")
    return SnapshotManifest.from_json_dict(
        json.loads(manifest_path.read_text(encoding="utf-8"))
    )


def verify_snapshot(root: str | Path, snapshot_id: str) -> list[str]:
    """Hash-check every bundled file; returns human-readable problems."""
    bundle = _bundle_dir(Path(root), snapshot_id)
    try:
        manifest = load_manifest(root, snapshot_id)
    except DataError as error:
        return [str(error)]
    problems: list[str] = []
    for key, entry in sorted(manifest.files.items()):
        path = bundle / key
        if not path.is_file():
            problems.append(f"missing bundled file: {key}")
            continue
        data = path.read_bytes()
        if len(data) != int(entry["size"]):
            problems.append(
                f"size mismatch for {key}: bundle {len(data)}, manifest {entry['size']}"
            )
        elif _sha256(data) != entry["sha256"]:
            problems.append(f"sha256 mismatch for {key}")
    return problems


def restore_marker_present(directory: str | Path) -> bool:
    """True when ``directory`` carries an unfinished-restore marker."""
    return (Path(directory) / RESTORE_MARKER).is_file()


def restore_snapshot(
    root: str | Path,
    snapshot_id: str,
    targets: Mapping[str, str | Path],
    *,
    wipe: bool = False,
    obs: MetricsRegistry | None = None,
) -> RestoreReport:
    """Rebuild ``targets`` from the bundle; verify-first, atomic per file.

    ``targets`` maps source names (as recorded at snapshot time) to the
    directories to rebuild.  With ``wipe=True`` any pre-existing content
    of each target is deleted first — the disaster-recovery path for a
    corrupt-beyond-repair data directory.  Without it, bundle files
    overwrite their counterparts and extra files are left alone.

    The whole operation is idempotent: a crash at any point leaves the
    ``.restore-incomplete`` marker behind, and re-running the restore
    performs the same verified copies again.
    """
    registry = as_registry(obs)
    report = RestoreReport(snapshot_id=snapshot_id)
    problems = verify_snapshot(root, snapshot_id)
    if problems:
        report.problems = [f"bundle failed verification: {p}" for p in problems]
        registry.counter("snapshot_restore_rejected_total").inc()
        return report
    manifest = load_manifest(root, snapshot_id)
    unknown = sorted(set(targets) - set(manifest.sources))
    if unknown:
        report.problems = [
            f"unknown restore target {name!r}; snapshot sources are "
            f"{sorted(manifest.sources)}" for name in unknown
        ]
        return report
    bundle = _bundle_dir(Path(root), snapshot_id)
    with registry.span("snapshot_restore", snapshot_id=snapshot_id):
        for name in sorted(targets):
            target = Path(targets[name])
            target.mkdir(parents=True, exist_ok=True)
            write_bytes_atomic(target / RESTORE_MARKER, b"", durable=True)
            if wipe:
                for entry in sorted(target.iterdir()):
                    if entry.name == RESTORE_MARKER:
                        continue
                    if entry.is_dir():
                        shutil.rmtree(entry)
                    else:
                        entry.unlink()
                    report.files_removed += 1
                fsync_directory(target, required=True)
            prefix = f"{name}/"
            for key, entry in sorted(manifest.files.items()):
                if not key.startswith(prefix):
                    continue
                data = (bundle / key).read_bytes()
                write_bytes_atomic(target / key[len(prefix):], data, durable=True)
                report.files_restored += 1
                report.bytes_restored += len(data)
            (target / RESTORE_MARKER).unlink()
            fsync_directory(target, required=True)
    registry.counter("snapshot_restores_total").inc()
    registry.counter("snapshot_restored_bytes_total").inc(report.bytes_restored)
    return report
