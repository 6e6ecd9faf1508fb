"""Background scrubbing of WAL segments and checkpoints, with mirrors.

Durable state rots: a single flipped bit in an acknowledged WAL frame
or a published checkpoint silently breaks the bitwise-replay guarantee
the streaming path is built on.  The scrubber closes the gap the way
storage systems do — keep a **replica**, verify both copies against
their checksums on a cadence, and repair whichever side disagrees from
the side that still validates.

Each :class:`ReplicaPair` mirrors one primary directory into a mirror
directory.  Two file disciplines, chosen by suffix:

``*.wal`` — append-only prefix semantics.  The mirror always holds a
structurally-valid frame prefix of the primary (validated with the
WAL's own ``decode_frames``).  Frame CRCs arbitrate divergence: if the
primary's valid prefix is shorter than the mirror, the primary rotted
inside its acknowledged region and is repaired by splicing the mirror
prefix with the primary's surviving tail; if the primary validates but
its bytes disagree with the mirror, the mirror rotted and is rewritten.
The segment currently open for append is never rewritten (the live
handle would keep writing to the replaced inode) — repairs there are
deferred until rotation, which the stack's ``active_paths`` hook makes
visible.

everything else (``*.npz``, ``*.json``) — immutable-blob semantics.
Legitimate updates only ever arrive via atomic rename, i.e. under a new
inode; the scrub manifest records each blob's SHA-256 **and** inode, so
a changed hash under the *same* inode is bit-rot (repair from mirror)
while a changed hash under a new inode is a new version (re-mirror),
with structural validation (``json.loads`` / ``np.load`` CRC walk) as a
second witness.  Deletions propagate to the mirror so checkpoint
pruning does not accrete garbage replicas.

The manifest lives in the mirror directory (``scrub-manifest.json``)
and is itself written atomically+durably; losing it merely downgrades
the next scrub to a re-baseline.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from repro.obs import MetricsRegistry, as_registry
from repro.persistence import file_fingerprint
from repro.streaming.wal import decode_frames
from repro.utils.atomicio import write_bytes_atomic, write_json_atomic

MANIFEST_NAME = "scrub-manifest.json"
_MANIFEST_VERSION = 1


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _inode_of(fingerprint: str | None) -> str:
    return fingerprint.split(":", 1)[0] if fingerprint else ""


def _blob_structurally_valid(path: Path, data: bytes) -> bool:
    """Cheap structural witness for non-WAL artifacts.

    ``.json`` must parse; ``.npz`` must pass the zip CRC walk that
    ``np.load`` performs when each member is actually read — of the
    bytes already read, so the witness sees what was hashed.  Unknown
    suffixes get no structural check (the inode rule still applies).
    """
    if path.suffix == ".json":
        try:
            json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return False
        return True
    if path.suffix == ".npz":
        try:
            with np.load(io.BytesIO(data), allow_pickle=False) as archive:
                for name in archive.files:
                    archive[name]
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            return False
        return True
    return True


@dataclass(frozen=True)
class ReplicaPair:
    """One primary directory and the mirror that shadows it."""

    name: str
    primary: Path
    mirror: Path

    @classmethod
    def of(cls, name: str, primary: str | Path, mirror: str | Path) -> "ReplicaPair":
        return cls(name=name, primary=Path(primary), mirror=Path(mirror))


@dataclass
class ScrubFinding:
    """One anomaly the scrubber saw (and what it did about it)."""

    pair: str
    file: str
    problem: str
    action: str

    def to_json_dict(self) -> dict:
        return {
            "pair": self.pair,
            "file": self.file,
            "problem": self.problem,
            "action": self.action,
        }


@dataclass
class ScrubReport:
    """Aggregate outcome of one scrub pass over every pair."""

    files_checked: int = 0
    mirrored: int = 0
    updated: int = 0
    repaired_primary: int = 0
    repaired_mirror: int = 0
    deferred_active: int = 0
    deleted: int = 0
    torn_tails: int = 0
    unrepaired: list[str] = field(default_factory=list)
    findings: list[ScrubFinding] = field(default_factory=list)

    @property
    def repairs(self) -> int:
        return self.repaired_primary + self.repaired_mirror

    @property
    def clean(self) -> bool:
        return not self.unrepaired and not self.deferred_active

    def to_json_dict(self) -> dict:
        return {
            "files_checked": self.files_checked,
            "mirrored": self.mirrored,
            "updated": self.updated,
            "repaired_primary": self.repaired_primary,
            "repaired_mirror": self.repaired_mirror,
            "deferred_active": self.deferred_active,
            "deleted": self.deleted,
            "torn_tails": self.torn_tails,
            "unrepaired": list(self.unrepaired),
            "findings": [finding.to_json_dict() for finding in self.findings],
        }

    def merge(self, other: "ScrubReport") -> None:
        self.files_checked += other.files_checked
        self.mirrored += other.mirrored
        self.updated += other.updated
        self.repaired_primary += other.repaired_primary
        self.repaired_mirror += other.repaired_mirror
        self.deferred_active += other.deferred_active
        self.deleted += other.deleted
        self.torn_tails += other.torn_tails
        self.unrepaired.extend(other.unrepaired)
        self.findings.extend(other.findings)


def _scan(directory: Path) -> dict[str, Path]:
    """relpath -> path for every regular, non-hidden file under ``directory``."""
    if not directory.is_dir():
        return {}
    files: dict[str, Path] = {}
    for path in sorted(directory.rglob("*")):
        if not path.is_file():
            continue
        relpath = path.relative_to(directory).as_posix()
        if any(part.startswith(".") for part in Path(relpath).parts):
            continue  # atomic-write temps and restore markers
        if relpath == MANIFEST_NAME:
            continue
        files[relpath] = path
    return files


class Scrubber:
    """Verify-and-repair pass over a set of :class:`ReplicaPair`.

    ``active_paths`` (when given) returns the set of primary files that
    are currently open for append — their repairs are deferred, never
    applied, because rewriting a live inode would detach the writer.
    """

    def __init__(
        self,
        pairs: Iterable[ReplicaPair],
        *,
        obs: MetricsRegistry | None = None,
        active_paths: Callable[[], set[Path]] | None = None,
    ):
        self.pairs = list(pairs)
        self.obs = as_registry(obs)
        self.active_paths = active_paths

    # -- manifest --------------------------------------------------------

    def _load_manifest(self, pair: ReplicaPair) -> dict[str, dict]:
        path = pair.mirror / MANIFEST_NAME
        if not path.is_file():
            return {}
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        if payload.get("version") != _MANIFEST_VERSION:
            return {}
        entries = payload.get("files", {})
        return {key: dict(value) for key, value in entries.items()}

    def _store_manifest(self, pair: ReplicaPair, entries: dict[str, dict]) -> None:
        write_json_atomic(
            pair.mirror / MANIFEST_NAME,
            {"version": _MANIFEST_VERSION, "files": entries},
            durable=True,
        )

    # -- one pass --------------------------------------------------------

    def scrub_once(self) -> ScrubReport:
        report = ScrubReport()
        active = self.active_paths() if self.active_paths is not None else set()
        with self.obs.span("scrub_pass"):
            for pair in self.pairs:
                report.merge(self._scrub_pair(pair, active))
        self.obs.counter("scrub_runs_total").inc()
        self.obs.counter("scrub_files_checked_total").inc(report.files_checked)
        if report.repaired_primary:
            self.obs.counter("scrub_repaired_primary_total").inc(report.repaired_primary)
        if report.repaired_mirror:
            self.obs.counter("scrub_repaired_mirror_total").inc(report.repaired_mirror)
        if report.unrepaired:
            self.obs.counter("scrub_unrepaired_total").inc(len(report.unrepaired))
        for finding in report.findings:
            self.obs.event("scrub_finding", **finding.to_json_dict())
        return report

    def _scrub_pair(self, pair: ReplicaPair, active: set[Path]) -> ScrubReport:
        report = ScrubReport()
        pair.mirror.mkdir(parents=True, exist_ok=True)
        manifest = self._load_manifest(pair)
        primary_files = _scan(pair.primary)
        mirror_files = _scan(pair.mirror)
        for relpath in sorted(set(primary_files) | set(mirror_files) | set(manifest)):
            primary_path = pair.primary / relpath
            mirror_path = pair.mirror / relpath
            try:
                primary_data = primary_path.read_bytes() if relpath in primary_files else None
            except FileNotFoundError:
                primary_data = None  # pruned by its owner since the scan
            if primary_data is None:
                # Primary deletion (checkpoint pruning) propagates; the
                # snapshot layer, not the mirror, covers "the whole
                # directory was wiped" — a scrub must not resurrect
                # files the owner deliberately removed.
                if relpath in mirror_files:
                    mirror_path.unlink()
                manifest.pop(relpath, None)
                report.deleted += 1
                continue
            report.files_checked += 1
            if relpath.endswith(".wal"):
                self._scrub_wal(
                    pair, relpath, primary_path, primary_data, mirror_path,
                    active=primary_path in active, report=report,
                )
            else:
                self._scrub_blob(
                    pair, relpath, primary_path, primary_data, mirror_path,
                    manifest=manifest, report=report,
                )
        self._store_manifest(pair, manifest)
        return report

    # -- WAL segments: append-only prefix discipline ----------------------

    def _scrub_wal(
        self,
        pair: ReplicaPair,
        relpath: str,
        primary_path: Path,
        primary_data: bytes,
        mirror_path: Path,
        *,
        active: bool,
        report: ScrubReport,
    ) -> None:
        _, primary_valid = decode_frames(primary_data)
        mirror_data = mirror_path.read_bytes() if mirror_path.is_file() else b""
        _, mirror_valid = decode_frames(mirror_data)
        if mirror_valid < len(mirror_data):
            # The mirror itself rotted; keep only its valid prefix and
            # let the re-extension below rebuild the rest from primary.
            mirror_data = mirror_data[:mirror_valid]
            report.repaired_mirror += 1
            report.findings.append(
                ScrubFinding(pair.name, relpath, "mirror frame corruption",
                             "truncated mirror to valid prefix")
            )
        if primary_valid < len(mirror_data):
            # The primary fails CRC inside the region the mirror holds —
            # acknowledged records rotted.  Splice: trusted mirror prefix
            # + whatever valid frames the primary still has past it.
            if active:
                report.deferred_active += 1
                report.findings.append(
                    ScrubFinding(pair.name, relpath, "primary frame corruption",
                                 "deferred (segment open for append)")
                )
                return
            repaired = mirror_data + primary_data[len(mirror_data):]
            _, repaired_valid = decode_frames(repaired)
            repaired = repaired[:repaired_valid]
            write_bytes_atomic(primary_path, repaired, durable=True)
            report.repaired_primary += 1
            report.findings.append(
                ScrubFinding(pair.name, relpath, "primary frame corruption",
                             f"repaired from mirror ({repaired_valid} valid bytes)")
            )
            primary_data = repaired
            primary_valid = repaired_valid
        elif primary_data[: len(mirror_data)] != mirror_data:
            # Primary validates past the mirror's length yet the bytes
            # disagree: the mirror is the rotted side.
            mirror_data = b""
            report.repaired_mirror += 1
            report.findings.append(
                ScrubFinding(pair.name, relpath, "mirror diverged from valid primary",
                             "rebuilt mirror from primary")
            )
        if primary_valid < len(primary_data):
            # Torn tail past the valid prefix: normal post-crash state,
            # WAL recovery truncates it on next open.  Never mirrored.
            report.torn_tails += 1
        if primary_valid > len(mirror_data):
            write_bytes_atomic(mirror_path, primary_data[:primary_valid], durable=True)
            report.mirrored += 1

    # -- blobs: immutable, replaced-by-rename discipline -------------------

    def _scrub_blob(
        self,
        pair: ReplicaPair,
        relpath: str,
        primary_path: Path,
        data: bytes,
        mirror_path: Path,
        *,
        manifest: dict[str, dict],
        report: ScrubReport,
    ) -> None:
        sha = _sha256(data)
        fingerprint = file_fingerprint(primary_path) or ""
        entry = manifest.get(relpath)
        mirror_ok = (
            mirror_path.is_file() and _sha256(mirror_path.read_bytes()) == (
                entry["sha256"] if entry else sha
            )
        )

        def adopt(action: str, *, count_update: bool) -> None:
            write_bytes_atomic(mirror_path, data, durable=True)
            manifest[relpath] = {
                "sha256": sha, "size": len(data), "fingerprint": fingerprint,
            }
            if count_update:
                report.updated += 1
                report.findings.append(
                    ScrubFinding(pair.name, relpath, "content changed", action)
                )
            else:
                report.mirrored += 1

        if entry is None:
            if _blob_structurally_valid(primary_path, data):
                adopt("baselined new file", count_update=False)
            else:
                report.unrepaired.append(f"{pair.name}/{relpath}")
                report.findings.append(
                    ScrubFinding(pair.name, relpath,
                                 "new file fails structural validation",
                                 "unrepaired (no replica yet)")
                )
            return
        if sha == entry.get("sha256"):
            if not mirror_ok:
                write_bytes_atomic(mirror_path, data, durable=True)
                report.repaired_mirror += 1
                report.findings.append(
                    ScrubFinding(pair.name, relpath, "mirror missing or rotted",
                                 "rewrote mirror from primary")
                )
            if fingerprint != entry.get("fingerprint"):
                manifest[relpath]["fingerprint"] = fingerprint
            return
        same_inode = _inode_of(fingerprint) == _inode_of(entry.get("fingerprint"))
        structurally_valid = _blob_structurally_valid(primary_path, data)
        if structurally_valid and not same_inode:
            # Atomic rename = new inode = a legitimate new version.
            adopt("re-mirrored new version", count_update=True)
            return
        # In-place mutation (same inode) or a structurally-broken "new
        # version": both are corruption.  Repair from the mirror if it
        # still matches the manifest, otherwise report it unrepairable.
        problem = (
            "in-place mutation (same inode, hash changed)"
            if same_inode
            else "replacement fails structural validation"
        )
        if mirror_ok:
            write_bytes_atomic(primary_path, mirror_path.read_bytes(), durable=True)
            manifest[relpath]["fingerprint"] = file_fingerprint(primary_path) or ""
            report.repaired_primary += 1
            report.findings.append(
                ScrubFinding(pair.name, relpath, problem, "repaired from mirror")
            )
        else:
            report.unrepaired.append(f"{pair.name}/{relpath}")
            report.findings.append(
                ScrubFinding(pair.name, relpath, problem,
                             "unrepaired (mirror unavailable)")
            )
