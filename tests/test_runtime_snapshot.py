"""Snapshot bundles: create, verify, restore, and crash-marker hygiene."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.runtime import (
    DataDir,
    create_snapshot,
    latest_snapshot,
    list_snapshots,
    load_manifest,
    restore_marker_present,
    restore_snapshot,
    verify_snapshot,
)
from repro.runtime.snapshot import MANIFEST_NAME, RESTORE_MARKER
from repro.utils.exceptions import DataError


@pytest.fixture
def layout(tmp_path):
    wal = tmp_path / "wal"
    state = tmp_path / "state"
    wal.mkdir()
    state.mkdir()
    (wal / "segment_0.wal").write_bytes(b"wal bytes")
    (state / "ckpt.npz").write_bytes(b"checkpoint bytes")
    (state / "offset.json").write_text(json.dumps({"offset": 7}))
    return {
        "root": tmp_path / "snapshots",
        "sources": {"wal": wal, "state": state},
    }


def file_contents(directory):
    return {
        path.name: path.read_bytes()
        for path in sorted(directory.iterdir())
        if path.is_file()
    }


class TestCreate:
    def test_ids_are_sequential_per_tag(self, layout):
        first = create_snapshot(layout["root"], layout["sources"], tag="drill")
        second = create_snapshot(layout["root"], layout["sources"], tag="drill")
        assert first.snapshot_id == "drill-000000"
        assert second.snapshot_id == "drill-000001"
        assert list_snapshots(layout["root"]) == ["drill-000000", "drill-000001"]

    def test_manifest_records_every_file_with_hashes(self, layout):
        manifest = create_snapshot(layout["root"], layout["sources"])
        assert sorted(manifest.files) == [
            "state/ckpt.npz", "state/offset.json", "wal/segment_0.wal",
        ]
        for entry in manifest.files.values():
            assert set(entry) == {"sha256", "size"}
        reloaded = load_manifest(layout["root"], manifest.snapshot_id)
        assert reloaded.files == manifest.files

    def test_empty_sources_rejected(self, layout):
        with pytest.raises(DataError):
            create_snapshot(layout["root"], {})

    def test_restore_marker_is_never_bundled(self, layout):
        marker = layout["sources"]["state"] / RESTORE_MARKER
        marker.write_bytes(b"")
        manifest = create_snapshot(layout["root"], layout["sources"])
        assert not any(RESTORE_MARKER in name for name in manifest.files)

    def test_bundle_without_manifest_is_invisible(self, layout):
        manifest = create_snapshot(layout["root"], layout["sources"])
        bundle = layout["root"] / manifest.snapshot_id
        (bundle / MANIFEST_NAME).unlink()  # crash before the final write
        assert list_snapshots(layout["root"]) == []
        # A rerun does not collide with the orphaned bundle's files.
        again = create_snapshot(layout["root"], layout["sources"])
        assert verify_snapshot(layout["root"], again.snapshot_id) == []


class TestLatest:
    def test_restore_latest_picks_the_newest_bundle_across_tags(self, tmp_path, capsys):
        layout = DataDir(tmp_path)
        layout.wal_dir.mkdir()
        layout.state_dir.mkdir()
        (layout.wal_dir / "segment_0.wal").write_bytes(b"wal bytes")
        (layout.state_dir / "offset.json").write_text(json.dumps({"offset": 1}))
        create_snapshot(layout.snapshots_dir, layout.snapshot_sources(), tag="drill")
        (layout.state_dir / "offset.json").write_text(json.dumps({"offset": 2}))
        create_snapshot(layout.snapshots_dir, layout.snapshot_sources(), tag="ci")
        # Name order would pick drill-000000; creation order picks ci.
        assert list_snapshots(layout.snapshots_dir)[-1] == "drill-000000"
        assert latest_snapshot(layout.snapshots_dir) == "ci-000000"

        capsys.readouterr()
        assert main(["restore", "--data-dir", str(tmp_path), "--snapshot", "latest"]) == 0
        assert capsys.readouterr().out.startswith("restore ci-000000:")
        assert json.loads((layout.state_dir / "offset.json").read_text()) == {"offset": 2}

    def test_no_bundles_means_no_latest(self, tmp_path):
        assert latest_snapshot(tmp_path / "snapshots") is None


class TestVerify:
    def test_clean_bundle_verifies(self, layout):
        manifest = create_snapshot(layout["root"], layout["sources"])
        assert verify_snapshot(layout["root"], manifest.snapshot_id) == []

    def test_rot_inside_the_bundle_is_reported(self, layout):
        manifest = create_snapshot(layout["root"], layout["sources"])
        bundle = layout["root"] / manifest.snapshot_id
        (bundle / "state" / "ckpt.npz").write_bytes(b"rotted checkpoint!!!!")
        problems = verify_snapshot(layout["root"], manifest.snapshot_id)
        assert problems and "state/ckpt.npz" in problems[0]


class TestRestore:
    def test_wipe_restore_is_bitwise_identical(self, layout):
        before = {
            name: file_contents(path) for name, path in layout["sources"].items()
        }
        manifest = create_snapshot(layout["root"], layout["sources"])
        state = layout["sources"]["state"]
        (state / "ckpt.npz").write_bytes(b"post-snapshot divergence")
        (state / "stray.tmp").write_bytes(b"not in the bundle")

        report = restore_snapshot(
            layout["root"], manifest.snapshot_id, layout["sources"], wipe=True
        )
        assert report.ok
        assert report.files_restored == 3
        assert report.files_removed >= 2  # diverged ckpt + stray
        for name, path in layout["sources"].items():
            assert file_contents(path) == before[name]
        assert not restore_marker_present(state)

    def test_overlay_restore_keeps_extra_files(self, layout):
        manifest = create_snapshot(layout["root"], layout["sources"])
        state = layout["sources"]["state"]
        (state / "extra.json").write_text("{}")
        report = restore_snapshot(
            layout["root"], manifest.snapshot_id, layout["sources"], wipe=False
        )
        assert report.ok
        assert (state / "extra.json").exists()

    def test_single_target_restore(self, layout):
        manifest = create_snapshot(layout["root"], layout["sources"])
        state = layout["sources"]["state"]
        original = file_contents(state)
        for path in state.iterdir():
            path.unlink()
        report = restore_snapshot(
            layout["root"], manifest.snapshot_id, {"state": state}, wipe=True
        )
        assert report.ok
        assert file_contents(state) == original

    def test_rotted_bundle_is_rejected_before_any_write(self, layout):
        manifest = create_snapshot(layout["root"], layout["sources"])
        bundle = layout["root"] / manifest.snapshot_id
        (bundle / "wal" / "segment_0.wal").write_bytes(b"bundle rot")
        state = layout["sources"]["state"]
        untouched = file_contents(state)
        report = restore_snapshot(
            layout["root"], manifest.snapshot_id, layout["sources"], wipe=True
        )
        assert not report.ok
        assert any("failed verification" in problem for problem in report.problems)
        assert report.files_restored == 0
        assert file_contents(state) == untouched  # verify-first: no wipe happened

    def test_unknown_target_name_is_rejected(self, layout, tmp_path):
        manifest = create_snapshot(layout["root"], layout["sources"])
        report = restore_snapshot(
            layout["root"], manifest.snapshot_id, {"bogus": tmp_path / "bogus"}
        )
        assert not report.ok

    def test_restore_is_idempotent(self, layout):
        manifest = create_snapshot(layout["root"], layout["sources"])
        first = restore_snapshot(
            layout["root"], manifest.snapshot_id, layout["sources"], wipe=True
        )
        second = restore_snapshot(
            layout["root"], manifest.snapshot_id, layout["sources"], wipe=True
        )
        assert first.ok and second.ok
        assert second.files_restored == first.files_restored
