"""Scrubber disciplines: WAL prefix splicing and immutable-blob repair.

Everything here drives :class:`Scrubber` offline against hand-built
primary/mirror directories — no supervisor, no threads.  WAL segments
are assembled from real frames (``encode_frame``) so CRC validation is
exercised end to end.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.runtime import ReplicaPair, Scrubber
from repro.runtime import scrub as scrub_module
from repro.streaming.wal import encode_frame
from repro.utils.atomicio import write_bytes_atomic, write_npz_atomic


def frames(*payloads: bytes) -> bytes:
    return b"".join(encode_frame(payload) for payload in payloads)


@pytest.fixture
def pair(tmp_path):
    primary = tmp_path / "primary"
    primary.mkdir()
    return ReplicaPair.of("state", primary, tmp_path / "mirror")


def make_scrubber(pair, *, active=None, obs=None):
    active_paths = (lambda: set(active)) if active is not None else None
    return Scrubber([pair], obs=obs, active_paths=active_paths)


class TestWalDiscipline:
    def test_first_pass_mirrors_the_valid_prefix(self, pair):
        data = frames(b"a", b"bb", b"ccc")
        (pair.primary / "segment_0.wal").write_bytes(data)
        report = make_scrubber(pair).scrub_once()
        assert report.mirrored == 1
        assert report.clean
        assert (pair.mirror / "segment_0.wal").read_bytes() == data

    def test_rotted_primary_is_spliced_from_the_mirror(self, pair):
        data = frames(b"a", b"bb", b"ccc")
        wal = pair.primary / "segment_0.wal"
        wal.write_bytes(data)
        scrubber = make_scrubber(pair)
        scrubber.scrub_once()

        with open(wal, "r+b") as handle:  # bit rot inside the first frame
            handle.seek(len(data) // 4)
            handle.write(b"\xff")
        report = scrubber.scrub_once()
        assert report.repaired_primary == 1
        assert wal.read_bytes() == data
        assert report.findings[0].problem == "primary frame corruption"

    def test_active_segment_corruption_is_deferred(self, pair):
        data = frames(b"a", b"bb")
        wal = pair.primary / "segment_0.wal"
        wal.write_bytes(data)
        scrubber = make_scrubber(pair, active={wal})
        scrubber.scrub_once()

        with open(wal, "r+b") as handle:
            handle.seek(2)
            handle.write(b"\xff")
        report = scrubber.scrub_once()
        assert report.deferred_active == 1
        assert report.repaired_primary == 0
        assert not report.clean
        # An offline pass (segment no longer active) repairs it.
        offline = make_scrubber(pair).scrub_once()
        assert offline.repaired_primary == 1
        assert wal.read_bytes() == data

    def test_rotted_mirror_is_truncated_then_rebuilt(self, pair):
        data = frames(b"a", b"bb", b"ccc")
        (pair.primary / "segment_0.wal").write_bytes(data)
        scrubber = make_scrubber(pair)
        scrubber.scrub_once()

        mirror = pair.mirror / "segment_0.wal"
        with open(mirror, "r+b") as handle:
            handle.seek(len(data) - 1)
            handle.write(b"\xff")
        report = scrubber.scrub_once()
        assert report.repaired_mirror == 1
        assert mirror.read_bytes() == data

    def test_torn_tail_is_counted_but_never_mirrored(self, pair):
        data = frames(b"a", b"bb")
        wal = pair.primary / "segment_0.wal"
        wal.write_bytes(data + b"\x01\x02\x03")  # torn half-frame
        report = make_scrubber(pair).scrub_once()
        assert report.torn_tails == 1
        assert (pair.mirror / "segment_0.wal").read_bytes() == data

    def test_appended_records_extend_the_mirror(self, pair):
        wal = pair.primary / "segment_0.wal"
        wal.write_bytes(frames(b"a"))
        scrubber = make_scrubber(pair)
        scrubber.scrub_once()
        grown = frames(b"a", b"bb", b"ccc")
        wal.write_bytes(grown)
        report = scrubber.scrub_once()
        assert report.mirrored == 1
        assert (pair.mirror / "segment_0.wal").read_bytes() == grown


class TestBlobDiscipline:
    def test_in_place_mutation_is_repaired_from_the_mirror(self, pair):
        blob = pair.primary / "offset.json"
        blob.write_text(json.dumps({"segment": 0, "offset": 64}))
        original = blob.read_bytes()
        scrubber = make_scrubber(pair)
        scrubber.scrub_once()

        with open(blob, "r+b") as handle:  # same inode, hash changes
            handle.seek(0)
            handle.write(b'{"segment": 9')
        report = scrubber.scrub_once()
        assert report.repaired_primary == 1
        assert blob.read_bytes() == original
        finding = report.findings[0]
        assert finding.problem == "in-place mutation (same inode, hash changed)"

    def test_atomic_replacement_is_adopted_as_a_new_version(self, pair):
        blob = pair.primary / "offset.json"
        blob.write_text(json.dumps({"offset": 1}))
        scrubber = make_scrubber(pair)
        scrubber.scrub_once()

        new_content = json.dumps({"offset": 2}).encode()
        write_bytes_atomic(blob, new_content)  # rename => new inode
        report = scrubber.scrub_once()
        assert report.updated == 1
        assert report.repaired_primary == 0
        assert (pair.mirror / "offset.json").read_bytes() == new_content

    def test_structurally_invalid_replacement_is_corruption(self, pair):
        blob = pair.primary / "ckpt.npz"
        blob.write_bytes(b"PK\x03\x04 not actually a zip")
        # Invalid on first sight: nothing to repair from yet.
        first = make_scrubber(pair).scrub_once()
        assert first.unrepaired == ["state/ckpt.npz"]

        # Valid baseline, then a new-inode replacement that fails
        # structural validation: repaired back from the mirror.
        import numpy as np

        np.savez(blob, factors=np.arange(6, dtype=np.float64))  # repro: allow(REP003) — corruption fixture
        good = blob.read_bytes()
        scrubber = make_scrubber(pair)
        scrubber.scrub_once()
        write_bytes_atomic(blob, b"garbage replacing the checkpoint")
        report = scrubber.scrub_once()
        assert report.repaired_primary == 1
        assert blob.read_bytes() == good
        assert report.findings[0].problem == "replacement fails structural validation"

    def test_rotted_mirror_is_rewritten_from_healthy_primary(self, pair):
        blob = pair.primary / "offset.json"
        blob.write_text(json.dumps({"offset": 3}))
        scrubber = make_scrubber(pair)
        scrubber.scrub_once()
        (pair.mirror / "offset.json").write_bytes(b"rot")
        report = scrubber.scrub_once()
        assert report.repaired_mirror == 1
        assert (pair.mirror / "offset.json").read_bytes() == blob.read_bytes()

    def test_double_fault_is_reported_unrepaired(self, pair):
        blob = pair.primary / "offset.json"
        blob.write_text(json.dumps({"offset": 4}))
        scrubber = make_scrubber(pair)
        scrubber.scrub_once()
        # Both replicas rot before the next pass: honesty over heroics.
        with open(blob, "r+b") as handle:
            handle.write(b"x")
        (pair.mirror / "offset.json").write_bytes(b"also rotted")
        report = scrubber.scrub_once()
        assert report.unrepaired == ["state/offset.json"]
        assert not report.clean

    def test_deletions_propagate_instead_of_resurrecting(self, pair):
        blob = pair.primary / "old_ckpt.json"
        blob.write_text("{}")
        scrubber = make_scrubber(pair)
        scrubber.scrub_once()
        os.unlink(blob)
        report = scrubber.scrub_once()
        assert report.deleted == 1
        assert not (pair.mirror / "old_ckpt.json").exists()
        # And it stays deleted on subsequent passes (manifest forgot it).
        assert scrubber.scrub_once().deleted == 0


class TestPrunedPrimary:
    @pytest.mark.parametrize("name", ["interactions_00007.npz", "segment_0.wal"])
    def test_primary_pruned_after_the_scan_is_a_deletion(self, pair, monkeypatch, name):
        primary = pair.primary / name
        if name.endswith(".npz"):
            write_npz_atomic(primary, {"counts": np.arange(4)})
        else:
            primary.write_bytes(frames(b"a", b"bb"))
        scrubber = make_scrubber(pair)
        scrubber.scrub_once()
        assert (pair.mirror / name).is_file()

        scan = scrub_module._scan

        def scan_then_prune(directory):
            listed = scan(directory)
            if directory == pair.primary:
                primary.unlink()  # the owner prunes the file the scan just listed
            return listed

        monkeypatch.setattr(scrub_module, "_scan", scan_then_prune)
        report = scrubber.scrub_once()
        assert report.deleted == 1
        assert report.files_checked == 0
        assert report.clean
        assert not (pair.mirror / name).exists()
        manifest = json.loads((pair.mirror / scrub_module.MANIFEST_NAME).read_text())
        assert name not in manifest["files"]


class TestReporting:
    def test_counters_reach_the_registry(self, pair):
        obs = MetricsRegistry()
        blob = pair.primary / "offset.json"
        blob.write_text("{}")
        scrubber = make_scrubber(pair, obs=obs)
        scrubber.scrub_once()
        with open(blob, "r+b") as handle:
            handle.write(b"x")
        scrubber.scrub_once()
        assert obs.counter("scrub_runs_total").value == 2
        assert obs.counter("scrub_repaired_primary_total").value == 1

    def test_merge_and_json_round_trip(self, pair):
        (pair.primary / "a.json").write_text("{}")
        (pair.primary / "seg.wal").write_bytes(frames(b"x"))
        report = make_scrubber(pair).scrub_once()
        payload = report.to_json_dict()
        assert payload["files_checked"] == 2
        assert payload["mirrored"] == 2
        assert payload["unrepaired"] == []
        assert report.repairs == 0 and report.clean

        merged = make_scrubber(pair).scrub_once()
        merged.merge(report)
        assert merged.files_checked == 4
