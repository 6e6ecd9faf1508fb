"""Recovery-time benchmark: restart latency, scrub repair, restore.

Three drills over the :mod:`repro.runtime` self-healing layer:

1. **Component restart latency** — boot the full supervised stack
   (HTTP edge, ingest, retrain, reload, scrub), fire a
   :class:`SimulatedKill` at each component in turn, and measure the
   wall-clock gap from the kill to the replacement incarnation
   reporting RUNNING.  The supervisor's backoff base is part of the
   budget, so the numbers are honest about policy, not just spawn cost.
2. **Scrub repair time** — build a state directory of checkpoint blobs
   and rotated WAL segments, baseline the mirror, flip bits in a batch
   of files, and time the scrub pass that repairs every one of them.
3. **Snapshot / restore** — time ``create_snapshot`` over the same
   directories, wipe them, time ``restore_snapshot``, and require the
   replayed factors to be bitwise-identical to the pre-disaster run.

Results land in ``BENCH_recovery.json`` with a provenance block (git
sha, python/numpy/BLAS versions, cpu count, the command and its seed).

Usage::

    PYTHONPATH=src python benchmarks/bench_recovery.py
    PYTHONPATH=src python benchmarks/bench_recovery.py --smoke

``--smoke`` shrinks the stream and the corrupted-file batch for CI.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path
from tempfile import TemporaryDirectory

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT), str(REPO_ROOT / "src")]

import numpy as np  # noqa: E402

from perfbench.provenance import provenance  # noqa: E402
from repro.data.interactions import InteractionMatrix  # noqa: E402
from repro.mf.sgd import SGDConfig  # noqa: E402
from repro.models import BPR  # noqa: E402
from repro.resilience.chaos import KillSwitch, flip_bits  # noqa: E402
from repro.drills import ingest  # noqa: E402
from repro.runtime import (  # noqa: E402
    COMPONENTS,
    DataDir,
    RuntimeStack,
    Scrubber,
    SupervisorConfig,
    create_snapshot,
    restore_snapshot,
)
from repro.runtime.supervisor import RUNNING  # noqa: E402
from repro.serving import (  # noqa: E402
    RecommendationService,
    ServiceConfig,
    ThreadedExecutor,
)
from repro.streaming import (  # noqa: E402
    IngestConfig,
    WalConfig,
    append_all,
    synthesize_records,
)
from repro.utils.atomicio import write_json_atomic  # noqa: E402
from repro.utils.clock import Timer  # noqa: E402


def make_matrix(args):
    rng = np.random.default_rng(args.seed)
    pairs = sorted(
        {
            (int(u), int(i))
            for u, i in zip(
                rng.integers(0, args.users, args.users * 4),
                rng.integers(0, args.items, args.users * 4),
            )
        }
    )
    return InteractionMatrix.from_pairs(pairs, n_users=args.users, n_items=args.items)


def fresh_model(matrix, args):
    return BPR(n_factors=4, sgd=SGDConfig(n_epochs=1), seed=args.seed).fit(matrix)


def require(stack, predicate, what):
    if not stack.wait_until(predicate, 30.0, what):
        raise RuntimeError(f"timed out waiting for {what}; status={stack.status()}")


def bench_restart_latency(args) -> dict:
    """Kill every supervised component once; time kill -> RUNNING."""
    matrix = make_matrix(args)
    service = RecommendationService.build(
        fresh_model(matrix, args),
        matrix,
        config=ServiceConfig(default_deadline_ms=250.0),
        executor=ThreadedExecutor(max_workers=2),
    )
    faults = KillSwitch()
    results: dict[str, dict] = {}
    with TemporaryDirectory() as tmp:
        stack = RuntimeStack(
            service,
            fresh_model(matrix, args),
            matrix,
            None,
            Path(tmp) / "data",
            ingest_config=IngestConfig(batch_records=args.batch_records),
            supervisor_config=SupervisorConfig(
                backoff_base_s=args.backoff_base_s,
                backoff_max_s=4 * args.backoff_base_s,
            ),
            faults=faults,
        )
        with stack:
            stack.start()
            records = synthesize_records(
                args.records, n_users=args.users, n_items=args.items, seed=args.seed
            )
            append_all(stack.wal, records)
            require(stack, lambda: stack.batches_total() > 0, "first batch")
            for name in COMPONENTS:
                component = stack.supervisor.component(name)
                baseline = component.restarts
                faults.kill(name)
                with Timer() as timer:
                    require(
                        stack,
                        lambda c=component, b=baseline: (
                            c.restarts > b and c.state == RUNNING
                        ),
                        f"{name} restart",
                    )
                results[name] = {
                    "restart_s": round(timer.elapsed, 4),
                    "restarts": component.restarts,
                }
    worst = max(results.values(), key=lambda row: row["restart_s"])
    return {
        "backoff_base_s": args.backoff_base_s,
        "per_component": results,
        "worst_restart_s": worst["restart_s"],
    }


def build_state_dirs(root: Path, args) -> tuple[DataDir, int]:
    """WAL segments plus checkpoint blobs under ``root``, as ingest leaves them."""
    layout = DataDir(root)
    records = synthesize_records(
        args.records, n_users=args.users, n_items=args.items, seed=args.seed
    )
    ingestor = ingest(
        fresh_model(make_matrix(args), args), layout.wal_dir, layout.state_dir,
        IngestConfig(batch_records=args.batch_records), resume=False, records=records,
        wal_config=WalConfig(segment_bytes=args.segment_bytes),
    )
    return layout, ingestor.factors_checksum()


def bench_scrub_repair(args) -> dict:
    """Corrupt a batch of replicated files; time the repairing pass."""
    with TemporaryDirectory() as tmp:
        layout, _ = build_state_dirs(Path(tmp), args)
        scrubber = Scrubber(layout.replica_pairs())
        with Timer() as baseline_timer:
            baseline = scrubber.scrub_once()
        victims = sorted(layout.state_dir.glob("*.npz")) + sorted(layout.wal_dir.glob("*.wal"))
        victims = victims[: args.corrupt_files]
        for victim in victims:
            flip_bits(victim, [victim.stat().st_size // 2])
        with Timer() as repair_timer:
            report = scrubber.scrub_once()
        if report.repairs < len(victims):
            raise RuntimeError(
                f"scrub repaired {report.repairs}/{len(victims)}: "
                f"{report.to_json_dict()}"
            )
        return {
            "files_checked": report.files_checked,
            "files_corrupted": len(victims),
            "repairs": report.repairs,
            "baseline_pass_s": round(baseline_timer.elapsed, 4),
            "repair_pass_s": round(repair_timer.elapsed, 4),
            "baseline_mirrored": baseline.mirrored,
        }


def bench_snapshot_restore(args) -> dict:
    """Snapshot -> wipe -> restore -> replay; require identical factors."""
    with TemporaryDirectory() as tmp:
        layout, reference_crc = build_state_dirs(Path(tmp), args)
        sources = layout.snapshot_sources()
        total_bytes = sum(
            path.stat().st_size
            for directory in sources.values()
            for path in directory.rglob("*")
            if path.is_file()
        )
        with Timer() as create_timer:
            manifest = create_snapshot(layout.snapshots_dir, sources, tag="bench")
        shutil.rmtree(layout.wal_dir)
        shutil.rmtree(layout.state_dir)
        with Timer() as restore_timer:
            report = restore_snapshot(
                layout.snapshots_dir, manifest.snapshot_id, sources, wipe=True
            )
        if not report.ok:
            raise RuntimeError(f"restore failed: {report.problems}")
        matrix = make_matrix(args)
        with Timer() as replay_timer:
            recovered_crc = ingest(
                fresh_model(matrix, args), layout.wal_dir, layout.state_dir,
                IngestConfig(batch_records=args.batch_records), resume=True,
            ).factors_checksum()
        return {
            "files": len(manifest.files),
            "bytes": total_bytes,
            "snapshot_s": round(create_timer.elapsed, 4),
            "restore_s": round(restore_timer.elapsed, 4),
            "replay_s": round(replay_timer.elapsed, 4),
            "reference_crc": reference_crc,
            "recovered_crc": recovered_crc,
            "bitwise_identical": recovered_crc == reference_crc,
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=60)
    parser.add_argument("--items", type=int, default=80)
    parser.add_argument("--records", type=int, default=400, help="stream length")
    parser.add_argument("--batch-records", type=int, default=32)
    parser.add_argument("--segment-bytes", type=int, default=4096)
    parser.add_argument("--corrupt-files", type=int, default=4)
    parser.add_argument("--backoff-base-s", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_recovery.json")
    parser.add_argument("--smoke", action="store_true", help="short stream (CI)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.records = min(args.records, 120)
        args.corrupt_files = min(args.corrupt_files, 2)

    restart = bench_restart_latency(args)
    print(f"restart latency: worst {restart['worst_restart_s']}s across {len(restart['per_component'])} components")
    scrub = bench_scrub_repair(args)
    print(
        f"scrub: repaired {scrub['repairs']}/{scrub['files_corrupted']} "
        f"in {scrub['repair_pass_s']}s"
    )
    disaster = bench_snapshot_restore(args)
    print(
        f"snapshot {disaster['snapshot_s']}s, restore {disaster['restore_s']}s, "
        f"identical={disaster['bitwise_identical']}"
    )
    if not disaster["bitwise_identical"]:
        print("FAIL: restored factors are not bitwise-identical", file=sys.stderr)
        return 1

    payload = {
        "benchmark": "recovery",
        "config": {
            "users": args.users,
            "items": args.items,
            "records": args.records,
            "batch_records": args.batch_records,
            "segment_bytes": args.segment_bytes,
            "corrupt_files": args.corrupt_files,
            "backoff_base_s": args.backoff_base_s,
            "seed": args.seed,
        },
        "restart_latency": restart,
        "scrub_repair": scrub,
        "snapshot_restore": disaster,
        "smoke": bool(args.smoke),
        "provenance": provenance(
            REPO_ROOT, [str(Path(__file__).relative_to(REPO_ROOT)), *sys.argv[1:]],
            {"seed": args.seed},
        ),
    }
    write_json_atomic(args.out, payload)
    print(f"[saved to {args.out}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
