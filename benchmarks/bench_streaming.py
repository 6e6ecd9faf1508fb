"""Streaming ingestion benchmark: WAL, crash recovery, retrain p99.

Three drills over the :mod:`repro.streaming` stack, all in-process:

1. **WAL + ingest throughput** — append a deterministic synthetic
   feedback stream under each fsync policy and measure records/s, then
   consume the stream through :class:`StreamIngestor` (fold-in + warm
   SGD batches) and measure end-to-end ingest records/s.
2. **Crash recovery** — replay the same stream twice: once cleanly, and
   once killed mid-batch by a :class:`KillSwitch` and resumed from the
   committed (checkpoint, interactions, offset) triple.  Records the
   resume latency and **fails unless the recovered factors are
   bitwise-identical** to the clean run's.
3. **Retrain under traffic** — boots the full serving stack (service →
   HTTP edge with the feedback route), drives Zipf load through real
   sockets from a background thread while the foreground ingests fresh
   records and pushes a candidate through the canary-gated reload.
   Records request p99 during the swap window; **failed must be zero**.

Results land in ``BENCH_streaming.json`` with a provenance block (git
sha, python/numpy/BLAS versions, cpu count, the command and its seed).

Usage::

    PYTHONPATH=src python benchmarks/bench_streaming.py
    PYTHONPATH=src python benchmarks/bench_streaming.py --smoke

``--smoke`` shrinks the dataset, stream, and request counts for CI.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path
from tempfile import TemporaryDirectory

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT), str(REPO_ROOT / "src")]

from perfbench.provenance import provenance  # noqa: E402
from repro import BPR, make_profile_dataset, train_test_split  # noqa: E402
from repro.drills import ingest  # noqa: E402
from repro.edge import (  # noqa: E402
    EdgeConfig,
    EdgeServer,
    EdgeServerThread,
    WorkloadConfig,
    generate_schedule,
    run_load_sync,
)
from repro.mf.sgd import SGDConfig  # noqa: E402
from repro.resilience.chaos import KillSwitch, SimulatedKill  # noqa: E402
from repro.serving import (  # noqa: E402
    ModelReloader,
    RecommendationService,
    ServiceConfig,
    ThreadedExecutor,
)
from repro.streaming import (  # noqa: E402
    AutoRetrainManager,
    IngestConfig,
    StreamIngestor,
    WalConfig,
    WriteAheadLog,
    append_all,
    publish_candidate,
    synthesize_records,
)
from repro.utils.atomicio import write_json_atomic  # noqa: E402
from repro.utils.clock import Timer  # noqa: E402


def fresh_model(split, args):
    """A fitted BPR instance; same seed => bitwise-identical factors."""
    model = BPR(sgd=SGDConfig(n_epochs=args.epochs), seed=args.seed)
    return model.fit(split.train, split.validation)


def stream(split, args, *, seed_offset: int = 0):
    return synthesize_records(
        args.records,
        n_users=split.train.n_users,
        n_items=split.train.n_items,
        seed=args.seed + seed_offset,
    )


def bench_wal_append(split, args) -> dict:
    """Append throughput per fsync policy (records/s to a durable log)."""
    results = {}
    records = stream(split, args)
    for policy in ("always", "batch"):
        with TemporaryDirectory() as tmp:
            with Timer() as timer:
                with WriteAheadLog(tmp, WalConfig(fsync=policy)) as wal:
                    fresh = append_all(wal, records)
            elapsed = timer.elapsed
        results[policy] = {
            "records": fresh,
            "seconds": round(elapsed, 4),
            "records_per_s": round(fresh / elapsed, 1) if elapsed > 0 else None,
        }
    return results


def bench_ingest(split, args) -> dict:
    """End-to-end consume throughput: WAL read + fold-in + warm SGD."""
    model = fresh_model(split, args)
    with TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with WriteAheadLog(tmp / "wal", WalConfig(fsync="batch")) as wal:
            append_all(wal, stream(split, args))
            ingestor = StreamIngestor(
                wal,
                model,
                tmp / "state",
                config=IngestConfig(batch_records=args.batch_records),
            )
            with Timer() as timer:
                reports = ingestor.run()
            elapsed = timer.elapsed
    return {
        "records": sum(r.records for r in reports),
        "batches": len(reports),
        "pairs": sum(r.pairs for r in reports),
        "new_users": sum(r.new_users for r in reports),
        "seconds": round(elapsed, 4),
        "records_per_s": (
            round(sum(r.records for r in reports) / elapsed, 1) if elapsed > 0 else None
        ),
    }


def bench_crash_recovery(split, args) -> dict:
    """Kill mid-batch, resume, and witness bitwise-identical factors."""
    records = stream(split, args)
    config = IngestConfig(batch_records=args.batch_records)
    kill_site = "ingest.after_interactions"
    kill_batch = max(2, (args.records // args.batch_records) // 2)

    # Clean reference run.
    with TemporaryDirectory() as tmp:
        reference_crc = ingest(
            fresh_model(split, args), Path(tmp) / "wal", Path(tmp) / "state", config,
            resume=False, records=records, wal_config=WalConfig(fsync="batch"),
        ).factors_checksum()

    # Crashed run: killed after the interactions write of batch
    # ``kill_batch`` — the offset (commit point) never lands, so resume
    # must replay that batch from the previous committed triple.
    with TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        model = fresh_model(split, args)
        with WriteAheadLog(tmp / "wal", WalConfig(fsync="batch")) as wal:
            append_all(wal, records)
            switch = KillSwitch().arm(kill_site, at_tick=kill_batch + 1)
            crashed = StreamIngestor(
                wal, model, tmp / "state", config=config, kill_switch=switch
            )
            try:
                crashed.run()
                raise AssertionError("kill switch never fired")
            except SimulatedKill:
                pass

        with WriteAheadLog(tmp / "wal", WalConfig(fsync="batch")) as wal:
            with Timer() as resume_timer:
                resumed = StreamIngestor.resume(wal, model, tmp / "state", config=config)
            resume_s = resume_timer.elapsed
            with Timer() as replay_timer:
                replayed = resumed.run()
            replay_s = replay_timer.elapsed
            recovered_crc = resumed.factors_checksum()

    return {
        "kill_site": kill_site,
        "killed_at_batch": kill_batch,
        "resume_s": round(resume_s, 4),
        "replay_s": round(replay_s, 4),
        "replayed_batches": len(replayed),
        "reference_crc": reference_crc,
        "recovered_crc": recovered_crc,
        "bitwise_identical": recovered_crc == reference_crc,
    }


def bench_retrain_under_traffic(split, args) -> dict:
    """p99 of live traffic while a canary-gated reload swaps the model."""
    serve_model = fresh_model(split, args)
    ingest_model = fresh_model(split, args)
    service = RecommendationService.build(
        serve_model,
        split.train,
        config=ServiceConfig(default_deadline_ms=args.deadline_ms),
        executor=ThreadedExecutor(max_workers=8),
    )
    with TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        try:
            with WriteAheadLog(tmp / "wal", WalConfig(fsync="batch")) as wal:
                ingestor = StreamIngestor(
                    wal,
                    ingest_model,
                    tmp / "state",
                    config=IngestConfig(batch_records=args.batch_records),
                )
                reloader = ModelReloader(
                    service.slot, tmp / "candidate.npz", split.train, split.validation
                )

                def trainer() -> None:
                    append_all(wal, stream(split, args, seed_offset=1))
                    ingestor.run()
                    publish_candidate(ingestor, reloader)

                manager = AutoRetrainManager(trainer, reloader)
                server = EdgeServer(
                    service, config=EdgeConfig(max_inflight=128, workers=8), wal=wal
                )
                schedule = generate_schedule(
                    WorkloadConfig(
                        n_users=split.train.n_users,
                        requests=args.requests,
                        rate_rps=args.rate,
                        k=args.k,
                        seed=args.seed,
                    )
                )
                box: dict = {}
                with EdgeServerThread(server) as (host, port):
                    loader = threading.Thread(
                        target=lambda: box.update(
                            report=run_load_sync(
                                host, port, schedule, concurrency=args.concurrency
                            )
                        )
                    )
                    loader.start()
                    outcome = manager.maybe_retrain()  # unconditional trigger
                    loader.join()
        finally:
            service.close()
    report = box["report"].to_json_dict()
    return {
        "requests": box["report"].total,
        "failed": box["report"].failed,
        "p50_ms": report["p50_ms"],
        "p99_ms": report["p99_ms"],
        "throughput_rps": report["throughput_rps"],
        "fallback_rate": report["fallback_rate"],
        "shed_rate": report["shed_rate"],
        "retrain": outcome.to_json_dict(),
        "served_version": service.slot.version,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.5, help="ML100K profile multiplier")
    parser.add_argument("--epochs", type=int, default=2, help="BPR warm-up epochs")
    parser.add_argument("--records", type=int, default=800, help="stream length")
    parser.add_argument("--batch-records", type=int, default=64, help="ingest batch size")
    parser.add_argument("--requests", type=int, default=400, help="loadgen requests")
    parser.add_argument("--rate", type=float, default=300.0, help="arrivals/s")
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--deadline-ms", type=float, default=100.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_streaming.json")
    parser.add_argument("--smoke", action="store_true", help="tiny dataset + short stream (CI)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.scale = min(args.scale, 0.2)
        args.records = min(args.records, 200)
        args.requests = min(args.requests, 120)
        args.epochs = 1

    dataset = make_profile_dataset("ML100K", scale=args.scale, seed=args.seed)
    split = train_test_split(dataset, seed=args.seed)
    print(
        f"dataset: {dataset.name} scale={args.scale} -> "
        f"{split.train.n_users} users x {split.train.n_items} items"
    )

    wal_append = bench_wal_append(split, args)
    for policy, row in wal_append.items():
        print(f"wal append fsync={policy:<7} {row['records_per_s']:>10} records/s")

    ingest = bench_ingest(split, args)
    print(
        f"ingest: {ingest['records']} records in {ingest['batches']} batches "
        f"-> {ingest['records_per_s']} records/s (+{ingest['new_users']} users)"
    )

    recovery = bench_crash_recovery(split, args)
    print(
        f"crash recovery: resume={recovery['resume_s']}s "
        f"replay={recovery['replay_s']}s ({recovery['replayed_batches']} batches) "
        f"bitwise_identical={recovery['bitwise_identical']}"
    )

    retrain = bench_retrain_under_traffic(split, args)
    print(
        f"retrain under traffic: p99={retrain['p99_ms']:.2f}ms "
        f"failed={retrain['failed']} retrain={retrain['retrain']['status']} "
        f"version={retrain['served_version']}"
    )

    payload = {
        "benchmark": "streaming",
        "dataset": {
            "profile": "ML100K",
            "scale": args.scale,
            "n_users": split.train.n_users,
            "n_items": split.train.n_items,
        },
        "config": {
            "epochs": args.epochs,
            "records": args.records,
            "batch_records": args.batch_records,
            "requests": args.requests,
            "rate_rps": args.rate,
            "concurrency": args.concurrency,
            "deadline_ms": args.deadline_ms,
            "seed": args.seed,
        },
        "wal_append": wal_append,
        "ingest": ingest,
        "crash_recovery": recovery,
        "retrain_under_traffic": retrain,
        "smoke": bool(args.smoke),
        "provenance": provenance(
            REPO_ROOT, [str(Path(__file__).relative_to(REPO_ROOT)), *sys.argv[1:]],
            {"seed": args.seed},
        ),
    }
    write_json_atomic(args.out, payload)
    print(f"wrote {args.out}")
    print(
        json.dumps(
            {
                "bitwise_identical": recovery["bitwise_identical"],
                "failed": retrain["failed"],
                "retrain": retrain["retrain"]["status"],
            }
        )
    )
    if not recovery["bitwise_identical"]:
        print("FAIL: recovered factors differ from the clean run")
        return 1
    if retrain["failed"]:
        print(f"FAIL: {retrain['failed']} failed requests during retrain")
        return 1
    if retrain["retrain"]["status"] not in ("promoted", "rejected"):
        print(f"FAIL: retrain did not reach the canary gate: {retrain['retrain']}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
