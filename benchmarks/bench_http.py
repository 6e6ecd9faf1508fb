"""HTTP edge latency/robustness under stepped concurrency with chaos.

Boots the full stack in-process — BPR model → fallback-cascade
:class:`~repro.serving.RecommendationService` → asyncio
:class:`~repro.edge.EdgeServer` — and drives Zipf traffic through real
sockets at stepped concurrency levels (4, 16, 48 virtual keep-alive
clients).  Mid-run, a chaos schedule kills the personalized tier and
later clears it, so every level exercises the degradation path while
requests are in flight.

A level lasts a fraction of a second, so each level's breakers cool
down for a tenth of its scheduled arrival span instead of the default
10 s: the personalized tier can recover once the fault clears, and the
fallback rate measures the fault window rather than the cooldown.

Per level the report records request p50/p90/p99, throughput, the
fallback rate (responses served below the personalized tier), the shed
rate (deliberate 429/503), the failed count, the breaker cooldown and
every breaker transition in order.  **Failed must be zero at every
level** — shedding is allowed, broken responses are not; a nonzero
failed count fails the benchmark.  Results land in ``BENCH_http.json``
with a provenance block (git sha, python/numpy/BLAS versions, cpu
count, the command and its seed).

Usage::

    PYTHONPATH=src python benchmarks/bench_http.py
    PYTHONPATH=src python benchmarks/bench_http.py --smoke

``--smoke`` shrinks the dataset and request counts for CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT), str(REPO_ROOT / "src")]

from perfbench.provenance import provenance  # noqa: E402
from repro import BPR, make_profile_dataset, train_test_split  # noqa: E402
from repro.edge import (  # noqa: E402
    ChaosEvent,
    CoalesceConfig,
    EdgeConfig,
    EdgeServer,
    EdgeServerThread,
    WorkloadConfig,
    generate_schedule,
    run_load_sync,
)
from repro.mf.sgd import SGDConfig  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402
from repro.resilience.chaos import ServiceFaultInjector  # noqa: E402
from repro.serving import (  # noqa: E402
    BreakerConfig,
    RecommendationService,
    ServiceConfig,
    ThreadedExecutor,
)
from repro.utils.atomicio import write_json_atomic  # noqa: E402

CONCURRENCY_LEVELS = (4, 16, 48)
#: Breaker cooldown as a share of a level's scheduled arrival span.
COOLDOWN_SHARE = 0.1


def chaos_schedule(schedule) -> list[ChaosEvent]:
    """Kill the personalized tier for the middle third of the arrivals.

    Event times come from the generated schedule itself (the arrival
    timestamps of the 1/3 and 2/3 requests), so the fault window always
    lands mid-stream regardless of the arrival rate.
    """
    third = schedule[len(schedule) // 3].at_s
    two_thirds = schedule[(2 * len(schedule)) // 3].at_s
    return [
        ChaosEvent(at_s=third, action="exception", tier="personalized"),
        ChaosEvent(at_s=two_thirds, action="clear"),
    ]


def run_level(model, split, concurrency: int, args) -> dict:
    workload = WorkloadConfig(
        n_users=split.train.n_users,
        requests=args.requests,
        rate_rps=args.rate,
        mode=args.mode,
        zipf_s=args.zipf_s,
        k=args.k,
        seed=args.seed + concurrency,  # distinct but reproducible per level
    )
    schedule = generate_schedule(workload)
    cooldown_s = COOLDOWN_SHARE * schedule[-1].at_s
    chaos = ServiceFaultInjector()
    obs = MetricsRegistry()
    service = RecommendationService.build(
        model,
        split.train,
        config=ServiceConfig(
            default_deadline_ms=args.deadline_ms,
            breaker=BreakerConfig(cooldown_seconds=cooldown_s),
        ),
        executor=ThreadedExecutor(max_workers=max(8, concurrency // 2)),
        chaos=chaos,
        obs=obs,
    )
    server = EdgeServer(
        service,
        config=EdgeConfig(
            max_inflight=max(64, concurrency * 2),
            workers=max(8, concurrency // 2),
            coalesce=CoalesceConfig(max_batch=16),
        ),
    )
    try:
        with EdgeServerThread(server) as (host, port):
            start = obs.clock.monotonic()
            report = run_load_sync(
                host,
                port,
                schedule,
                concurrency=concurrency,
                mode=args.mode,
                chaos=chaos,
                chaos_events=chaos_schedule(schedule),
                use_get_every=10,
            )
    finally:
        service.close()
    summary = report.to_json_dict()
    summary["coalesced_batches"] = server._batcher.batches_dispatched_
    summary["breaker_cooldown_s"] = round(cooldown_s, 4)
    summary["breaker_transitions"] = [
        {"at_s": round(event["ts"] - start, 4), "breaker": event["tier"], "to": event["to"]}
        for event in obs.events()
        if event["event"] == "breaker_transition"
    ]
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0, help="ML100K profile multiplier")
    parser.add_argument("--epochs", type=int, default=3, help="BPR warm-up epochs")
    parser.add_argument("--requests", type=int, default=600, help="requests per level")
    parser.add_argument("--rate", type=float, default=400.0, help="base arrivals/s")
    parser.add_argument("--mode", default="burst", choices=("zipf", "diurnal", "burst"))
    parser.add_argument("--zipf-s", type=float, default=1.1)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--deadline-ms", type=float, default=100.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_http.json")
    parser.add_argument("--smoke", action="store_true", help="tiny dataset + few requests (CI)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.scale = min(args.scale, 0.25)
        args.requests = min(args.requests, 120)
        args.epochs = 1

    dataset = make_profile_dataset("ML100K", scale=args.scale, seed=args.seed)
    split = train_test_split(dataset, seed=args.seed)
    print(
        f"dataset: {dataset.name} scale={args.scale} -> "
        f"{split.train.n_users} users x {split.train.n_items} items"
    )
    model = BPR(sgd=SGDConfig(n_epochs=args.epochs), seed=args.seed)
    model.fit(split.train, split.validation)

    levels = {}
    for concurrency in CONCURRENCY_LEVELS:
        level = run_level(model, split, concurrency, args)
        levels[str(concurrency)] = level
        print(
            f"concurrency={concurrency:<3} p50={level['p50_ms']:.2f}ms "
            f"p99={level['p99_ms']:.2f}ms "
            f"throughput={level['throughput_rps']:.0f} req/s "
            f"fallback={level['fallback_rate']:.1%} "
            f"shed={level['shed_rate']:.1%} failed={level['failed']} "
            f"batches={level['coalesced_batches']} "
            f"breaker_transitions={len(level['breaker_transitions'])}"
        )
        if level["failed"]:
            print(f"FAIL: {level['failed']} failed requests at concurrency {concurrency}")
            return 1

    payload = {
        "benchmark": "http_edge",
        "dataset": {
            "profile": "ML100K",
            "scale": args.scale,
            "n_users": split.train.n_users,
            "n_items": split.train.n_items,
        },
        "config": {
            "requests_per_level": args.requests,
            "rate_rps": args.rate,
            "mode": args.mode,
            "zipf_s": args.zipf_s,
            "deadline_ms": args.deadline_ms,
            "chaos": "personalized tier down for the middle third of each level",
            "breaker_cooldown": f"{COOLDOWN_SHARE:g} of each level's scheduled arrival span",
            "seed": args.seed,
        },
        "levels": levels,
        "smoke": bool(args.smoke),
        "provenance": provenance(
            REPO_ROOT, [str(Path(__file__).relative_to(REPO_ROOT)), *sys.argv[1:]],
            {"seed": args.seed},
        ),
    }
    write_json_atomic(args.out, payload)
    print(f"wrote {args.out}")
    print(json.dumps({"levels": {k: v["failed"] for k, v in levels.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
