"""Serving-layer latency under concurrent request streams.

Boots the resilient :class:`~repro.serving.RecommendationService`
(personalized -> fold-in -> ItemKNN -> popularity) around a trained BPR
model and drives it with 1, 8, and 32 concurrent request streams, each
stream a round-robin mix of warm, cold, and unseen users.  Per
concurrency level the report records request-latency p50/p99/max, the
fallback rate (fraction of responses not served by the personalized
tier), throughput, and the count of deadline overruns.

Every response is checked on the way through: non-empty, in-catalog,
with provenance — a response failure fails the benchmark, not just a
threshold.  Results land in ``BENCH_serving.json`` so the serving
latency trajectory is tracked in-repo, with a provenance block (git
sha, python/numpy/BLAS versions, cpu count, the command and its seed).

Usage::

    PYTHONPATH=src python benchmarks/bench_serving_latency.py
    PYTHONPATH=src python benchmarks/bench_serving_latency.py --smoke

``--smoke`` shrinks the dataset and request counts for CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT), str(REPO_ROOT / "src")]

import numpy as np  # noqa: E402

from perfbench.provenance import provenance  # noqa: E402
from repro import BPR, make_profile_dataset, train_test_split  # noqa: E402
from repro.mf.sgd import SGDConfig  # noqa: E402
from repro.serving import (  # noqa: E402
    RecommendationRequest,
    RecommendationService,
    ServiceConfig,
    ThreadedExecutor,
)
from repro.utils.clock import Timer  # noqa: E402

CONCURRENCY_LEVELS = (1, 8, 32)


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def build_requests(train, n_requests: int, k: int, seed: int):
    """A warm/cold/unseen request mix, deterministic per seed."""
    rng = np.random.default_rng(seed)
    warm = np.flatnonzero(train.user_counts() > 0)
    requests = []
    for t in range(n_requests):
        roll = rng.random()
        if roll < 0.8:  # warm user -> personalized tier
            user = int(rng.choice(warm))
            requests.append(RecommendationRequest(user=user, k=k))
        elif roll < 0.9:  # unseen user with session history -> fold-in
            history = tuple(int(i) for i in rng.choice(train.n_items, size=5, replace=False))
            requests.append(
                RecommendationRequest(user=train.n_users + t, k=k, history=history)
            )
        else:  # unseen user, no history -> popularity
            requests.append(RecommendationRequest(user=train.n_users + t, k=k))
    return requests


def run_level(service, requests, n_streams: int):
    """Drive ``n_streams`` concurrent streams.

    Returns latencies, wall time, failures, and the per-tier
    ``served_by`` counts of exactly this level's responses.  Accounting
    from the responses themselves (rather than service-lifetime
    counters) is what makes the per-level fallback rate honest: it
    reflects what *these* requests experienced under *this* much
    contention, not an average over whatever ran before.
    """
    chunks = [requests[stream::n_streams] for stream in range(n_streams)]
    failures: list[str] = []

    def stream(chunk):
        latencies = []
        served_by: dict[str, int] = {}
        for request in chunk:
            with Timer() as timer:
                response = service.recommend(request)
            latencies.append(timer.elapsed * 1000.0)
            served_by[response.served_by] = served_by.get(response.served_by, 0) + 1
            if len(response.items) == 0:
                failures.append(f"empty response for user {request.user}")
            if not response.served_by:
                failures.append(f"missing provenance for user {request.user}")
        return latencies, served_by

    with Timer() as wall_timer:
        if n_streams == 1:
            per_stream = [stream(chunks[0])]
        else:
            with ThreadPoolExecutor(max_workers=n_streams) as pool:
                per_stream = list(pool.map(stream, chunks))
    wall = wall_timer.elapsed
    latencies = [latency for stream_latencies, _ in per_stream for latency in stream_latencies]
    served_by: dict[str, int] = {}
    for _, stream_counts in per_stream:
        for tier, count in stream_counts.items():
            served_by[tier] = served_by.get(tier, 0) + count
    return latencies, wall, failures, served_by


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0, help="ML100K profile multiplier")
    parser.add_argument("--epochs", type=int, default=3, help="BPR warm-up epochs")
    parser.add_argument("--requests", type=int, default=600, help="requests per concurrency level")
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--deadline-ms", type=float, default=100.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_serving.json")
    parser.add_argument("--smoke", action="store_true", help="tiny dataset + few requests (CI)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.scale = min(args.scale, 0.25)
        args.requests = min(args.requests, 96)
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
    for level_index, n_streams in enumerate(CONCURRENCY_LEVELS):
        service = RecommendationService.build(
            model,
            split.train,
            config=ServiceConfig(default_deadline_ms=args.deadline_ms),
            executor=ThreadedExecutor(max_workers=max(8, n_streams)),
        )
        # Distinct seed per level: reusing one seed replayed the exact
        # same warm/cold/unseen draw at every concurrency, which (with
        # service-lifetime counters) froze the reported fallback rate
        # into one constant across the whole ladder.
        requests = build_requests(
            split.train, args.requests, args.k, args.seed + level_index
        )
        try:
            latencies, wall, failures, served_by = run_level(
                service, requests, n_streams
            )
            if failures:
                print(f"FAIL: {len(failures)} bad responses at {n_streams} streams: "
                      f"{failures[:3]}")
                return 1
            primary = service.tiers[0].name
            level = {
                "streams": n_streams,
                "requests": len(latencies),
                "latency_ms_p50": percentile(latencies, 50),
                "latency_ms_p99": percentile(latencies, 99),
                "latency_ms_max": max(latencies),
                "throughput_rps": len(latencies) / wall,
                "fallback_rate": 1.0 - served_by.get(primary, 0) / len(latencies),
                "served_by": dict(sorted(served_by.items())),
                "executor_overruns": service.executor.overruns_,
            }
        finally:
            service.close()
        levels[str(n_streams)] = level
        print(
            f"streams={n_streams:<3} p50={level['latency_ms_p50']:.2f}ms "
            f"p99={level['latency_ms_p99']:.2f}ms "
            f"throughput={level['throughput_rps']:.0f} req/s "
            f"fallback={level['fallback_rate']:.1%} "
            f"overruns={level['executor_overruns']}"
        )

    report = {
        "dataset": dataset.name,
        "scale": args.scale,
        "n_users": split.train.n_users,
        "n_items": split.train.n_items,
        "k": args.k,
        "deadline_ms": args.deadline_ms,
        "requests_per_level": args.requests,
        "levels": levels,
        "smoke": bool(args.smoke),
        "provenance": provenance(
            REPO_ROOT, [str(Path(__file__).relative_to(REPO_ROOT)), *sys.argv[1:]],
            {"seed": args.seed},
        ),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
