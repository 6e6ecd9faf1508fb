"""The million-user scale ladder: the dense ranking path over a sharded mmap store.

Climbs the user axis (10^4 -> 10^5 -> 10^6 users) and, at each rung,
builds a float32 sharded factor store *streamed shard by shard* (the
full user matrix is never materialized), then measures:

* request latency p50/p99 of the dense full-catalog ranking —
  ``linear_scores`` then ``topk_from_matrix`` — reading user rows
  through the mmap store, after ``WARMUP_REQUESTS`` untimed requests per rung
  so no timed request pays the cold start (BLAS threads, first shard
  page-in);
* memory honesty — resident set size against the bytes a dense load of
  the user matrix would have cost, plus the bytes actually mapped;
* the ``metrics_identical`` gate — a float64 store reads back bitwise
  equal to the in-memory factors it was written from, and scores
  bitwise equal to the in-memory kernel.

Factors are mixture-of-Gaussians, as in earlier ``BENCH_scale.json``
runs; the ladder fails loudly if the gate is violated.  Results land in
``BENCH_scale.json`` with a provenance block (git sha, python/numpy/BLAS
versions, cpu count, command).

Usage::

    PYTHONPATH=src python benchmarks/bench_scale_ladder.py
    PYTHONPATH=src python benchmarks/bench_scale_ladder.py --smoke

``--smoke`` runs only the 10^4 rung (CI).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT), str(REPO_ROOT / "src")]

import numpy as np  # noqa: E402

from perfbench.provenance import provenance  # noqa: E402
from repro.metrics import scoring  # noqa: E402
from repro.mf.params import FactorParams  # noqa: E402
from repro.store import (  # noqa: E402
    FactorStoreWriter,
    ShardedFactorStore,
    write_factor_store,
)
from repro.utils.clock import Timer  # noqa: E402
from repro.utils.rng import as_generator  # noqa: E402

LADDER = (10_000, 100_000, 1_000_000)
WARMUP_REQUESTS = 20


def rss_bytes() -> int:
    """Peak resident set size of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def make_item_side(n_items: int, dim: int, n_clusters: int, seed: int):
    """Clustered item factors + bias, and the mixture centers."""
    rng = as_generator(seed)
    centers = rng.normal(size=(n_clusters, dim)) * 3.0
    assignment = rng.integers(0, n_clusters, size=n_items)
    item_factors = centers[assignment] + rng.normal(size=(n_items, dim)) * 0.2
    item_bias = rng.normal(size=n_items) * 0.1
    return item_factors, item_bias, centers


def user_chunk(centers: np.ndarray, n_rows: int, seed: int) -> np.ndarray:
    """One shard's worth of user vectors, drawn near the mixture centers."""
    rng = as_generator(seed)
    assignment = rng.integers(0, len(centers), size=n_rows)
    return centers[assignment] * 0.5 + rng.normal(size=(n_rows, centers.shape[1]))


def build_store(directory, n_users, centers, item_factors, item_bias,
                shard_size, seed) -> float:
    """Stream-write the float32 store shard by shard; returns build seconds."""
    with Timer() as timer:
        writer = FactorStoreWriter(
            directory, centers.shape[1], dtype="float32", shard_size=shard_size,
            metadata={"ladder_users": int(n_users)},
        )
        written = 0
        shard = 0
        while written < n_users:
            rows = min(shard_size, n_users - written)
            writer.add_users(user_chunk(centers, rows, seed * 1_000_003 + shard))
            written += rows
            shard += 1
        writer.set_items(item_factors, item_bias)
        writer.finalize()
    return timer.elapsed


def metrics_identical_gate(seed: int) -> dict:
    """The exactness gate: a float64 store round-trips bitwise."""
    rng = as_generator(seed)
    params = FactorParams(
        user_factors=rng.normal(size=(2_000, 16)),
        item_factors=rng.normal(size=(500, 16)),
        item_bias=rng.normal(size=500),
    )
    with tempfile.TemporaryDirectory() as tmp:
        write_factor_store(tmp, params, dtype="float64", shard_size=256)
        store = ShardedFactorStore.open(tmp)
        users = np.arange(params.n_users, dtype=np.int64)
        store_bitwise = bool(
            np.array_equal(store.user_rows(users), params.user_factors)
            and np.array_equal(
                store.predict_batch(users[:200]),
                scoring.linear_scores(
                    params.user_factors[:200], params.item_factors, params.item_bias
                ),
            )
        )
        store.close()
    return {"store_float64_bitwise": store_bitwise}


def run_rung(n_users: int, args, item_factors, item_bias, centers) -> dict:
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        build_s = build_store(
            tmp, n_users, centers, item_factors, item_bias, args.shard_size, args.seed
        )
        with Timer() as open_timer:
            store = ShardedFactorStore.open(tmp, verify="all")
        try:
            # Untimed warm-up requests from their own stream, so the timed
            # ones stay the same users and none of them pays a cold start.
            warm_rng = as_generator(args.seed + n_users + 1)
            rng = as_generator(args.seed + n_users)
            dense_ms: list[float] = []
            for request in range(WARMUP_REQUESTS + args.requests):
                timed = request >= WARMUP_REQUESTS
                users = (rng if timed else warm_rng).integers(0, n_users, size=args.batch)
                users = users.astype(np.int64)
                with Timer() as timer:
                    rows = store.user_rows(users)
                    scores = scoring.linear_scores(rows, item_factors, item_bias)
                    scoring.topk_from_matrix(scores, args.k)
                if timed:
                    dense_ms.append(timer.elapsed * 1000.0)
            return {
                "n_users": n_users,
                "n_shards": store.n_shards,
                "build_s": build_s,
                "open_verify_s": open_timer.elapsed,
                "dense_ms_p50": percentile(dense_ms, 50),
                "dense_ms_p99": percentile(dense_ms, 99),
                "rss_bytes": rss_bytes(),
                "mapped_bytes": store.mapped_bytes(),
                "dense_user_bytes": store.total_user_bytes(),
            }
        finally:
            store.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-items", type=int, default=8192)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--clusters", type=int, default=64,
                        help="mixture components in the synthetic factors")
    parser.add_argument("--shard-size", type=int, default=65536)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--requests", type=int, default=200,
                        help="timed requests per rung")
    parser.add_argument("--batch", type=int, default=32, help="users per request")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workdir", type=Path, default=None,
                        help="where the temporary stores live (default: $TMPDIR)")
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_scale.json")
    parser.add_argument("--smoke", action="store_true",
                        help="only the 10^4 rung (CI)")
    args = parser.parse_args(argv)

    gates = metrics_identical_gate(args.seed)
    print(f"metrics_identical: store_float64_bitwise={gates['store_float64_bitwise']}")
    if not gates["store_float64_bitwise"]:
        print("FAIL: metrics_identical gate violated", file=sys.stderr)
        return 1

    item_factors, item_bias, centers = make_item_side(
        args.n_items, args.dim, args.clusters, args.seed
    )

    ladder = LADDER[:1] if args.smoke else LADDER
    rungs = {}
    for n_users in ladder:
        rung = run_rung(n_users, args, item_factors, item_bias, centers)
        rungs[str(n_users)] = rung
        print(
            f"users=10^{len(str(n_users)) - 1} shards={rung['n_shards']:<3} "
            f"dense p50={rung['dense_ms_p50']:.2f}ms p99={rung['dense_ms_p99']:.2f}ms "
            f"rss={rung['rss_bytes'] / 2**20:.0f}MiB "
            f"dense-would-be={rung['dense_user_bytes'] / 2**20:.0f}MiB"
        )

    report = {
        "n_items": args.n_items,
        "dim": args.dim,
        "k": args.k,
        "shard_size": args.shard_size,
        "requests_per_rung": args.requests,
        "warmup_requests_per_rung": WARMUP_REQUESTS,
        "batch": args.batch,
        "metrics_identical": gates,
        "rungs": rungs,
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
