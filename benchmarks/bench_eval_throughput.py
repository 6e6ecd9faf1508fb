"""Full-ranking evaluation throughput: batched engine vs per-user loop.

Measures the paper's evaluation protocol (rank *all* unobserved items
for every test user, Section 6.3) two ways on an ML100K-scale synthetic
dataset:

* ``Evaluator.evaluate_sequential`` — the original one-``predict_user``-
  call-per-user reference loop;
* ``Evaluator.evaluate`` — the chunked ``predict_batch`` engine on one
  worker (``n_jobs=1``, ``scoring.CHUNK_SIZE``-row chunks), timed as
  ``batched_seconds``; with ``--n-jobs N`` it is also timed on ``N``
  workers, each on one BLAS thread and sharing the same row budget, as
  ``threaded_seconds``.

The two paths must produce *identical* metric dictionaries — the
chunk-invariance contract — and the script fails loudly if they do not.
Results land in ``BENCH_eval.json`` so the perf trajectory is tracked
in-repo, with a provenance block (git sha, python/numpy versions, cpu
count, command) saying where they came from.

Usage::

    PYTHONPATH=src python benchmarks/bench_eval_throughput.py
    PYTHONPATH=src python benchmarks/bench_eval_throughput.py --smoke
    PYTHONPATH=src python benchmarks/bench_eval_throughput.py --repeats 7 --n-jobs 2

``--smoke`` shrinks the dataset for CI and skips the speedup threshold
(tiny datasets are dominated by per-call overhead, not throughput).
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
from repro.metrics.evaluator import Evaluator  # noqa: E402
from repro.metrics.scoring import resolve_n_jobs  # noqa: E402
from repro.mf.sgd import SGDConfig  # noqa: E402
from repro.utils.clock import Timer  # noqa: E402

#: The acceptance bar: the batched engine must be at least this much
#: faster than the per-user reference loop at ML100K scale.
REQUIRED_SPEEDUP = 3.0


def best_of(fn, repeats: int):
    """Run ``fn`` ``repeats`` times; return (best_seconds, last_result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        with Timer() as timer:
            result = fn()
        best = min(best, timer.elapsed)
    return best, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        type=float,
        default=3.3,
        help="ML100K profile multiplier (3.3 ~ the real 943x1682 matrix)",
    )
    parser.add_argument("--epochs", type=int, default=2, help="BPR warm-up epochs")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")
    parser.add_argument("--n-jobs", type=int, default=None, help="also time a threaded run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_eval.json")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny dataset, single repeat, no speedup threshold (CI)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.scale = min(args.scale, 0.5)
        args.repeats = 1
        args.epochs = 1

    dataset = make_profile_dataset("ML100K", scale=args.scale, seed=args.seed)
    split = train_test_split(dataset, seed=args.seed)
    print(
        f"dataset: {dataset.name} scale={args.scale} -> "
        f"{split.train.n_users} users x {split.train.n_items} items, "
        f"{split.train.n_interactions} train pairs"
    )
    model = BPR(sgd=SGDConfig(n_epochs=args.epochs), seed=args.seed)
    model.fit(split.train, split.validation)

    def evaluator() -> Evaluator:
        return Evaluator(split, ks=(5,), seed=args.seed, n_jobs=1)

    sequential_seconds, sequential = best_of(
        lambda: evaluator().evaluate_sequential(model), args.repeats
    )
    batched_seconds, batched = best_of(lambda: evaluator().evaluate(model), args.repeats)

    if batched.metrics != sequential.metrics or batched.n_users != sequential.n_users:
        diffs = {
            key: (sequential.metrics[key], batched.metrics[key])
            for key in sequential.metrics
            if sequential.metrics[key] != batched.metrics[key]
        }
        print(f"FAIL: batched metrics diverge from the sequential protocol: {diffs}")
        return 1

    speedup = sequential_seconds / batched_seconds
    report = {
        "dataset": dataset.name,
        "scale": args.scale,
        "n_users": split.train.n_users,
        "n_items": split.train.n_items,
        "n_train_interactions": split.train.n_interactions,
        "n_evaluated_users": sequential.n_users,
        "per_user_seconds": sequential_seconds,
        "batched_seconds": batched_seconds,
        "speedup": speedup,
        "metrics_identical": True,
        "metrics": sequential.metrics,
        "smoke": bool(args.smoke),
        "provenance": provenance(
            REPO_ROOT, [str(Path(__file__).relative_to(REPO_ROOT)), *sys.argv[1:]],
            {"seed": args.seed},
        ),
    }

    if args.n_jobs is not None:
        n_jobs = resolve_n_jobs(args.n_jobs)
        threaded_seconds, threaded = best_of(
            lambda: Evaluator(split, ks=(5,), seed=args.seed, n_jobs=n_jobs).evaluate(model),
            args.repeats,
        )
        if threaded.metrics != sequential.metrics:
            print("FAIL: threaded metrics diverge from the sequential protocol")
            return 1
        report["n_jobs"] = n_jobs
        report["threaded_seconds"] = threaded_seconds
        print(f"threaded (n_jobs={n_jobs}): {threaded_seconds:.3f}s")

    print(
        f"per-user: {sequential_seconds:.3f}s  batched: {batched_seconds:.3f}s  "
        f"speedup: {speedup:.2f}x  (metrics identical over {sequential.n_users} users)"
    )
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    if not args.smoke and speedup < REQUIRED_SPEEDUP:
        print(f"FAIL: speedup {speedup:.2f}x is below the required {REQUIRED_SPEEDUP}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
