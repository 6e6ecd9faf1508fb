"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload train-dss --seed 0 --seconds 25 --trace 0

Workloads:

* ``train-dss`` -- CLAPF+-MAP trained with the DSS sampler on the ML1M
  profile at scale 5, then the full-ranking evaluator (the paper's
  headline configuration; sampler and SGD step do nearly all the work);
* ``serve-zipf-wide`` -- warm Zipf users over 10^5 users and a
  32,768-item float32 sharded store behind the HTTP edge (store reads,
  scoring, top-k and per-shard breakers dominate);
* ``serve-mixed-rw`` -- the train-dss data with a fitted CLAPF+ model
  behind the full four-tier cascade and a WAL: 80 % warm recommends,
  10 % cold recommends with history, 10 % feedback writes (edge,
  coalescing, fall-through cascade, fold-in and durable writes).

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced, and reports per-layer self times,
their reconciliation with the traced end-to-end time, and the tracing
overhead.  A readable report goes to stdout first; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Any
failed output check exits 1.  Work files go to ``.perfbench-work/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402

WORKLOADS = ("train-dss", "serve-zipf-wide", "serve-mixed-rw")
SPEC = ROOT / "BENCHMARK.json"


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_train(seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import train
    from perfbench.tracing import Tracer

    split, setup = train.setup(seed)
    run = train.train_and_evaluate(split, seed, seconds)
    problems = train.check(split, seed, run)
    metrics = train.end_to_end(setup, run)
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB", 1)
    attempted = len(run["losses"])
    failed = sum(not math.isfinite(loss) for loss in run["losses"])
    out = {"metrics": metrics, "problems": problems, "attempted": attempted, "failed": failed,
           "details": {"setup": setup, "epoch_s": run["epoch_s"],
                       "eval_pass_s": run["eval_pass_s"], "ndcg_at_5_hex": run["ndcgs"][0].hex(),
                       "reference_s": {"setup": setup["reference_s"],
                                       "train": run["train_reference_s"],
                                       "eval": run["eval_reference_s"]},
                       "reference_foreign_cpu": max(run["reference_foreign_cpu"])}}
    if trace:
        tracer = Tracer()
        traced = train.train_and_evaluate(split, seed, seconds, tracer)
        if traced["ndcgs"][0].hex() != run["ndcgs"][0].hex():
            problems.append("the traced refit did not reproduce ndcg@5 bitwise")
        layered = train.per_layer(setup, traced, tracer, run)
        if not layered["reconcile"]["ok"]:
            problems.append(f"layers do not reconcile: {layered['reconcile']}")
        out["layers"] = layered["layers"]
        out["details"]["reconcile"] = layered["reconcile"]
        out["attempted"] += len(traced["losses"])
        out["failed"] += sum(not math.isfinite(loss) for loss in traced["losses"])
    return out


def run_serve(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    from perfbench import serve

    run = serve.one_run(ROOT, workload, seed, seconds, False, workdir / "untraced")
    problems, checks = serve.check(seed, run)
    metrics = serve.end_to_end(run)
    out = {"attempted": metrics.pop("_attempted"), "failed": metrics.pop("_failed"),
           "problems": problems,
           "details": {"checks": checks, "latency": metrics.pop("_latency_tail"),
                       "errors": metrics.pop("_errors"),
                       "setups": run["ready"]["setups"],
                       "tiers": {name: {key: stats[key] for key in ("served", "failures", "timeouts")}
                                 for name, stats in run["final"]["tiers"].items()},
                       "executor_overruns": run["final"]["executor_overruns"],
                       "reference_s": {"setup": run["ready"]["setup"]["reference_s"],
                                       "closed": run["reference"].samples,
                                       "open": run["open_reference"].samples}}}
    out["metrics"] = metrics
    if trace:
        traced = serve.one_run(ROOT, workload, seed, seconds, True, workdir / "traced")
        traced_problems, traced_checks = serve.check(seed, traced)
        problems.extend(traced_problems)
        layered = serve.per_layer(traced, run)
        if not layered["reconcile"]["ok"]:
            problems.append(f"layers do not reconcile: {layered['reconcile']}")
        out["layers"] = layered["layers"]
        out["details"]["reconcile"] = layered["reconcile"]
        out["details"]["traced_checks"] = traced_checks
        traced_metrics = serve.end_to_end(traced)
        out["attempted"] += traced_metrics["_attempted"]
        out["failed"] += traced_metrics["_failed"]
        out["details"]["traced_errors"] = traced_metrics["_errors"]
    for name in ("untraced", "traced"):
        for stale in list((workdir / name).glob("setup*")) + [workdir / name / "reference.npz"]:
            if stale.is_dir():
                shutil.rmtree(stale, ignore_errors=True)
            elif stale.exists():
                stale.unlink()
    return out


def report(workload: str, args, out: dict, provenance: dict, units: dict) -> None:
    print(f"perfbench {workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print("end-to-end (value unit, samples):")
    for name, (value, unit, count) in out["metrics"].items():
        print(f"  {name:<22} {value:>14.6g} {unit:<4} n={count}")
    if "layers" in out:
        print("per layer (traced run):")
        for name, value in out["layers"].items():
            print(f"  {name:<36} {value:>14.6g} {units[name]}")
    print("details: " + json.dumps(out["details"], sort_keys=True, default=str))
    for problem in out["problems"]:
        print(f"CHECK FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="The repository benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program source under {ROOT / 'src'}; run from a full checkout")
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    # Every workload reports every metric the spec names (0 for a layer
    # the workload does not run).
    end_to_end = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    per_layer = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    if args.seconds <= 0:
        return fail("--seconds must be > 0")
    try:
        import repro  # noqa: F401
    except ImportError as error:
        return fail(f"cannot import the program: {error}")
    from perfbench.provenance import cpu_ticks, provenance, steal_share

    workdir = ROOT / ".perfbench-work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ticks = cpu_ticks()
    if args.workload == "train-dss":
        out = run_train(args.seed, args.seconds, bool(args.trace))
    else:
        out = run_serve(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    prov = provenance(ROOT, sys.argv, {args.workload: args.seed})
    prov["cpu_steal_share"] = steal_share(ticks, cpu_ticks())
    report(args.workload, args, out, prov, per_layer)
    if args.trace:
        metrics = {name: {"value": float(out["layers"].get(name, 0.0)), "unit": unit}
                   for name, unit in per_layer.items()}
    else:
        metrics = {name: {"value": float(out["metrics"][name][0]), "unit": unit}
                   for name, unit in end_to_end.items()}
    result = {"correct": not out["problems"], "attempted": int(out["attempted"]),
              "failed": int(out["failed"]), "metrics": metrics}
    (workdir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
