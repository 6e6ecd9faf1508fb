"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload serve-mixed-rw --seeds 0 1 2 3 4

Runs ``run.py`` once per seed (sequentially) and prints, per metric, the
median and the quartile distance as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  A benchmark is steady when each
spread (``setup_s`` aside) stays well inside its bound.  Metrics that are
printed but not gated (the raw timings among them) are listed too, and
each run's full output is kept in ``.perfbench-work/spread/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import median, relative_iqr  # noqa: E402


def printed_metrics(stdout: str) -> dict[str, float]:
    """Every end-to-end metric of run.py's readable report."""
    found, inside = {}, False
    for line in stdout.splitlines():
        if line.startswith("end-to-end"):
            inside = True
        elif inside and line.startswith("  "):
            name, value = line.split()[:2]
            found[name] = float(value)
        elif inside:
            break
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {}
    printed: dict[str, list[float]] = {}
    keep = ROOT / ".perfbench-work" / "spread"
    keep.mkdir(parents=True, exist_ok=True)
    for seed in args.seeds:
        command = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
        (keep / f"{args.workload}-{seed}.txt").write_text(done.stdout, encoding="utf-8")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not result["correct"]:
            print(done.stdout[-2000:], done.stderr[-2000:], file=sys.stderr)
            return 1
        steal = next((json.loads(line[len("provenance: "):]).get("cpu_steal_share")
                      for line in done.stdout.splitlines() if line.startswith("provenance: ")),
                     None)
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items())
            + f", cpu_steal_share={steal if steal is None else round(steal, 3)}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for name, value in printed_metrics(done.stdout).items():
            if name not in result["metrics"]:
                printed.setdefault(name, []).append(value)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    for name, series in values.items():
        spread = relative_iqr(series) if len(series) >= 2 else float("nan")
        print(f"{name:<20} median {median(series):>12.5g}  spread {spread:7.3f}  "
              f"bound {bounds.get(name, float('nan')):.3f}")
    for name, series in printed.items():
        spread = relative_iqr(series) if len(series) >= 2 and median(series) else float("nan")
        print(f"  (not gated) {name:<22} median {median(series):>12.5g}  spread {spread:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
