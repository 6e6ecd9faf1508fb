"""Serve workloads: boot a fresh server process, load it, check its answers.

Per run: the server sets up (several times, for a median ``setup_s``),
then a one-second closed-loop warm-up, a closed-loop phase for
``throughput_per_s`` and an open-loop phase at the workload's fixed
rate for the latencies.  The closed loop pauses after every half-second
window for the reference kernel of :mod:`perfbench.calibrate`, which
runs again after the open loop; the throughput, the latency p50 and
``setup_s`` are reported at the reference speed.  Afterwards a seeded sample of responses is
compared with the benchmark's own reference top-k, and on
serve-mixed-rw the reopened WAL must hold exactly the acknowledged
feedback.  The traced run repeats all of this with every serving layer
wrapped, and splits each request's latency into layer self times.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import queue
import subprocess
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from perfbench.calibrate import MAX_FOREIGN_CPU_SHARE, Reference, speed
from perfbench.driver import LoadDriver
from perfbench.reference import check_ranking, load_factors
from perfbench.schedule import COLD, FEEDBACK, WARM, make_schedule
from perfbench.services import PROTOCOL_PREFIX, SETUP_REPEATS, SPECS
from perfbench.stats import median, summarize
from perfbench.tracing import children_of, load_spans, reconcile, self_times, subtree_layers

WARMUP_S = 1.0
CLOSED_SHARE = 0.4
THROUGHPUT_WINDOW_S = 0.5
#: Reference kernel runs after each closed-loop window, and after the open loop.
REFERENCE_REPEATS = 3
OPEN_REFERENCE_REPEATS = 10
CHECK_SAMPLE = 300
MIN_CHECKED = 50
READY_TIMEOUT_S = 150.0
STOP_TIMEOUT_S = 60.0

#: Span name -> per-request layer metric.
LAYER_OF = {
    "edge.parse": "edge.parse_ms",
    "edge.serialize": "edge.serialize_ms",
    "serving.recommend_batch": "serving.cascade_ms",
    "serving.recommend": "serving.cascade_ms",
    "serving.tier_fn": "serving.cascade_ms",
    "serving.executor": "serving.executor_handoff_ms",
    "serving.breaker": "serving.breaker_ms",
    "scoring.predict": "scoring.predict_ms",
    "store.read": "store.read_ms",
    "scoring.topk": "scoring.topk_ms",
    "fold_in.solve": "fold_in.solve_ms",
    "wal.append": "wal.append_ms",
}
TIME_LAYERS = sorted(set(LAYER_OF.values()) | {"edge.coalesce_wait_ms", "serving.tier_ms"})


def layer_of(name: str) -> str:
    if name.startswith("serving.tier."):
        return "serving.tier_ms"
    return LAYER_OF.get(name, "unattributed")


class ServerProcess:
    """The program under test, in its own process, spoken to by lines."""

    def __init__(self, root: Path, workload: str, seed: int, trace: bool, workdir: Path):
        self.log = open(workdir / "server.log", "w", encoding="utf-8")  # noqa: SIM115
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        self.proc = subprocess.Popen(
            [sys.executable, "-B", str(root / "perfbench" / "server.py"),
             "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
             "--workdir", str(workdir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log,
            text=True, env=env, cwd=root,
        )
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            if line.startswith(PROTOCOL_PREFIX):
                self.lines.put(line[len(PROTOCOL_PREFIX):])
        self.lines.put(None)

    def message(self, timeout: float) -> dict:
        try:
            line = self.lines.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError(f"server sent nothing within {timeout:.0f}s") from None
        if line is None:
            raise RuntimeError(f"server exited (code {self.proc.wait()}); see {self.log.name}")
        return json.loads(line)

    def stop(self) -> dict:
        self.proc.stdin.write("stop\n")
        self.proc.stdin.flush()
        result = self.message(STOP_TIMEOUT_S)
        self.proc.wait(timeout=STOP_TIMEOUT_S)
        return result

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        self.reader.join(timeout=10)
        self.log.close()


def _schedules(spec, seed: int, seconds: float, factors):
    common = dict(
        warm_users=factors.warm_users(), n_items=factors.n_items, zipf_s=spec.zipf_s,
        mix=spec.mix, rate_per_s=spec.open_rate_per_s,
    )
    open_s = seconds * (1.0 - CLOSED_SHARE)
    n_open = int(spec.open_rate_per_s * open_s * 1.3) + 200
    # Each phase gets its own stream and its own block of fresh cold-user ids.
    sizes = {"warmup": 20_000, "closed": 50_000, "open": n_open}
    return {
        phase: make_schedule(seed, n, stream=stream, cold_user_base=factors.n_users + stream * n,
                             **common)
        for stream, (phase, n) in enumerate(sizes.items())
    }


def one_run(root: Path, workload: str, seed: int, seconds: float, trace: bool,
            workdir: Path) -> dict:
    """Boot, warm up, run both phases, stop; returns raw observations."""
    spec = SPECS[workload]
    workdir.mkdir(parents=True, exist_ok=True)
    server = ServerProcess(root, workload, seed, trace, workdir)
    try:
        ready = server.message(READY_TIMEOUT_S)
        factors = load_factors(
            Path(ready["reference"]), Path(ready["store_dir"]) if ready["store_dir"] else None
        )
        schedules = _schedules(spec, seed, seconds, factors)
        driver = LoadDriver(ready["host"], ready["port"], seed, spec.k,
                            connections=min(2, os.cpu_count() or 1))
        closed_s = seconds * CLOSED_SHARE
        reference, open_reference = Reference(), Reference()

        async def phases():
            await driver.closed_loop(schedules["warmup"], WARMUP_S, "warmup")
            closed = await driver.closed_loop(
                schedules["closed"], closed_s, "closed",
                windows=max(1, round(closed_s / THROUGHPUT_WINDOW_S)),
                between=lambda: reference.measure(REFERENCE_REPEATS),
            )
            driver.lag_s.clear()
            await driver.open_loop(schedules["open"], seconds - closed_s, "open")
            open_reference.measure(OPEN_REFERENCE_REPEATS)
            return closed

        # The driver's own collector must not pause the schedule.
        gc.disable()
        try:
            closed_windows = asyncio.run(phases())
        finally:
            gc.enable()
        final = server.stop()
    finally:
        server.close()
    return {
        "ready": ready, "final": final, "driver": driver, "factors": factors,
        "schedules": schedules, "closed_windows": closed_windows, "reference": reference,
        "open_reference": open_reference,
    }


def end_to_end(run: dict) -> dict:
    driver = run["driver"]
    measured = [o for o in driver.outcomes if o.phase != "warmup"]
    completed = np.sort([o.received for o in measured if o.phase == "closed" and o.ok])
    # The median over half-second windows, so a stall of a shared machine
    # does not set the figure for the whole phase.
    windows = run["closed_windows"]
    counts = [np.searchsorted(completed, end, "right") - np.searchsorted(completed, start)
              for start, end in windows]
    rates = [count / (end - start) for count, (start, end) in zip(counts, windows)]
    raw_throughput = median(rates)
    # Each window at the reference speed of the kernel runs right after it.
    throughput = median([rate / speed(group)
                         for rate, group in zip(rates, run["reference"].groups, strict=True)])
    in_windows = int(sum(counts))
    latencies = summarize(
        [(o.received - o.due) * 1000.0 for o in measured if o.phase == "open" and o.ok]
    )
    # The open loop between the closed loop's kernel runs and its own.
    latency_speed = speed(run["reference"].samples + run["open_reference"].samples)
    warm_ok = [o for o in measured if o.kind == WARM and o.ok]
    degraded = sum(o.served_by != "personalized" for o in warm_ok)
    lag = summarize(np.asarray(driver.lag_s) * 1000.0)
    failed = sum(not o.ok for o in measured)
    return {
        "setup_s": (run["ready"]["setup"]["setup_s"], "s", SETUP_REPEATS),
        "peak_rss_mb": (run["final"]["peak_rss_mb"], "MiB", 1),
        "throughput_per_s": (throughput, "1/s", in_windows),
        "latency_p50_ms": (latencies["p50"] * latency_speed, "ms", latencies["n"]),
        "latency_p95_ms": (latencies["p95"], "ms", latencies["n"]),
        "latency_p99_ms": (latencies["p99"], "ms", latencies["n"]),
        "setup_raw_s": (run["ready"]["setup"]["setup_raw_s"], "s", SETUP_REPEATS),
        "throughput_raw_per_s": (raw_throughput, "1/s", in_windows),
        "latency_raw_p50_ms": (latencies["p50"], "ms", latencies["n"]),
        "failed_ratio": (failed / max(1, len(measured)), "1", len(measured)),
        "degraded_ratio": (degraded / max(1, len(warm_ok)), "1", len(warm_ok)),
        "driver_lag_ms": (lag["mean"], "ms", lag["n"]),
        "_attempted": len(measured),
        "_failed": failed,
        "_errors": dict(Counter(o.error.split(":")[0] for o in measured if not o.ok).most_common(5)),
        "_latency_tail": latencies,
    }


def check(seed: int, run: dict) -> tuple[list[str], dict]:
    """Reference top-k on a seeded sample; the WAL holds exactly the acks."""
    driver, factors, schedules = run["driver"], run["factors"], run["schedules"]
    problems: list[str] = []
    candidates = [o for o in driver.outcomes if o.ok and o.kind != FEEDBACK]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC4EC]))
    sample = rng.choice(len(candidates), size=min(CHECK_SAMPLE, len(candidates)), replace=False)
    checked = exact = skipped = 0
    for position in sorted(sample):
        outcome = candidates[position]
        if outcome.kind == WARM and outcome.served_by == "personalized":
            scores = factors.user_scores(outcome.user)
            excluded = factors.positives(outcome.user)
        elif outcome.kind == COLD and outcome.served_by == "fold-in":
            history = schedules[outcome.phase].items[outcome.index]
            scores = factors.fold_in_scores(history)
            excluded = np.unique(np.concatenate([history, factors.positives(outcome.user)]))
        else:
            skipped += 1
            continue
        valid, same, reason = check_ranking(outcome.items, scores, excluded, len(outcome.items))
        checked += 1
        exact += same
        if not valid:
            problems.append(f"request {outcome.rid} (user {outcome.user}): {reason}")
    foreign = max(run["ready"]["setup"]["reference_foreign_cpu"],
                  median(run["reference"].foreign_cpu + run["open_reference"].foreign_cpu))
    if foreign > MAX_FOREIGN_CPU_SHARE:
        problems.append(f"other threads took {foreign:.0%} of a CPU while the reference kernel "
                        "ran, so it cannot stand for the host's speed")
    if checked < min(MIN_CHECKED, len(candidates)):
        problems.append(f"only {checked} responses could be checked against the reference")
    summary = {"checked": checked, "exact": exact, "skipped": skipped}
    wal_dir = run["ready"]["wal_dir"]
    if wal_dir is not None:
        summary["wal"] = _check_wal(Path(wal_dir), driver, problems)
    return problems, summary


def _check_wal(wal_dir: Path, driver: LoadDriver, problems: list[str]) -> dict:
    from repro.streaming import WriteAheadLog

    ok_rids = {o.rid for o in driver.outcomes if o.ok and o.kind == FEEDBACK}
    acked = {fb.key: fb for rid, fb in driver.feedback.items() if rid in ok_rids}
    unacked = {fb.key for rid, fb in driver.feedback.items() if rid not in ok_rids}
    with WriteAheadLog(wal_dir) as wal:
        records = [record for _, record in wal.read()]
    keys = [record.key for record in records]
    if len(set(keys)) != len(keys):
        problems.append("WAL replay yields a key twice")
    for record in records:
        sent = acked.get(record.key)
        if sent is None:
            if record.key not in unacked:
                problems.append(f"WAL holds an unknown record {record.key}")
        elif (record.user, record.items, record.ts) != (sent.user, sent.items, sent.ts):
            problems.append(f"WAL record {record.key} differs from what was acknowledged")
    missing = set(acked) - set(keys)
    if missing:
        problems.append(f"{len(missing)} acknowledged feedback records missing from the WAL")
    return {"acknowledged": len(acked), "replayed": len(records)}


def per_layer(run: dict, untraced: dict) -> dict:
    """Per-request layer self times of the traced run, reconciled."""
    spans = load_spans(Path(run["final"]["spans"]))
    driver = run["driver"]
    measured = {o.rid: o.received - o.sent for o in driver.outcomes
                if o.phase != "warmup" and o.ok}
    own = self_times(spans)
    children = children_of(spans)
    roots = {s.link: s for s in spans if s.name == "request" and s.link in measured}
    batches = {}
    batch_of = {}
    for span in spans:
        if span.name == "serving.recommend_batch" and span.link:
            if any(rid in measured for rid in span.link):
                batches[span.id] = span
                for rid in span.link:
                    batch_of[rid] = span
    wal_of = {s.link: s for s in spans if s.name == "wal.append" and s.link in measured}
    batch_layers = {bid: subtree_layers(b, children, own, layer_of) for bid, b in batches.items()}

    totals: dict[str, float] = defaultdict(float)
    end_to_end = 0.0
    n = 0
    for rid, latency in measured.items():
        root = roots.get(rid)
        if root is None:
            continue
        n += 1
        end_to_end += latency
        for child in children.get(root.id, ()):
            if child.name == "edge.submit":
                batch = batch_of.get(rid)
                waited = child.duration - (batch.duration if batch else 0.0)
                totals["edge.coalesce_wait_ms"] += waited
                for layer, value in (batch_layers[batch.id] if batch else {}).items():
                    totals[layer] += value
            else:
                for layer, value in subtree_layers(child, children, own, layer_of).items():
                    totals[layer] += value
        if rid in wal_of:
            totals["wal.append_ms"] += wal_of[rid].duration
    totals.pop("unattributed", None)
    balance = reconcile(end_to_end, dict(totals))
    layers = {name: totals.get(name, 0.0) * 1000.0 / max(n, 1) for name in TIME_LAYERS}

    attempts = requests = failures = 0
    for batch in batches.values():
        requests += len(batch.link)
        stack = [batch]
        while stack:
            span = stack.pop()
            if span.name.startswith("serving.tier."):
                attempts += int(span.link or 1)
                failures += span.failed and span.name == "serving.tier.personalized"
            stack.extend(children.get(span.id, ()))
    layers["edge.batch_size"] = requests / max(1, len(batches))
    layers["serving.tier_attempts_per_request"] = attempts / max(1, requests)
    layers["serving.personalized_failures"] = failures
    layers["serving.breaker_window_len"] = max(
        b["window_calls"] for b in run["final"]["breakers"].values()
    )
    layers["serving.breaker_transitions"] = run["final"]["breaker_transitions"]
    layers["wal.appends"] = len(wal_of)
    layers["driver.lag_ms"] = float(np.mean(driver.lag_s) * 1000.0) if driver.lag_s else 0.0
    setup = run["ready"]["setup"]
    for name in ("data.generate_s", "data.split_s", "store.publish_s"):
        layers[name] = setup[name]
    traced_tput = end_to_end_throughput(run)
    layers["trace.overhead_pct"] = (end_to_end_throughput(untraced) / traced_tput - 1.0) * 100.0
    layers["trace.unattributed_share"] = balance["unattributed_share"]
    balance["requests"] = n
    balance["untraced_throughput_per_s"] = end_to_end_throughput(untraced)
    balance["traced_throughput_per_s"] = traced_tput
    return {"layers": layers, "reconcile": balance}


def end_to_end_throughput(run: dict) -> float:
    return end_to_end(run)["throughput_per_s"][0]
