"""``train-dss``: CLAPF+-MAP with the DSS sampler, then full-ranking evaluation.

The paper's headline configuration at repo defaults (20 factors, batch
512, lambda 0.4, tail 0.2) on the ML1M profile at scale 5.  Every set-up,
epoch and evaluation pass is followed by the reference kernel of
:mod:`perfbench.calibrate`, and the gated timings are reported at the
reference speed, because this CPU-bound work ran up to 30 % faster or
slower from one minute to the next on the shared host.
"""

from __future__ import annotations

import math
import time

import numpy as np

from perfbench.calibrate import MAX_FOREIGN_CPU_SHARE, Reference, at_reference_speed
from perfbench.stats import median, summarize
from perfbench.tracing import Tracer, reconcile
from repro import Evaluator, clapf_plus_map, make_profile_dataset, train_test_split
from repro.mf.sgd import SGDConfig
from repro.sampling.geometric import FactorRankingCache, UserPositiveRankingCache

PROFILE = "ML1M"
SCALE = 5.0
WARMUP_EPOCHS = 1
#: Enough SGD steps (43 per epoch) that the step-latency p99 has ten
#: samples beyond it.
TIMED_EPOCHS = 24
SETUP_REPEATS = 5
MIN_EVAL_PASSES = 3
MAX_EVAL_PASSES = 12
#: Reference kernel runs after each set-up, epoch and evaluation pass:
#: enough that the median kernel time of a run is known to a percent or two.
REFERENCE_REPEATS = 5
#: A trained model ranks far above random (about 0.003 at this size).
NDCG_FLOOR = 0.02


def setup(seed: int):
    """Generate and split the dataset several times; keep the last split."""
    generate, split_s, total = [], [], []
    reference = Reference()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        dataset = make_profile_dataset(PROFILE, scale=SCALE, seed=seed)
        generated = time.perf_counter()
        split = train_test_split(dataset, seed=seed)
        done = time.perf_counter()
        generate.append(generated - start)
        split_s.append(done - generated)
        total.append(done - start)
        reference.measure(REFERENCE_REPEATS)
    return split, {
        "setup_s": median(at_reference_speed(total, reference.groups)),
        "setup_raw_s": median(total),
        "reference_s": reference.samples,
        "data.generate_s": median(generate),
        "data.split_s": median(split_s),
    }


def _install_trace(tracer: Tracer, model) -> None:
    tracer.patch(model.sampler, "sample", "sampling.draw")
    for cache in (FactorRankingCache, UserPositiveRankingCache):
        original = cache.maybe_refresh

        def refresh(self, _original=original):
            before = self.rebuilds_
            with tracer.span("sampling.refresh"):
                _original(self)
            tracer.counters["sampling.refreshes"] += self.rebuilds_ - before

        cache.maybe_refresh = refresh
    tracer.patch(model, "predict_batch", "metrics.eval_score")


def train_and_evaluate(split, seed: int, seconds: float, tracer: Tracer | None = None) -> dict:
    """Fit for the fixed epochs, then evaluate for the rest of ``seconds``.

    The reference kernel runs after every epoch and every evaluation
    pass, outside the timed spans.
    """
    epoch_starts: list[float] = []
    epoch_ends: list[float] = []
    step_starts: list[float] = []
    state: dict = {}
    train_reference, eval_reference = Reference(), Reference()

    def on_epoch(model, epoch: int) -> None:
        epoch_ends.append(time.perf_counter())
        if epoch == WARMUP_EPOCHS - 1:
            state["params"] = model.params_.copy()
            state["refreshes"] = tracer.counters["sampling.refreshes"] if tracer else 0
        train_reference.measure(REFERENCE_REPEATS)
        epoch_starts.append(time.perf_counter())

    sgd = SGDConfig(n_epochs=WARMUP_EPOCHS + TIMED_EPOCHS)
    model = clapf_plus_map(seed=seed, sgd=sgd, epoch_callback=on_epoch)
    if tracer is not None:
        _install_trace(tracer, model)
    timed_sample = model.sampler.sample

    def marked_sample(batch_size, rng):
        step_starts.append(time.perf_counter())
        return timed_sample(batch_size, rng)

    model.sampler.sample = marked_sample
    measure_start = time.perf_counter()
    epoch_starts.append(measure_start)
    model.fit(split.train)

    evaluator = Evaluator(split, ks=(5,))
    evaluate = tracer.wrap(evaluator.evaluate, "metrics.evaluate") if tracer else evaluator.evaluate
    pass_times, ndcgs = [], []
    while len(pass_times) < MIN_EVAL_PASSES or (
        len(pass_times) < MAX_EVAL_PASSES and time.perf_counter() - measure_start < seconds
    ):
        start = time.perf_counter()
        result = evaluate(model)
        pass_times.append(time.perf_counter() - start)
        ndcgs.append(result["ndcg@5"])
        eval_reference.measure(REFERENCE_REPEATS)

    steps = sgd.steps_per_epoch(split.train.n_interactions)
    timed = range(WARMUP_EPOCHS, WARMUP_EPOCHS + TIMED_EPOCHS)
    epoch_times = np.array([epoch_ends[epoch] - epoch_starts[epoch] for epoch in timed])
    step_ms = []
    for epoch in timed:
        starts = step_starts[epoch * steps:(epoch + 1) * steps] + [epoch_ends[epoch]]
        step_ms.extend(np.diff(starts) * 1000.0)
    return {
        "losses": list(model.loss_history_),
        "epoch_s": epoch_times.tolist(),
        "train_window": (epoch_starts[WARMUP_EPOCHS], epoch_ends[-1]),
        "tuples_per_epoch": steps * sgd.batch_size,
        "step_ms": step_ms,
        "eval_pass_s": pass_times,
        "epoch_ref_s": at_reference_speed(epoch_times, train_reference.groups[WARMUP_EPOCHS:]),
        "eval_pass_ref_s": at_reference_speed(pass_times, eval_reference.groups),
        "train_reference_s": train_reference.samples,
        "eval_reference_s": eval_reference.samples,
        "reference_foreign_cpu": train_reference.foreign_cpu + eval_reference.foreign_cpu,
        "eval_users": result.n_users,
        "ndcgs": ndcgs,
        "warmup_params": state["params"],
        "warmup_refreshes": state["refreshes"],
    }


def replay_matches(split, seed: int, run: dict) -> bool:
    """Refit the warm-up epoch from the seed; parameters must match bitwise."""
    replay = clapf_plus_map(seed=seed, sgd=SGDConfig(n_epochs=WARMUP_EPOCHS)).fit(split.train)
    expected = run["warmup_params"]
    return (
        np.array_equal(replay.params_.user_factors, expected.user_factors)
        and np.array_equal(replay.params_.item_factors, expected.item_factors)
        and np.array_equal(replay.params_.item_bias, expected.item_bias)
        and replay.loss_history_ == run["losses"][:WARMUP_EPOCHS]
    )


def check(split, seed: int, run: dict) -> list[str]:
    """Output checks; each returned string is one failure."""
    problems = []
    bad = [loss for loss in run["losses"] if not math.isfinite(loss)]
    if bad:
        problems.append(f"{len(bad)} non-finite epoch losses")
    if len({value.hex() for value in run["ndcgs"]}) != 1:
        problems.append(f"evaluation passes disagree: {run['ndcgs']}")
    if not run["ndcgs"][0] >= NDCG_FLOOR:
        problems.append(f"ndcg@5 {run['ndcgs'][0]:.4f} below the trained-model floor {NDCG_FLOOR}")
    foreign = median(run["reference_foreign_cpu"])
    if foreign > MAX_FOREIGN_CPU_SHARE:
        problems.append(f"other threads took {foreign:.0%} of a CPU while the reference kernel "
                        "ran, so it cannot stand for the host's speed")
    if not replay_matches(split, seed, run):
        problems.append("refitting the warm-up epoch from the seed did not reproduce it bitwise")
    return problems


def end_to_end(setup_metrics: dict, run: dict) -> dict:
    """The end-to-end metrics, each with its unit and sample count.

    Throughput is SGD tuples over all timed epochs and latency is one
    full-ranking evaluation pass, both at the reference speed; the raw
    figures and the SGD step latencies are printed next to them.
    """
    steps = summarize(run["step_ms"])
    tuples = run["tuples_per_epoch"] * len(run["epoch_s"])
    train_s = float(np.sum(run["epoch_s"]))
    pass_s = median(run["eval_pass_s"])
    passes = len(run["eval_pass_s"])
    return {
        "setup_s": (setup_metrics["setup_s"], "s", SETUP_REPEATS),
        "throughput_per_s": (tuples / float(np.sum(run["epoch_ref_s"])), "1/s",
                             len(run["epoch_s"])),
        "latency_p50_ms": (median(run["eval_pass_ref_s"]) * 1000.0, "ms", passes),
        "setup_raw_s": (setup_metrics["setup_raw_s"], "s", SETUP_REPEATS),
        "throughput_raw_per_s": (tuples / train_s, "1/s", len(run["epoch_s"])),
        "latency_raw_p50_ms": (pass_s * 1000.0, "ms", passes),
        "sgd_step_p50_ms": (steps["p50"], "ms", steps["n"]),
        "sgd_step_p95_ms": (steps["p95"], "ms", steps["n"]),
        "sgd_step_p99_ms": (steps["p99"], "ms", steps["n"]),
        "eval_users_per_s": (run["eval_users"] / median(run["eval_pass_ref_s"]), "1/s", passes),
        "ndcg_at_5": (run["ndcgs"][0], "1", len(run["ndcgs"])),
        "failed_ratio": (sum(not math.isfinite(x) for x in run["losses"]) / len(run["losses"]),
                         "1", len(run["losses"])),
    }


def per_layer(setup_metrics: dict, run: dict, tracer: Tracer, untraced: dict) -> dict:
    """Layer self times of the traced run, reconciled with its wall time."""
    window_start, window_end = run["train_window"]
    timed = [s for s in tracer.spans if window_start <= s.start and s.end <= window_end]
    draw = sum(s.duration for s in timed if s.name == "sampling.draw")
    refresh = sum(s.duration for s in timed if s.name == "sampling.refresh")
    epochs_total = float(np.sum(run["epoch_s"]))
    score = sum(s.duration for s in tracer.spans if s.name == "metrics.eval_score")
    evaluate = sum(s.duration for s in tracer.spans if s.name == "metrics.evaluate")
    passes = len(run["eval_pass_s"])
    layers_total = {
        "sampling.draw_s": draw - refresh,
        "sampling.refresh_s": refresh,
        "models.sgd_step_s": epochs_total - draw,
        "metrics.eval_score_s": score,
        "metrics.eval_rank_s": evaluate - score,
    }
    traced_wall = epochs_total + sum(run["eval_pass_s"])
    balance = reconcile(traced_wall, layers_total)
    layers = dict(layers_total)
    layers["metrics.eval_score_s"] = score / passes
    layers["metrics.eval_rank_s"] = (evaluate - score) / passes
    layers["sampling.refreshes"] = tracer.counters["sampling.refreshes"] - run["warmup_refreshes"]
    layers["data.generate_s"] = setup_metrics["data.generate_s"]
    layers["data.split_s"] = setup_metrics["data.split_s"]
    # Compared at the reference speed, so host drift between the two runs
    # does not read as tracing overhead.
    traced_unit = sum(run["epoch_ref_s"]) + median(run["eval_pass_ref_s"])
    untraced_unit = sum(untraced["epoch_ref_s"]) + median(untraced["eval_pass_ref_s"])
    layers["trace.overhead_pct"] = (traced_unit / untraced_unit - 1.0) * 100.0
    layers["trace.unattributed_share"] = balance["unattributed_share"]
    return {"layers": layers, "reconcile": balance}
