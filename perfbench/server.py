"""The program process of a serve workload: set up, serve, report.

Started by ``perfbench/serve.py`` once per run.  It sets the stack up
several times (the median is ``setup_s``), keeps the last one serving,
and speaks a line protocol on stdout: one ``PERFBENCH {json}`` line when
ready, another after ``stop`` arrives on stdin and the stack is down.
With ``--trace 1`` it wraps the public calls of every serving layer
before setup and writes the spans to the work directory at the end.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from perfbench.services import PROTOCOL_PREFIX  # noqa: E402


def install_trace(tracer) -> None:
    """Wrap the serving layers' public calls (class and module level)."""
    import contextvars

    from repro.edge import coalesce, http, schema
    from repro.metrics import scoring
    from repro.mf import fold_in
    from repro.serving import breaker, deadline, service, tiers
    from repro.streaming import wal
    from perfbench.tracing import CURRENT, Span

    root: contextvars.ContextVar = contextvars.ContextVar("perfbench_root", default=None)
    request_ids: dict[int, int] = {}

    # The request root spans the server's handling of one HTTP request:
    # from dispatch to the encoded response (encode runs right after
    # dispatch returns, in the same connection task).
    original_dispatch = http.EdgeServer._dispatch

    async def dispatch(self, request):
        span_id = next(tracer.ids)
        rid = int(request.headers.get("x-bench-id", "-1"))
        CURRENT.set(span_id)
        root.set((span_id, rid, time.perf_counter()))
        return await original_dispatch(self, request)

    http.EdgeServer._dispatch = dispatch

    original_encode = http.HttpResponse.encode

    def encode(self, *, keep_alive):
        with tracer.span("edge.serialize"):
            data = original_encode(self, keep_alive=keep_alive)
        current = root.get()
        if current is not None:
            span_id, rid, start = current
            tracer.spans.append(Span(span_id, "request", start, time.perf_counter(), None, rid, False))
            root.set(None)
            CURRENT.set(None)
        return data

    http.HttpResponse.encode = encode

    original_submit = coalesce.MicroBatcher.submit

    async def submit(self, request):
        current = root.get()
        rid = current[1] if current is not None else None
        request_ids[id(request)] = rid
        try:
            with tracer.span("edge.submit", rid):
                return await original_submit(self, request)
        finally:
            request_ids.pop(id(request), None)

    coalesce.MicroBatcher.submit = submit

    original_call = deadline.ThreadedExecutor.call

    def call(self, fn, budget_ms):
        with tracer.span("serving.executor") as call_id:

            def run():
                token = CURRENT.set(call_id)
                try:
                    with tracer.span("serving.tier_fn"):
                        return fn()
                finally:
                    CURRENT.reset(token)

            return original_call(self, run, budget_ms)

    deadline.ThreadedExecutor.call = call

    tracer.patch(http.HttpRequest, "json", "edge.parse")
    tracer.patch(schema.RecommendRequestV1, "from_json_dict", "edge.parse")
    tracer.patch(schema.FeedbackRequestV1, "from_json_dict", "edge.parse")
    tracer.patch(schema.RecommendResponseV1, "to_json_dict", "edge.serialize")
    tracer.patch(schema.FeedbackResponseV1, "to_json_dict", "edge.serialize")
    tracer.patch(
        service.RecommendationService, "recommend_batch", "serving.recommend_batch",
        link=lambda self, requests, **_: tuple(request_ids.get(id(r)) for r in requests),
    )
    tracer.patch(service.RecommendationService, "recommend", "serving.recommend")
    for method in ("allow", "record_success", "record_failure"):
        tracer.patch(breaker.CircuitBreaker, method, "serving.breaker")
    tracer.count(breaker.CircuitBreaker, "_transition", "serving.breaker_transitions")
    for tier in (tiers.PersonalizedTier, tiers.FoldInTier, tiers.ItemKNNTier, tiers.PopularityTier):
        tracer.patch(tier, "serve", f"serving.tier.{tier.name}", link=lambda *_: 1)
    tracer.patch(
        tiers.PersonalizedTier, "serve_batch", f"serving.tier.{tiers.PERSONALIZED}",
        link=lambda self, requests: len(requests),
    )
    tracer.patch(scoring, "topk_from_matrix", "scoring.topk")
    tracer.patch(fold_in, "fold_in_user_ridge", "fold_in.solve")
    tracer.patch(fold_in.FoldInResult, "predict", "scoring.predict")
    tracer.patch(
        wal.WriteAheadLog, "append", "wal.append",
        link=lambda self, record: int(record.key.rsplit("-", 1)[1]),
    )


def trace_model(tracer, model) -> None:
    """Wrap one served model's scoring (and its store's reads)."""
    tracer.patch(model, "predict_batch", "scoring.predict")
    store = getattr(model, "store", None)
    if store is not None:
        tracer.patch(store, "user_rows", "store.read")


def emit(payload: dict) -> None:
    sys.__stdout__.write(PROTOCOL_PREFIX + json.dumps(payload) + "\n")
    sys.__stdout__.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    # Everything but the protocol lines goes to stderr.
    sys.stdout = sys.stderr

    from perfbench import services
    from perfbench.tracing import Tracer

    tracer = None
    on_model = None
    if args.trace:
        tracer = Tracer()
        install_trace(tracer)
        on_model = lambda model: trace_model(tracer, model)  # noqa: E731
    live, setup, all_setups = services.build_repeatedly(
        args.workload, args.seed, args.workdir, on_model
    )
    for stale in sorted(args.workdir.glob("setup*"))[:-1]:
        shutil.rmtree(stale, ignore_errors=True)
    transitions_before = tracer.counters["serving.breaker_transitions"] if tracer else 0

    reference = args.workdir / "reference.npz"
    arrays = {"train_indptr": live.train.indptr, "train_indices": live.train.indices}
    params = getattr(live.model, "params_", None)
    if live.store_dir is None and params is not None:
        arrays.update(
            user_factors=params.user_factors, item_factors=params.item_factors,
            item_bias=params.item_bias,
        )
    np.savez(reference, **arrays)
    emit({
        "ready": True,
        "host": live.address[0],
        "port": live.address[1],
        "setup": setup,
        "setups": all_setups,
        "reference": str(reference),
        "store_dir": str(live.store_dir) if live.store_dir else None,
        "wal_dir": str(live.wal_dir) if live.wal_dir else None,
    })

    for line in sys.stdin:
        if line.strip() == "stop":
            break

    service = live.service
    breakers = {name: b.snapshot() for name, b in service.breakers.items()}
    breakers.update({b.name: b.snapshot() for b in service.shard_breakers.values()})
    tiers = {name: stats.to_dict() for name, stats in service.stats.items()}
    live.close()
    result = {
        "done": True,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "breakers": breakers,
        "tiers": tiers,
        "executor_overruns": service.executor.overruns_,
    }
    if tracer is not None:
        spans_path = args.workdir / "spans.json"
        tracer.dump(spans_path)
        result["spans"] = str(spans_path)
        result["breaker_transitions"] = (
            tracer.counters["serving.breaker_transitions"] - transitions_before
        )
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
