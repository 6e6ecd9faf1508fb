"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``profiles``
    List the six dataset profiles with their paper-reported sizes.
``stats``
    Structural report (Gini, long-tail share, activity) of a profile or
    a data file.
``generate``
    Write a synthetic profile dataset to a ``user<TAB>item`` pair file.
``train``
    Split a dataset, train one method, print the Table-2 metrics, and
    optionally save the factor model.  Supports fault-tolerant runs:
    ``--checkpoint-dir``/``--checkpoint-every`` write atomic
    epoch-boundary checkpoints, ``--resume`` continues a killed run
    from the latest one, and ``--guard`` enables divergence recovery.
``reproduce``
    Regenerate one of the paper's tables or figures.
``compare``
    Train two methods on the same splits and run paired significance
    tests on their per-user metrics.
``sweep``
    Sensitivity sweep: vary one synthetic-dataset property and report
    each method's metric across the sweep.
``serve``
    Boot the resilient serving layer over a freshly trained (or saved)
    model and drive a synthetic request stream through the deadline /
    fallback-cascade / circuit-breaker path, optionally with injected
    faults (``--inject-nan``, ``--inject-latency``, ``--inject-fail``)
    and hot-reload polling (``--watch``).
``shadow-eval``
    Serve every test user through the full service and compare the
    served rankings with the raw model's — agreement@k, fallback rate,
    and latency percentiles.
``serve-http``
    Put the serving cascade on the network: the asyncio HTTP edge with
    the versioned ``/v1`` JSON API (request coalescing, deadline
    propagation, 429/503 load shedding, Prometheus metrics).
``loadtest``
    Zipf/diurnal/burst/replay traffic against a self-booted (or
    ``--target``) edge server, with optional mid-run chaos
    (``--chaos-at``), printing p50/p99, fallback rate, shed rate, and
    failed-request count.
``ingest``
    Consume the durable feedback WAL into a fitted model in crash-safe
    batches: ridge fold-in for new users, warm-start SGD epochs, and an
    atomically committed (checkpoint, interactions, offset) state
    triple.  ``--resume`` replays from the last committed batch and
    reproduces bitwise-identical factors (printed as
    ``factors crc32:``); ``--synthesize`` appends a deterministic
    record stream first (idempotent under re-delivery).
``retrain-daemon``
    The streaming loop as a drill (``repro.drills``): loadgen rounds
    against the edge with injected tier faults, feedback ingest, drift
    check, and retrain promoted only through the canary-gated reload.
``run``
    The supervised runtime as a disaster drill (``repro.drills``):
    component kills (``--kill``) and bit flips (``--corrupt-*-at``)
    under traffic, then snapshot → wipe → restore → bitwise replay;
    ``--expect-*`` flags turn each recovery property into an exit gate.
``snapshot``
    Create, list, or verify disaster-recovery bundles (manifest +
    per-file SHA-256) of a runtime data directory.
``restore``
    Rebuild the ``wal/`` and ``state/`` directories from a snapshot
    bundle — verify-everything-first, atomic per file, idempotent.
``scrub``
    One offline verify-and-repair pass over a runtime data directory
    against its ``mirror/`` replicas; ``--expect-clean`` exits non-zero
    on any unrepaired or deferred finding.
``lint``
    Run the reproducibility linter (REP001–REP012) over source trees;
    exits non-zero on any finding.  Same engine as
    ``python -m repro.analysis``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.data.loaders import load_pairs, save_pairs
from repro.data.profiles import DATASET_PROFILES, make_profile_dataset
from repro.data.split import train_test_split
from repro.metrics.evaluator import evaluate_model
from repro.metrics.scoring import CHUNK_SIZE, MIN_CHUNK_ROWS
from repro.sampling import SAMPLER_REGISTRY
from repro.utils.exceptions import ReproError
from repro.utils.tables import format_table


def _load_dataset(args):
    if args.data:
        return load_pairs(args.data)
    return make_profile_dataset(args.profile, scale=args.scale, seed=args.seed)


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", default="ML100K", choices=sorted(DATASET_PROFILES),
        help="synthetic dataset profile (ignored when --data is given)",
    )
    parser.add_argument("--data", type=Path, help="user<TAB>item pair file to load instead")
    parser.add_argument("--scale", type=float, default=1.0, help="profile size multiplier")
    parser.add_argument("--seed", type=int, default=0)


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out", type=Path, metavar="BASE",
        help="export run metrics to BASE.jsonl / BASE.prom at command end",
    )
    parser.add_argument(
        "--metrics-format", default="jsonl", choices=("jsonl", "prometheus", "both"),
        help="exporter format(s) for --metrics-out",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="also record span timing events in the metrics log",
    )


def _make_obs(args):
    """A live registry when any observability flag is set, else ``None``.

    ``None`` keeps every instrumented component on the no-op
    :class:`~repro.obs.registry.NullRegistry` default, so an
    uninstrumented run stays bitwise identical.
    """
    if args.metrics_out is None and not args.trace:
        return None
    from repro.obs import MetricsRegistry
    from repro.utils.atomicio import set_metrics_registry

    registry = MetricsRegistry(trace=args.trace)
    # Durability-failure counters (fsync) have no obs plumbing of their
    # own — point the module-level hook at this run's registry.
    set_metrics_registry(registry)
    return registry


def _finish_obs(args, obs) -> None:
    """Print the summary table and export files for an instrumented run."""
    if obs is None:
        return
    from repro.obs import export_metrics, summary_table
    from repro.utils.atomicio import set_metrics_registry

    set_metrics_registry(None)

    print(summary_table(obs))
    if args.metrics_out is not None:
        for path in export_metrics(obs, args.metrics_out, fmt=args.metrics_format):
            print(f"wrote metrics to {path}")


def cmd_profiles(_args) -> int:
    rows = [
        [name, p.paper_users, p.paper_items, f"{p.paper_density:.2%}", p.n_users, p.n_items]
        for name, p in DATASET_PROFILES.items()
    ]
    print(format_table(
        ["Profile", "paper n", "paper m", "paper density", "sim n", "sim m"],
        rows,
        title="Dataset profiles (paper sizes vs synthetic stand-in sizes)",
    ))
    return 0


def cmd_stats(args) -> int:
    from repro.analysis.stats import dataset_report

    dataset = _load_dataset(args)
    report = dataset_report(dataset.interactions)
    print(f"dataset: {dataset.name}")
    for key, value in report.items():
        print(f"  {key}: {value}")
    return 0


def cmd_generate(args) -> int:
    dataset = _load_dataset(args)
    save_pairs(dataset, args.out)
    print(f"wrote {dataset.n_interactions} pairs ({dataset.n_users} users x "
          f"{dataset.n_items} items) to {args.out}")
    return 0


def cmd_train(args) -> int:
    from repro.experiments.config import ExperimentScale
    from repro.experiments.registry import make_model
    from repro.resilience import CheckpointConfig, GuardConfig, latest_checkpoint

    dataset = _load_dataset(args)
    split = train_test_split(dataset, seed=args.seed)
    scale = ExperimentScale(n_epochs=args.epochs, repeats=1, seed=args.seed)
    obs = _make_obs(args)
    model = make_model(
        args.method, scale=scale, dataset=args.profile, seed=args.seed, sampler=args.sampler
    )
    if obs is not None:
        model.obs = obs

    supports_resilience = hasattr(model, "checkpoint")
    resume_from = None
    if args.checkpoint_dir is not None:
        if not supports_resilience:
            print(f"note: {model.name} does not support checkpointing; ignoring --checkpoint-dir")
        else:
            model.checkpoint = CheckpointConfig(
                args.checkpoint_dir, every=args.checkpoint_every
            )
            if args.resume:
                resume_from = latest_checkpoint(args.checkpoint_dir)
                if resume_from is None:
                    print(f"no checkpoint under {args.checkpoint_dir}; starting fresh")
    elif args.resume:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.guard != "off":
        if not supports_resilience:
            print(f"note: {model.name} does not support divergence guards; ignoring --guard")
        else:
            model.guard = GuardConfig(policy=args.guard)

    print(f"training {model.name} on {dataset.name} "
          f"({split.train.n_interactions} train pairs, {args.epochs} epochs)...")
    if resume_from is not None:
        print(f"resuming from {resume_from}")
        model.fit(split.train, split.validation, resume_from=resume_from)
    else:
        model.fit(split.train, split.validation)
    result = evaluate_model(
        model, split, ks=(5,), chunk_size=args.chunk_size, n_jobs=args.n_jobs, obs=obs
    )
    for key in ("precision@5", "recall@5", "f1@5", "1-call@5", "ndcg@5", "map", "mrr", "auc"):
        print(f"  {key:12s} {result[key]:.4f}")
    if args.save:
        from repro.persistence import save_factors

        params = getattr(model, "params_", None)
        if params is None:
            print(f"note: {model.name} is not a factor model; nothing to save")
        else:
            save_factors(args.save, params, metadata={"method": args.method, "dataset": dataset.name})
            print(f"saved factors to {args.save}")
    _finish_obs(args, obs)
    return 0


def cmd_reproduce(args) -> int:
    from repro.experiments.config import ExperimentScale
    from repro.experiments.figures import (
        figure2_topk_curves,
        figure3_tradeoff_sweep,
        figure4_convergence,
    )
    from repro.experiments.tables import (
        render_table1,
        table1_dataset_statistics,
        table2_main_comparison,
    )

    scale = ExperimentScale.paper() if args.full else ExperimentScale.quick()
    if args.target == "table1":
        print(render_table1(table1_dataset_statistics(scale=scale)))
    elif args.target == "table2":
        block = table2_main_comparison(args.profile, scale=scale, max_users=400, tune_tradeoffs=True)
        print(block.render())
    elif args.target == "fig2":
        print(figure2_topk_curves(args.profile, scale=scale, max_users=400).render())
    elif args.target == "fig3":
        print(figure3_tradeoff_sweep(args.profile, scale=scale, max_users=400).render())
    elif args.target == "fig4":
        print(figure4_convergence(args.profile, scale=scale, max_users=200).render())
    return 0


def cmd_compare(args) -> int:
    from repro.analysis.significance import compare_models, holm_bonferroni
    from repro.experiments.config import ExperimentScale
    from repro.experiments.registry import make_model

    dataset = _load_dataset(args)
    split = train_test_split(dataset, seed=args.seed)
    scale = ExperimentScale(n_epochs=args.epochs, repeats=1, seed=args.seed)
    print(f"training {args.method_a} and {args.method_b} on {dataset.name}...")
    model_a = make_model(args.method_a, scale=scale, dataset=args.profile, seed=args.seed)
    model_b = make_model(args.method_b, scale=scale, dataset=args.profile, seed=args.seed)
    model_a.fit(split.train, split.validation)
    model_b.fit(split.train, split.validation)
    comparisons = compare_models(model_a, model_b, split)
    print(f"\nA = {args.method_a}, B = {args.method_b}")
    for comparison in comparisons.values():
        print("  " + comparison.summary())
    corrected = holm_bonferroni({m: c.t_pvalue for m, c in comparisons.items()})
    significant = [metric for metric, keep in corrected.items() if keep]
    print(f"\nsignificant after Holm-Bonferroni (alpha=0.05): {significant or 'none'}")
    return 0


def _fit_serving_model(args, split, obs=None):
    """The model behind ``serve``/``shadow-eval``: trained or loaded."""
    from repro.drills import ModelSpec

    if args.model:
        from repro.persistence import load_factors
        from repro.serving import LoadedFactorModel

        params, metadata = load_factors(args.model)
        model = LoadedFactorModel(params, split.train, version=str(args.model))
        print(f"loaded factors from {args.model} ({metadata.get('method', 'unknown method')})")
        return model
    print(f"training {args.method} ({args.epochs} epochs)...")
    return ModelSpec(args.method, args.epochs, args.profile, args.seed).fit(split, obs=obs)


def _serving_config(args):
    from repro.drills import ServingConfig
    from repro.serving import BreakerConfig, ServiceConfig

    breaker = BreakerConfig(
        window_seconds=args.breaker_window,
        min_calls=args.breaker_min_calls,
        cooldown_seconds=args.breaker_cooldown,
        latency_threshold_ms=args.deadline_ms,
    )
    return ServingConfig(
        service=ServiceConfig(default_deadline_ms=args.deadline_ms, breaker=breaker),
        inline=args.executor == "inline",
        fit_knn=not args.no_knn,
    )


def _parse_faults(args):
    """``--inject-*`` flags -> the armed fault per tier."""
    from repro.resilience.chaos import ServiceFaultInjector, TierFault

    chaos = ServiceFaultInjector()
    for tier in args.inject_nan or ():
        chaos.faults.setdefault(tier, TierFault()).nan_scores = True
    for tier in args.inject_fail or ():
        chaos.faults.setdefault(tier, TierFault()).exception = True
    for spec in args.inject_latency or ():
        tier, _, ms = spec.partition(":")
        if not ms:
            raise SystemExit(f"--inject-latency expects TIER:MS, got {spec!r}")
        chaos.faults.setdefault(tier, TierFault()).latency_ms = float(ms)
    return chaos


def _request_stream(split, n_requests: int, k: int, cold_fraction: float, seed: int):
    """Synthetic traffic: test users plus a slice of unseen users."""
    import numpy as np

    from repro.serving import RecommendationRequest
    from repro.utils.rng import as_generator

    rng = as_generator(seed)
    test_users = np.flatnonzero(split.test.user_counts() > 0)
    if len(test_users) == 0:
        test_users = np.arange(split.train.n_users)
    for t in range(n_requests):
        if rng.random() < cold_fraction:
            # A user the model never saw, carrying a session history.
            history = rng.choice(
                split.train.n_items, size=min(5, split.train.n_items), replace=False
            )
            yield RecommendationRequest(
                user=split.train.n_users + t, k=k, history=tuple(int(i) for i in history)
            )
        else:
            yield RecommendationRequest(user=int(rng.choice(test_users)), k=k)


def _print_serving_summary(service, responses) -> None:
    import numpy as np

    latencies = np.asarray([r.latency_ms for r in responses])
    degraded = sum(r.degraded for r in responses)
    by_tier: dict[str, int] = {}
    for response in responses:
        by_tier[response.served_by] = by_tier.get(response.served_by, 0) + 1
    snapshot = service.snapshot()
    rows = [
        [
            name,
            by_tier.get(name, 0),
            snapshot["breakers"].get(name, {}).get("state", "-"),
            snapshot["breakers"].get(name, {}).get("times_opened", "-"),
            snapshot["tiers"][name]["timeouts"],
            snapshot["tiers"][name]["failures"],
        ]
        for name in snapshot["tiers"]
    ]
    print(format_table(
        ["tier", "served", "breaker", "opened", "timeouts", "failures"],
        rows,
        title="Serving summary",
    ))
    print(f"requests: {len(responses)}  degraded: {degraded} "
          f"({degraded / max(1, len(responses)):.1%})  "
          f"fallback rate: {service.fallback_rate():.1%}")
    print(f"latency ms: p50={np.percentile(latencies, 50):.2f} "
          f"p99={np.percentile(latencies, 99):.2f} max={latencies.max():.2f}")
    print(f"executor overruns: {snapshot['executor_overruns']}")


def cmd_serve(args) -> int:
    dataset = _load_dataset(args)
    split = train_test_split(dataset, seed=args.seed)
    obs = _make_obs(args)
    model = _fit_serving_model(args, split, obs=obs)
    chaos = _parse_faults(args)
    with _serving_config(args).build(model, split.train, chaos=chaos, obs=obs) as service:
        known = {tier.name for tier in service.tiers}
        unknown = set(chaos.faults) - known
        if unknown:
            print(f"error: unknown tier(s) in fault spec: {sorted(unknown)} "
                  f"(tiers: {sorted(known)})", file=sys.stderr)
            return 2
        reloader = None
        if args.watch is not None:
            from repro.serving import ModelReloader

            reloader = ModelReloader(
                service.slot, args.watch, split.train, split.validation, obs=obs
            )
            print(f"watching {args.watch} for model candidates "
                  f"(poll every {args.poll_every} requests)")
        if chaos.faults:
            print(f"armed faults: { {t: vars(f) for t, f in chaos.faults.items()} }")

        responses = []
        for t, request in enumerate(
            _request_stream(split, args.requests, args.k, args.cold_fraction, args.seed)
        ):
            if args.clear_faults_after is not None and t == args.clear_faults_after:
                chaos.clear()
                print(f"[request {t}] faults cleared; tiers should recover")
            response = service.recommend(request)
            responses.append(response)
            if len(response.items) == 0:
                print(f"error: empty ranking for user {request.user}", file=sys.stderr)
                return 1
            if reloader is not None and (t + 1) % args.poll_every == 0:
                result = reloader.poll()
                if result.status != "unchanged":
                    print(f"[request {t}] reload {result.status}: {result.reason}")

        _print_serving_summary(service, responses)
        if args.expect_degraded:
            not_degraded = [r for r in responses if not r.degraded]
            if not_degraded:
                print(f"error: {len(not_degraded)} responses were NOT degraded "
                      "despite --expect-degraded", file=sys.stderr)
                return 1
            print("all responses degraded with provenance, none failed (as expected)")
    _finish_obs(args, obs)
    return 0


def cmd_shadow_eval(args) -> int:
    import numpy as np

    dataset = _load_dataset(args)
    split = train_test_split(dataset, seed=args.seed)
    obs = _make_obs(args)
    model = _fit_serving_model(args, split, obs=obs)
    with _serving_config(args).build(model, split.train, obs=obs) as service:
        test_users = np.flatnonzero(split.test.user_counts() > 0)
        overlaps, identical = [], 0
        responses = []
        for user in test_users:
            response = service.recommend(int(user), k=args.k)
            responses.append(response)
            reference = model.recommend(int(user), k=args.k)
            overlap = len(set(response.items.tolist()) & set(reference.tolist()))
            overlaps.append(overlap / max(1, len(reference)))
            identical += int(np.array_equal(response.items, reference))
        print(f"shadow-eval over {len(test_users)} test users (k={args.k})")
        print(f"  exact-match rate:  {identical / max(1, len(test_users)):.1%}")
        print(f"  mean overlap@{args.k}:   {float(np.mean(overlaps)):.1%}")
        _print_serving_summary(service, responses)
    _finish_obs(args, obs)
    return 0


def _edge_config_from_args(args):
    from repro.edge import CoalesceConfig, EdgeConfig

    return EdgeConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        max_connections=args.max_connections,
        max_deadline_ms=args.max_deadline_ms,
        default_deadline_ms=args.deadline_ms,
        workers=args.http_workers,
        coalesce=CoalesceConfig(max_batch=args.coalesce_batch),
    )


def _build_edge_server(args, service, obs=None):
    from repro.edge import EdgeServer

    return EdgeServer(service, config=_edge_config_from_args(args), obs=obs)


def cmd_serve_http(args) -> int:
    import asyncio

    dataset = _load_dataset(args)
    split = train_test_split(dataset, seed=args.seed)
    obs = _make_obs(args)
    model = _fit_serving_model(args, split, obs=obs)
    chaos = _parse_faults(args)
    with _serving_config(args).build(model, split.train, chaos=chaos, obs=obs) as service:
        server = _build_edge_server(args, service, obs=obs)

        async def run() -> None:
            host, port = await server.start()
            print(f"edge listening on http://{host}:{port} "
                  f"(routes: /v1/recommend, /v1/recommend/batch, /v1/health, /v1/metrics)")
            if args.duration_s is not None:
                try:
                    await asyncio.wait_for(server.serve_forever(), args.duration_s)
                except asyncio.TimeoutError:
                    print(f"duration {args.duration_s}s elapsed; draining")
                    await server.stop()
            else:
                await server.serve_forever()

        try:
            asyncio.run(run())
        except KeyboardInterrupt:
            print("interrupted; draining")
    _finish_obs(args, obs)
    return 0


def _parse_chaos_events(specs):
    """``AT_S:ACTION[:TIER[:MS]]`` specs -> ChaosEvents (see loadtest -h)."""
    from repro.edge import ChaosEvent
    from repro.serving.tiers import PERSONALIZED

    events = []
    for spec in specs or ():
        parts = spec.split(":")
        if len(parts) < 2:
            raise SystemExit(
                f"--chaos-at expects AT_S:ACTION[:TIER[:MS]], got {spec!r}"
            )
        at_s, action = float(parts[0]), parts[1]
        tier = parts[2] if len(parts) > 2 else PERSONALIZED
        latency_ms = float(parts[3]) if len(parts) > 3 else 0.0
        events.append(ChaosEvent(at_s=at_s, action=action, tier=tier, latency_ms=latency_ms))
    return events


def cmd_loadtest(args) -> int:
    import contextlib

    from repro.edge import (
        EdgeServerThread,
        WorkloadConfig,
        generate_schedule,
        load_trace,
        run_load_sync,
        save_trace,
    )
    from repro.resilience.chaos import ServiceFaultInjector
    from repro.utils.atomicio import write_json_atomic

    chaos_events = _parse_chaos_events(args.chaos_at)
    with contextlib.ExitStack() as stack:
        if args.target:
            host, _, port = args.target.partition(":")
            address = (host or "127.0.0.1", int(port))
            chaos = None
            if chaos_events:
                raise SystemExit(
                    "--chaos-at needs the self-booted server (omit --target): "
                    "faults are injected in-process"
                )
            n_users = args.n_users
        else:
            dataset = _load_dataset(args)
            split = train_test_split(dataset, seed=args.seed)
            obs = _make_obs(args)
            model = _fit_serving_model(args, split, obs=obs)
            chaos = ServiceFaultInjector()
            service = stack.enter_context(
                _serving_config(args).build(model, split.train, chaos=chaos, obs=obs)
            )
            server = _build_edge_server(args, service, obs=obs)
            address = stack.enter_context(EdgeServerThread(server))
            print(f"self-booted edge on http://{address[0]}:{address[1]}")
            n_users = args.n_users or split.train.n_users

        if args.replay:
            schedule = load_trace(args.replay)
            mode = "replay"
            print(f"replaying {len(schedule)} requests from {args.replay}")
        else:
            if not n_users:
                raise SystemExit("--n-users is required with --target")
            workload = WorkloadConfig(
                n_users=n_users,
                requests=args.requests,
                rate_rps=args.rate,
                mode=args.mode,
                zipf_s=args.zipf_s,
                k=args.k,
                deadline_ms=args.request_deadline_ms,
                diurnal_amplitude=args.diurnal_amplitude,
                diurnal_period_s=args.diurnal_period_s,
                burst_every_s=args.burst_every_s,
                burst_duration_s=args.burst_duration_s,
                burst_multiplier=args.burst_multiplier,
                seed=args.seed,
            )
            schedule = generate_schedule(workload)
            mode = args.mode
        if args.save_trace:
            print(f"wrote trace to {save_trace(args.save_trace, schedule)}")

        report = run_load_sync(
            address[0],
            address[1],
            schedule,
            concurrency=args.concurrency,
            mode=mode,
            chaos=chaos,
            chaos_events=chaos_events,
            use_get_every=args.get_every,
        )

    summary = report.to_json_dict()
    print(json.dumps(summary, indent=2, sort_keys=True))
    if args.json_out:
        write_json_atomic(args.json_out, summary)
        print(f"wrote report to {args.json_out}")
    if args.expect_zero_failed and report.failed:
        print(f"error: {report.failed} failed requests "
              "(transport errors or non-200/non-shed statuses)", file=sys.stderr)
        return 1
    return 0


def cmd_ingest(args) -> int:
    from repro.drills import ModelSpec, ingest
    from repro.streaming import IngestConfig, WalConfig, synthesize_records

    dataset = _load_dataset(args)
    split = train_test_split(dataset, seed=args.seed)
    obs = _make_obs(args)
    # The base fit is deterministic for a given seed, so a killed run
    # and its --resume replacement start from identical parameters.
    print(f"training base {args.method} ({args.epochs} epochs)...")
    model = ModelSpec(args.method, args.epochs, args.profile, args.seed).fit(split)
    records = synthesize_records(
        args.synthesize, n_users=split.train.n_users, n_items=split.train.n_items, seed=args.seed
    ) if args.synthesize else ()
    ingest(
        model, args.wal_dir, args.state_dir,
        IngestConfig(batch_records=args.batch_records, epochs_per_batch=args.epochs_per_batch),
        resume=args.resume, records=records, wal_config=WalConfig(fsync=args.fsync),
        max_batches=args.max_batches, obs=obs,
    )
    _finish_obs(args, obs)
    return 0


def _drill_config(cls, args, **values):
    """``cls`` from the flags ``retrain-daemon`` and ``run`` share, then
    ``values``, then the flag named after each remaining field."""
    from dataclasses import fields

    from repro.drills import ModelSpec
    from repro.streaming import DriftThresholds, IngestConfig, RetrainConfig

    values = dict(
        model=ModelSpec(args.method, args.epochs, args.profile, args.seed),
        serving=_serving_config(args),
        edge=_edge_config_from_args(args),
        ingest=IngestConfig(
            batch_records=args.batch_records, epochs_per_batch=args.epochs_per_batch
        ),
        retrain=RetrainConfig(max_retries=args.max_retries),
        drift=DriftThresholds(min_requests=args.drift_min_requests),
        rate_rps=args.rate,
        **values,
    )
    return cls(**{
        f.name: values[f.name] if f.name in values else getattr(args, f.name)
        for f in fields(cls)
    })


def _finish_drill(args, obs, report) -> int:
    """Write the drill report, export metrics, and apply its gates."""
    from repro.utils.atomicio import write_json_atomic

    if args.json_out:
        write_json_atomic(args.json_out, report.to_json_dict())
        print(f"wrote report to {args.json_out}")
    _finish_obs(args, obs)
    failures = report.failures()
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _retrain_config(args):
    from repro.drills import RetrainDrillConfig

    return _drill_config(RetrainDrillConfig, args, faults=_parse_faults(args).faults)


def cmd_retrain_daemon(args) -> int:
    from repro.drills import run_retrain_drill

    split = train_test_split(_load_dataset(args), seed=args.seed)
    obs = _make_obs(args)
    report = run_retrain_drill(_retrain_config(args), split, obs=obs)
    print(f"served version: {report.slot_version}  retrains: {report.retrain_statuses}  "
          f"failed requests: {report.total_failed}")
    return _finish_drill(args, obs, report)


def _parse_kills(specs, default_round: int) -> list[tuple[str, int]]:
    from repro.runtime import COMPONENTS

    kills: list[tuple[str, int]] = []
    for spec in specs or ():
        name, _, at = spec.partition(":")
        if name not in COMPONENTS:
            raise SystemExit(
                f"--kill expects COMPONENT[:ROUND] with COMPONENT in "
                f"{'/'.join(COMPONENTS)}, got {spec!r}"
            )
        kills.append((name, int(at) if at else default_round))
    return kills


def _disaster_config(args):
    from repro.drills import DisasterDrillConfig
    from repro.runtime import COMPONENTS, SupervisorConfig

    kills = _parse_kills(args.kill, default_round=1)
    if args.kill_all_at is not None:
        kills.extend((name, args.kill_all_at) for name in COMPONENTS)
    return _drill_config(
        DisasterDrillConfig, args,
        supervisor=SupervisorConfig(
            backoff_base_s=args.backoff_base_s, backoff_max_s=args.backoff_max_s
        ),
        kills=tuple(kills),
        restore=not args.no_restore,
    )


def cmd_run(args) -> int:
    from repro.drills import run_disaster_drill

    split = train_test_split(_load_dataset(args), seed=args.seed)
    obs = _make_obs(args)
    report = run_disaster_drill(_disaster_config(args), split, obs=obs)
    return _finish_drill(args, obs, report)


def cmd_snapshot(args) -> int:
    from repro.runtime import (
        DataDir,
        create_snapshot,
        list_snapshots,
        load_manifest,
        verify_snapshot,
    )

    layout = DataDir(args.data_dir)
    if args.list:
        ids = list_snapshots(layout.snapshots_dir)
        if not ids:
            print("no snapshots")
            return 0
        for snapshot_id in ids:
            manifest = load_manifest(layout.snapshots_dir, snapshot_id)
            total = sum(entry["size"] for entry in manifest.files.values())
            print(f"{snapshot_id}  {len(manifest.files)} files  {total} bytes")
        return 0
    if args.verify:
        problems = verify_snapshot(layout.snapshots_dir, args.verify)
        if problems:
            for problem in problems:
                print(f"error: {problem}", file=sys.stderr)
            return 1
        print(f"snapshot {args.verify} verified clean")
        return 0
    obs = _make_obs(args)
    manifest = create_snapshot(
        layout.snapshots_dir, layout.snapshot_sources(), tag=args.tag, obs=obs
    )
    total = sum(entry["size"] for entry in manifest.files.values())
    print(f"created {manifest.snapshot_id}: {len(manifest.files)} files, "
          f"{total} bytes under {layout.snapshots_dir / manifest.snapshot_id}")
    _finish_obs(args, obs)
    return 0


def cmd_restore(args) -> int:
    from repro.runtime import DataDir, latest_snapshot, restore_snapshot

    layout = DataDir(args.data_dir)
    snapshot_id = args.snapshot
    if snapshot_id == "latest":
        snapshot_id = latest_snapshot(layout.snapshots_dir)
        if snapshot_id is None:
            print(f"error: no snapshots under {layout.snapshots_dir}",
                  file=sys.stderr)
            return 1
    obs = _make_obs(args)
    report = restore_snapshot(
        layout.snapshots_dir, snapshot_id, layout.snapshot_sources(),
        wipe=not args.no_wipe, obs=obs,
    )
    print(f"restore {snapshot_id}: {report.files_restored} files, "
          f"{report.bytes_restored} bytes, {report.files_removed} stale removed")
    for problem in report.problems:
        print(f"error: {problem}", file=sys.stderr)
    _finish_obs(args, obs)
    return 0 if report.ok else 1


def cmd_scrub(args) -> int:
    from repro.runtime import DataDir, Scrubber
    from repro.utils.atomicio import write_json_atomic

    obs = _make_obs(args)
    report = Scrubber(DataDir(args.data_dir).replica_pairs(), obs=obs).scrub_once()
    print(f"checked {report.files_checked} files: {report.mirrored} mirrored, "
          f"{report.updated} updated, {report.repairs} repaired "
          f"({report.repaired_primary} primary / {report.repaired_mirror} mirror), "
          f"{report.torn_tails} torn tails, {len(report.unrepaired)} unrepaired")
    for finding in report.findings:
        print(f"  [{finding.pair}] {finding.file}: {finding.problem} "
              f"-> {finding.action}")
    if args.json_out:
        write_json_atomic(args.json_out, report.to_json_dict())
        print(f"wrote report to {args.json_out}")
    _finish_obs(args, obs)
    if args.expect_clean and not report.clean:
        print("error: scrub pass was not clean", file=sys.stderr)
        return 1
    return 0


def cmd_store(args) -> int:
    from repro.store import ShardedFactorStore, write_factor_store
    from repro.store.shards import MANIFEST_NAME

    if args.store_command == "build":
        from repro.persistence import load_factors

        params, metadata = load_factors(args.factors)
        manifest_path = write_factor_store(
            args.directory,
            params,
            dtype=args.dtype,
            shard_size=args.shard_size,
            metadata={**metadata, "source": str(args.factors)},
        )
        store = ShardedFactorStore.open(args.directory)
        print(f"built {args.directory}: {store.n_users} users x "
              f"{store.n_items} items (d={store.n_factors}, {store.dtype.name}) "
              f"in {store.n_shards} shards of {store.shard_size}")
        print(f"manifest: {manifest_path}")
        return 0

    if args.store_command == "verify":
        store = ShardedFactorStore.open(args.directory, verify="all")
        if store.quarantined_:
            for index, reason in sorted(store.quarantined_.items()):
                print(f"error: shard {index} quarantined: {reason}",
                      file=sys.stderr)
            return 1
        print(f"{args.directory}: all {store.n_shards} shards + item files "
              "verified clean")
        return 0

    # info: manifest summary without the hash pass
    store = ShardedFactorStore.open(args.directory, verify="manifest")
    manifest = store.manifest
    print(f"store:      {args.directory}")
    print(f"users:      {store.n_users} in {store.n_shards} shards "
          f"of {store.shard_size}")
    print(f"items:      {store.n_items}  factors: {store.n_factors}  "
          f"dtype: {store.dtype.name}")
    print(f"user bytes: {store.total_user_bytes()} dense "
          f"({store.mapped_bytes()} currently mapped)")
    if manifest.get("metadata"):
        print(f"metadata:   {manifest['metadata']}")
    print(f"manifest:   {args.directory / MANIFEST_NAME}")
    return 0


def cmd_lint(args) -> int:
    from repro.analysis.lint.cli import run_lint

    return run_lint(args)


def cmd_sweep(args) -> int:
    from repro.experiments.config import ExperimentScale
    from repro.experiments.registry import make_model
    from repro.experiments.sensitivity import sweep_dataset_property

    scale = ExperimentScale(n_epochs=args.epochs, repeats=1, seed=args.seed)
    factories = {
        method: (
            lambda seed, method=method: make_model(method, scale=scale, seed=seed)
        )
        for method in args.methods
    }
    obs = _make_obs(args)
    result = sweep_dataset_property(
        args.property, args.values, factories, seed=args.seed, metric=args.metric,
        obs=obs,
    )
    print(result.render())
    _finish_obs(args, obs)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("profiles", help="list dataset profiles").set_defaults(func=cmd_profiles)

    stats = subparsers.add_parser("stats", help="dataset structural report")
    _add_dataset_arguments(stats)
    stats.set_defaults(func=cmd_stats)

    generate = subparsers.add_parser("generate", help="write a synthetic dataset to a pair file")
    _add_dataset_arguments(generate)
    generate.add_argument("--out", type=Path, required=True)
    generate.set_defaults(func=cmd_generate)

    train = subparsers.add_parser("train", help="train and evaluate one method")
    _add_dataset_arguments(train)
    train.add_argument("--method", default="CLAPF-MAP")
    train.add_argument("--epochs", type=int, default=60)
    train.add_argument(
        "--sampler",
        default=None,
        choices=sorted(SAMPLER_REGISTRY),
        help="tuple sampler override for the SGD models (default: the method's own)",
    )
    train.add_argument(
        "--chunk-size", type=int, default=CHUNK_SIZE,
        help="evaluation rows in flight across all workers (default: %(default)s)",
    )
    train.add_argument(
        "--n-jobs", type=int, default=None,
        help="evaluation worker threads, each on one BLAS thread, at most --chunk-size "
        f"(default and -1: the usable cores, at most one per {MIN_CHUNK_ROWS} rows of "
        "--chunk-size; 1 = serial)",
    )
    train.add_argument("--save", type=Path, help="save the trained factor model (.npz)")
    train.add_argument(
        "--checkpoint-dir", type=Path,
        help="write atomic epoch-boundary training checkpoints to this directory",
    )
    train.add_argument(
        "--checkpoint-every", type=int, default=1,
        help="epochs between checkpoints (default: every epoch)",
    )
    train.add_argument(
        "--resume", action="store_true",
        help="resume from the latest checkpoint under --checkpoint-dir "
             "(starts fresh when none exists)",
    )
    train.add_argument(
        "--guard", default="off", choices=("off", "rollback", "abort"),
        help="divergence guard policy: rollback = LR backoff to the last good "
             "epoch on NaN/exploding loss, abort = raise immediately",
    )
    _add_obs_arguments(train)
    train.set_defaults(func=cmd_train)

    reproduce = subparsers.add_parser("reproduce", help="regenerate a paper table/figure")
    reproduce.add_argument("target", choices=("table1", "table2", "fig2", "fig3", "fig4"))
    reproduce.add_argument(
        "--profile", default="ML100K", choices=sorted(DATASET_PROFILES)
    )
    reproduce.add_argument("--full", action="store_true", help="paper scale instead of quick")
    reproduce.set_defaults(func=cmd_reproduce)

    compare = subparsers.add_parser("compare", help="paired significance test of two methods")
    _add_dataset_arguments(compare)
    compare.add_argument("--method-a", default="CLAPF-MAP")
    compare.add_argument("--method-b", default="BPR")
    compare.add_argument("--epochs", type=int, default=60)
    compare.set_defaults(func=cmd_compare)

    def _add_serving_arguments(parser: argparse.ArgumentParser, saved_model=True) -> None:
        _add_dataset_arguments(parser)
        parser.add_argument("--method", default="BPR", help="method to train for serving")
        parser.add_argument("--epochs", type=int, default=5)
        if saved_model:
            parser.add_argument("--model", type=Path,
                                help="serve saved factors (.npz) instead of training")
        parser.add_argument("--k", type=int, default=5, help="items per response")
        parser.add_argument("--deadline-ms", type=float, default=100.0,
                            help="per-request time budget")
        parser.add_argument("--executor", default="threaded", choices=("threaded", "inline"),
                            help="threaded = hard cutoffs on worker threads; inline = post-hoc")
        parser.add_argument("--no-knn", action="store_true", help="skip the ItemKNN tier")
        parser.add_argument("--breaker-window", type=float, default=5.0,
                            help="breaker rolling window (seconds)")
        parser.add_argument("--breaker-min-calls", type=int, default=5)
        parser.add_argument("--breaker-cooldown", type=float, default=1.0,
                            help="seconds a tripped breaker stays open")
        _add_obs_arguments(parser)

    def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--inject-nan", action="append", metavar="TIER",
                            help="poison TIER's scores with NaN (repeatable)")
        parser.add_argument("--inject-latency", action="append", metavar="TIER:MS",
                            help="delay TIER by MS milliseconds per call (repeatable)")
        parser.add_argument("--inject-fail", action="append", metavar="TIER",
                            help="make TIER raise on every call (repeatable)")

    serve = subparsers.add_parser(
        "serve", help="drive the resilient serving layer with synthetic traffic"
    )
    _add_serving_arguments(serve)
    _add_fault_arguments(serve)
    serve.add_argument("--requests", type=int, default=200, help="requests to serve")
    serve.add_argument("--cold-fraction", type=float, default=0.1,
                       help="fraction of requests from unseen users with session histories")
    serve.add_argument("--clear-faults-after", type=int, metavar="N",
                       help="disarm all faults after N requests (recovery demo)")
    serve.add_argument("--expect-degraded", action="store_true",
                       help="exit nonzero unless every response is served degraded")
    serve.add_argument("--watch", type=Path,
                       help="poll this factors file for hot model reload")
    serve.add_argument("--poll-every", type=int, default=20,
                       help="requests between reload polls")
    serve.set_defaults(func=cmd_serve)

    shadow = subparsers.add_parser(
        "shadow-eval", help="compare served rankings against the raw model"
    )
    _add_serving_arguments(shadow)
    shadow.set_defaults(func=cmd_shadow_eval)

    def _add_edge_arguments(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--host", default="127.0.0.1")
        parser.add_argument("--port", type=int, default=0,
                            help="0 picks an ephemeral port (printed at boot)")
        parser.add_argument("--max-inflight", type=int, default=64,
                            help="concurrent requests before 429 shedding")
        parser.add_argument("--max-connections", type=int, default=128,
                            help="open sockets before 503 shedding")
        parser.add_argument("--max-deadline-ms", type=float, default=2000.0,
                            help="cap on client-requested deadlines")
        parser.add_argument("--http-workers", type=int, default=8,
                            help="scoring worker threads behind the event loop")
        parser.add_argument("--coalesce-batch", type=int, default=16,
                            help="most single requests one micro-batch carries")

    serve_http = subparsers.add_parser(
        "serve-http", help="serve the cascade over the versioned /v1 HTTP API"
    )
    _add_serving_arguments(serve_http)
    _add_edge_arguments(serve_http)
    _add_fault_arguments(serve_http)
    serve_http.add_argument("--duration-s", type=float, default=None,
                            help="stop after this many seconds (default: run until ^C)")
    serve_http.set_defaults(func=cmd_serve_http)

    loadtest = subparsers.add_parser(
        "loadtest", help="Zipf/burst traffic (and chaos drills) against the HTTP edge"
    )
    _add_serving_arguments(loadtest)
    _add_edge_arguments(loadtest)
    loadtest.add_argument("--target", metavar="HOST:PORT",
                          help="hit a running server instead of self-booting one")
    loadtest.add_argument("--n-users", type=int, default=None,
                          help="user-id space for generated traffic "
                               "(default: the split's user count; required with --target)")
    loadtest.add_argument("--mode", default="zipf",
                          choices=("zipf", "diurnal", "burst"),
                          help="arrival process (replay via --replay)")
    loadtest.add_argument("--requests", type=int, default=500)
    loadtest.add_argument("--rate", type=float, default=200.0, help="base arrivals/s")
    loadtest.add_argument("--zipf-s", type=float, default=1.1,
                          help="user-popularity Zipf exponent")
    loadtest.add_argument("--concurrency", type=int, default=8,
                          help="virtual clients (keep-alive connections)")
    loadtest.add_argument("--request-deadline-ms", type=float, default=None,
                          help="deadline_ms attached to each generated request")
    loadtest.add_argument("--diurnal-amplitude", type=float, default=0.6)
    loadtest.add_argument("--diurnal-period-s", type=float, default=60.0)
    loadtest.add_argument("--burst-every-s", type=float, default=10.0)
    loadtest.add_argument("--burst-duration-s", type=float, default=2.0)
    loadtest.add_argument("--burst-multiplier", type=float, default=5.0)
    loadtest.add_argument("--get-every", type=int, default=0, metavar="N",
                          help="send every Nth request as GET /v1/recommend (0 = never)")
    loadtest.add_argument("--replay", type=Path, metavar="TRACE",
                          help="replay a saved trace instead of generating arrivals")
    loadtest.add_argument("--save-trace", type=Path, metavar="TRACE",
                          help="save the generated schedule for later --replay")
    loadtest.add_argument("--chaos-at", action="append", metavar="AT_S:ACTION[:TIER[:MS]]",
                          help="fault transition applied before the first arrival scheduled "
                               "at or after AT_S (schedule time, not wall time); ACTION is "
                               "latency|exception|nan|clear (self-booted server only, "
                               "repeatable)")
    loadtest.add_argument("--json-out", type=Path, help="write the report JSON here")
    loadtest.add_argument("--expect-zero-failed", action="store_true",
                          help="exit nonzero if any request failed (shed excluded)")
    loadtest.set_defaults(func=cmd_loadtest)

    ingest = subparsers.add_parser(
        "ingest", help="consume the feedback WAL into the model (crash-safe, resumable)"
    )
    _add_dataset_arguments(ingest)
    ingest.add_argument("--method", default="BPR", help="base model to train and fold into")
    ingest.add_argument("--epochs", type=int, default=5, help="base-model training epochs")
    ingest.add_argument("--wal-dir", type=Path, required=True,
                        help="write-ahead log directory (created if absent)")
    ingest.add_argument("--state-dir", type=Path, required=True,
                        help="per-batch (checkpoint, interactions, offset) state directory")
    ingest.add_argument("--synthesize", type=int, default=0, metavar="N",
                        help="append N deterministic synthetic records before consuming "
                             "(idempotent: re-appending the same stream dedupes)")
    ingest.add_argument("--batch-records", type=int, default=64,
                        help="WAL records per committed ingest batch")
    ingest.add_argument("--epochs-per-batch", type=int, default=1,
                        help="warm-start SGD epochs after each batch (0 = fold-in only)")
    ingest.add_argument("--max-batches", type=int, default=None,
                        help="stop after this many batches (default: drain the WAL)")
    ingest.add_argument("--resume", action="store_true",
                        help="resume from the committed state triple under --state-dir "
                             "(starts fresh when none exists)")
    ingest.add_argument("--fsync", default="always", choices=("always", "batch", "never"),
                        help="WAL durability policy (always = fsync per append)")
    _add_obs_arguments(ingest)
    ingest.set_defaults(func=cmd_ingest)

    def _add_drill_arguments(parser: argparse.ArgumentParser, *, batch_records: int) -> None:
        """The flags ``retrain-daemon`` and ``run`` share (``_drill_config``)."""
        _add_serving_arguments(parser, saved_model=False)
        _add_edge_arguments(parser)
        parser.add_argument("--rounds", type=int, default=3,
                            help="loadgen -> feedback -> ingest cycles")
        parser.add_argument("--requests-per-round", type=int, default=60)
        parser.add_argument("--rate", type=float, default=200.0, help="arrivals/s per round")
        parser.add_argument("--concurrency", type=int, default=4)
        parser.add_argument("--synthesize", type=int, default=40, metavar="N",
                            help="synthetic feedback records appended per round")
        parser.add_argument("--batch-records", type=int, default=batch_records)
        parser.add_argument("--epochs-per-batch", type=int, default=1)
        parser.add_argument("--drift-min-requests", type=int, default=20,
                            help="requests since rebase before the fallback signal counts")
        parser.add_argument("--max-retries", type=int, default=2,
                            help="trainer retries (exponential backoff) per drift trigger")
        parser.add_argument("--json-out", type=Path, help="write the drill report here")
        parser.add_argument("--expect-zero-failed", action="store_true",
                            help="exit nonzero if any request failed (shed excluded)")

    daemon = subparsers.add_parser(
        "retrain-daemon",
        help="drift-triggered auto-retrain drill: loadgen + ingest + canary-gated reload",
    )
    _add_drill_arguments(daemon, batch_records=64)
    daemon.add_argument("--wal-dir", type=Path, required=True)
    daemon.add_argument("--state-dir", type=Path, required=True,
                        help="ingest state; candidate factors land at STATE_DIR/candidate.npz")
    _add_fault_arguments(daemon)
    daemon.add_argument("--fault-at-round", type=int, default=1,
                        help="round index at which the --inject-* faults arm")
    daemon.add_argument("--clear-at-round", type=int, default=2,
                        help="round index at which the faults clear")
    daemon.add_argument("--decay-half-life-s", type=float, default=None,
                        help="enable time-decay re-ranking with this half-life")
    daemon.add_argument("--expect-retrain", action="store_true",
                        help="exit nonzero unless a retrain reached the canary gate")
    daemon.set_defaults(func=cmd_retrain_daemon)

    run = subparsers.add_parser(
        "run",
        help="the supervised self-healing runtime as a disaster drill "
             "(kills, disk faults, snapshot/restore)",
    )
    _add_drill_arguments(run, batch_records=16)
    run.add_argument("--data-dir", type=Path, required=True,
                     help="root of all durable state "
                          "(wal/, state/, mirror/, snapshots/)")
    run.add_argument("--wal-segment-bytes", type=int, default=4096,
                     help="small segments force rotation so the scrubber's "
                          "WAL-splice path is exercised")
    run.add_argument("--kill", action="append", metavar="COMPONENT[:ROUND]",
                     help="simulate a SIGKILL of a supervised component at the "
                          "start of ROUND (default round 1; repeatable)")
    run.add_argument("--kill-all-at", type=int, metavar="ROUND",
                     help="kill every supervised component once at ROUND")
    run.add_argument("--corrupt-state-at", type=int, default=None, metavar="ROUND",
                     help="flip a bit in the newest state checkpoint at ROUND "
                          "(the scrubber must repair it from the mirror)")
    run.add_argument("--corrupt-wal-at", type=int, default=None, metavar="ROUND",
                     help="flip a bit in a rotated WAL segment at ROUND")
    run.add_argument("--retry-attempts", type=int, default=4,
                     help="client transport-retry budget per request "
                          "(rides out edge restarts)")
    run.add_argument("--retry-backoff-s", type=float, default=0.25)
    run.add_argument("--backoff-base-s", type=float, default=0.05,
                     help="supervisor restart backoff base")
    run.add_argument("--backoff-max-s", type=float, default=0.5)
    run.add_argument("--recovery-timeout-s", type=float, default=30.0,
                     help="budget for each restart / repair / drain wait")
    run.add_argument("--snapshot-tag", default="drill")
    run.add_argument("--no-restore", action="store_true",
                     help="skip the final snapshot -> wipe -> restore roundtrip")
    run.add_argument("--expect-recovery", action="store_true",
                     help="exit nonzero unless every armed kill fired and the "
                          "component returned to running")
    run.add_argument("--expect-all-repaired", action="store_true",
                     help="exit nonzero unless the scrubber repaired every "
                          "injected corruption")
    run.add_argument("--expect-restore-identical", action="store_true",
                     help="exit nonzero unless the restored state replays to "
                          "bitwise-identical factors")
    run.set_defaults(func=cmd_run)

    snapshot = subparsers.add_parser(
        "snapshot", help="create / list / verify disaster-recovery bundles"
    )
    snapshot.add_argument("--data-dir", type=Path, required=True)
    snapshot.add_argument("--tag", default="snap")
    snapshot.add_argument("--list", action="store_true",
                          help="list existing snapshots instead of creating one")
    snapshot.add_argument("--verify", metavar="ID",
                          help="verify a bundle's hashes instead of creating one")
    _add_obs_arguments(snapshot)
    snapshot.set_defaults(func=cmd_snapshot)

    restore = subparsers.add_parser(
        "restore", help="rebuild wal/ and state/ from a snapshot bundle"
    )
    restore.add_argument("--data-dir", type=Path, required=True)
    restore.add_argument("--snapshot", default="latest", metavar="ID",
                         help="bundle id (default: the newest)")
    restore.add_argument("--no-wipe", action="store_true",
                         help="keep files not present in the bundle")
    _add_obs_arguments(restore)
    restore.set_defaults(func=cmd_restore)

    scrub = subparsers.add_parser(
        "scrub", help="one offline verify-and-repair pass against mirror/"
    )
    scrub.add_argument("--data-dir", type=Path, required=True)
    scrub.add_argument("--json-out", type=Path)
    scrub.add_argument("--expect-clean", action="store_true",
                       help="exit nonzero on any unrepaired or deferred finding")
    _add_obs_arguments(scrub)
    scrub.set_defaults(func=cmd_scrub)

    store = subparsers.add_parser(
        "store", help="build / verify / inspect a sharded mmap factor store"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_build = store_sub.add_parser(
        "build", help="shard a saved factors file into a store directory"
    )
    store_build.add_argument("factors", type=Path,
                             help="factors file written by `train --save`")
    store_build.add_argument("directory", type=Path, help="store directory")
    store_build.add_argument("--dtype", default="float32",
                             choices=("float32", "float64"),
                             help="float32 = serving policy, float64 = "
                                  "bitwise paper protocol")
    store_build.add_argument("--shard-size", type=int, default=65536,
                             help="user rows per shard file")
    store_build.set_defaults(func=cmd_store)
    store_verify = store_sub.add_parser(
        "verify", help="hash-check every shard + item file against the manifest"
    )
    store_verify.add_argument("directory", type=Path)
    store_verify.set_defaults(func=cmd_store)
    store_info = store_sub.add_parser(
        "info", help="manifest summary (no hash pass)"
    )
    store_info.add_argument("directory", type=Path)
    store_info.set_defaults(func=cmd_store)

    from repro.analysis.lint.cli import add_lint_arguments

    lint = subparsers.add_parser(
        "lint", help="run the reproducibility linter (REP rules) over source trees"
    )
    add_lint_arguments(lint)
    lint.set_defaults(func=cmd_lint)

    sweep = subparsers.add_parser("sweep", help="dataset-property sensitivity sweep")
    sweep.add_argument("--property", default="signal")
    sweep.add_argument("--values", type=float, nargs="+", default=[2.0, 6.0, 10.0])
    sweep.add_argument("--methods", nargs="+", default=["PopRank", "BPR", "CLAPF-MAP"])
    sweep.add_argument("--metric", default="ndcg@5")
    sweep.add_argument("--epochs", type=int, default=40)
    sweep.add_argument("--seed", type=int, default=0)
    _add_obs_arguments(sweep)
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
