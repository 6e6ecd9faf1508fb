"""The two serve workloads: their inputs and the stack each one boots.

Every component is built with its default config; only addresses and
paths are set.  That keeps today's behaviour in the numbers, including
the two known effects the benchmark records rather than hides: the
breaker re-summing its whole window on every record, and cold users
charged as personalized-tier failures.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench.calibrate import Reference, at_reference_speed
from perfbench.schedule import Mix
from perfbench.stats import median

WIDE_USERS = 100_000
WIDE_ITEMS = 32_768
WIDE_DIM = 32
WIDE_POSITIVES = 5
NARROW_PROFILE = "ML1M"
NARROW_SCALE = 5.0
#: Epochs of the CLAPF+ model serve-mixed-rw fits during setup.
FIT_EPOCHS = 2
SETUP_REPEATS = 3
#: Prefix of the server process's protocol lines on stdout.
PROTOCOL_PREFIX = "PERFBENCH "


@dataclass(frozen=True)
class ServeSpec:
    name: str
    mix: Mix
    zipf_s: float
    #: Open-loop arrival rate: about a third of the closed-loop throughput
    #: measured on the same workload when the benchmark was defined.
    open_rate_per_s: float
    k: int = 10


SPECS = {
    "serve-zipf-wide": ServeSpec("serve-zipf-wide", Mix(warm=1.0), 1.1, open_rate_per_s=80.0),
    "serve-mixed-rw": ServeSpec(
        "serve-mixed-rw", Mix(warm=0.8, cold=0.1, feedback=0.1), 1.1, open_rate_per_s=120.0
    ),
}


def wide_inputs(seed: int):
    """Seeded factors (dim 32) and a warm training matrix, 10^5 x 32,768.

    Every user gets up to ``WIDE_POSITIVES`` distinct positives drawn by
    a Zipf(0.8) item popularity, so every user is warm.
    """
    from repro.data.interactions import InteractionMatrix
    from repro.mf.params import FactorParams

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x77DE]))
    params = FactorParams(
        user_factors=rng.normal(0.0, 0.3, size=(WIDE_USERS, WIDE_DIM)),
        item_factors=rng.normal(0.0, 0.3, size=(WIDE_ITEMS, WIDE_DIM)),
        item_bias=rng.normal(0.0, 0.1, size=WIDE_ITEMS),
    )
    popularity = np.arange(1, WIDE_ITEMS + 1, dtype=np.float64) ** -0.8
    cdf = np.cumsum(popularity) / popularity.sum()
    item_of_rank = rng.permutation(WIDE_ITEMS)
    draws = np.sort(
        item_of_rank[np.searchsorted(cdf, rng.random((WIDE_USERS, WIDE_POSITIVES)))], axis=1
    )
    keep = np.ones(draws.shape, dtype=bool)
    keep[:, 1:] = draws[:, 1:] != draws[:, :-1]
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    train = InteractionMatrix(WIDE_USERS, WIDE_ITEMS, indptr, draws[keep])
    return params, train


@dataclass
class Live:
    """One booted stack."""

    service: object
    edge_thread: object
    address: tuple[str, int]
    train: object
    model: object
    wal: object = None
    wal_dir: Path | None = None
    store_dir: Path | None = None

    def close(self) -> None:
        self.edge_thread.__exit__(None, None, None)
        self.service.close()
        if self.wal is not None:
            self.wal.close()


def build(workload: str, seed: int, directory: Path, on_model=None) -> tuple[Live, dict]:
    """Boot the workload's stack under ``directory``; returns it and its phase times.

    ``on_model`` runs on the model before the service sees it (the
    traced run wraps the model's calls there).
    """
    from repro import clapf_plus_map, make_profile_dataset, train_test_split
    from repro.edge import EdgeServer, EdgeServerThread
    from repro.mf.sgd import SGDConfig
    from repro.serving import RecommendationService
    from repro.store import ShardedFactorStore, StoreBackedModel, write_factor_store
    from repro.streaming import WriteAheadLog

    times = {}
    start = time.perf_counter()
    wal = wal_dir = store_dir = None
    if workload == "serve-zipf-wide":
        params, train = wide_inputs(seed)
        generated = time.perf_counter()
        times["generate_s"] = generated - start
        store_dir = directory / "store"
        write_factor_store(store_dir, params)
        store = ShardedFactorStore.open(store_dir)
        published = time.perf_counter()
        times["data.generate_s"] = 0.0
        times["data.split_s"] = 0.0
        times["store.publish_s"] = published - generated
        del params
        model = StoreBackedModel(store, train)
        if on_model is not None:
            on_model(model)
        service = RecommendationService.build(model, train, fit_knn=False)
        edge = EdgeServer(service)
    else:
        dataset = make_profile_dataset(NARROW_PROFILE, scale=NARROW_SCALE, seed=seed)
        generated = time.perf_counter()
        split = train_test_split(dataset, seed=seed)
        splitted = time.perf_counter()
        train = split.train
        model = clapf_plus_map(seed=seed, sgd=SGDConfig(n_epochs=FIT_EPOCHS)).fit(train)
        fitted = time.perf_counter()
        times["data.generate_s"] = generated - start
        times["data.split_s"] = splitted - generated
        times["store.publish_s"] = 0.0
        times["fit_s"] = fitted - splitted
        if on_model is not None:
            on_model(model)
        service = RecommendationService.build(model, train)
        wal_dir = directory / "wal"
        wal = WriteAheadLog(wal_dir)
        edge = EdgeServer(service, wal=wal)
    edge_thread = EdgeServerThread(edge)
    address = edge_thread.__enter__()
    times["setup_s"] = time.perf_counter() - start
    live = Live(service, edge_thread, address, train, model, wal, wal_dir, store_dir)
    return live, times


def build_repeatedly(workload: str, seed: int, directory: Path, on_model=None):
    """Set up ``SETUP_REPEATS`` times, keep the last stack, report medians.

    The reference kernel runs after each set-up; ``setup_s`` is reported
    at the reference speed and ``setup_raw_s`` as measured.
    """
    all_times = []
    live = None
    reference = Reference()
    for attempt in range(SETUP_REPEATS):
        if live is not None:
            live.close()
            live = None
            gc.collect()
        live, times = build(workload, seed, directory / f"setup{attempt}", on_model)
        all_times.append(times)
        reference.measure(5)
    medians = {key: median([t[key] for t in all_times]) for key in all_times[0]}
    medians["setup_raw_s"] = medians["setup_s"]
    medians["setup_s"] = median(at_reference_speed([t["setup_s"] for t in all_times],
                                                   reference.groups))
    medians["reference_s"] = reference.samples
    medians["reference_foreign_cpu"] = max(reference.foreign_cpu)
    return live, medians, all_times
