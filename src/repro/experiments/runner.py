"""Fit / evaluate / time loops aggregating over repeated splits.

Table 2 reports each metric as ``mean ± std`` over five independent
split copies plus the training time; :func:`run_method` reproduces one
such cell row and :func:`run_methods` a whole table block.

:func:`run_methods` is fault-tolerant: each method runs in isolation
(a crash in one never discards the others' finished results), failures
are retried with exponential backoff, and an optional
:class:`~repro.resilience.journal.ExperimentJournal` records each
completed method so an interrupted sweep resumes past finished cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.data.dataset import DatasetSplit
from repro.metrics.evaluator import Evaluator
from repro.metrics.scoring import CHUNK_SIZE
from repro.models.base import Recommender
from repro.resilience.retry import retry_call
from repro.utils.clock import Clock, Timer, as_clock
from repro.utils.exceptions import ConfigError, ExperimentError

ModelFactory = Callable[[int], Recommender]


@dataclass(frozen=True)
class MethodResult:
    """Aggregated results of one method over repeated splits.

    Attributes
    ----------
    name:
        Method display name.
    means / stds:
        Per-metric mean and standard deviation over repeats (empty when
        the method timed out).
    train_seconds:
        Mean wall-clock training time per repeat.
    timed_out:
        True when the run exceeded its time budget — rendered as the
        paper's ``-`` cells ("do not produce results within 200 hours").
    failed:
        True when the method raised on every retry under isolated
        execution (:func:`run_methods` with ``isolate=True``); ``error``
        holds the stringified cause.
    """

    name: str
    means: dict[str, float]
    stds: dict[str, float]
    train_seconds: float
    n_repeats: int
    per_repeat: list[dict[str, float]] = field(default_factory=list, repr=False)
    timed_out: bool = False
    failed: bool = False
    error: str | None = None

    @classmethod
    def failure(cls, name: str, error: BaseException | str) -> "MethodResult":
        """A placeholder result for a method that crashed."""
        return cls(
            name=name, means={}, stds={}, train_seconds=0.0, n_repeats=0,
            failed=True, error=str(error),
        )

    def cell(self, key: str) -> str:
        """Render one metric as the paper's ``mean±std`` cell (or ``-``)."""
        if self.timed_out:
            return "-"
        if self.failed:
            return "ERR"
        return f"{self.means[key]:.3f}±{self.stds[key]:.3f}"


def run_method(
    factory: ModelFactory | Recommender,
    splits: Sequence[DatasetSplit],
    *,
    name: str | None = None,
    ks: Sequence[int] = (5,),
    max_users: int | None = None,
    time_budget_seconds: float | None = None,
    chunk_size: int = CHUNK_SIZE,
    n_jobs: int | None = None,
    obs=None,
    clock: Clock | None = None,
) -> MethodResult:
    """Fit and evaluate one method on every split, aggregating metrics.

    ``factory(repeat_index)`` must build a *fresh* model per repeat (use
    the index to vary the seed).  Alternatively, pass an already-fitted
    :class:`~repro.models.base.Recommender` — it is evaluated as-is on
    every split (the serving-path case: score a frozen model against
    several test folds) with a training time of zero.  With
    ``time_budget_seconds``, a method whose cumulative training time
    exceeds the budget is reported as timed out (the paper's ``-`` rows
    for CLiMF/RandomWalk on the large datasets); the check runs between
    repeats, so the budget bounds when no further repeat is *started*,
    not a hard kill.  ``chunk_size`` and ``n_jobs`` feed the batched
    evaluator (by default the usable cores, at most one per
    ``scoring.MIN_CHUNK_ROWS`` rows, with ``chunk_size`` rows in flight
    across them); ``obs`` (an optional
    :class:`~repro.obs.registry.MetricsRegistry`) is shared with every
    evaluator and records per-method fit/evaluate events.  ``clock`` (an
    injectable :class:`~repro.utils.clock.Clock`) drives the epoch/time
    accounting — pass a :class:`~repro.utils.clock.FakeClock` to make
    ``train_seconds`` and ``time_budget_seconds`` deterministic in tests.
    """
    from repro.obs.registry import as_registry

    obs = as_registry(obs)
    clock = as_clock(clock)
    if not splits:
        raise ConfigError("at least one split is required")
    fitted: Recommender | None = None
    if isinstance(factory, Recommender):
        fitted = factory
        if not fitted.is_fitted:
            raise ConfigError(
                f"{fitted.name} is not fitted; pass a factory(repeat) -> Recommender "
                "for models that still need training"
            )
    per_repeat: list[dict[str, float]] = []
    times: list[float] = []
    display_name = name
    for repeat, split in enumerate(splits):
        if fitted is not None:
            model = fitted
            times.append(0.0)
        else:
            model = factory(repeat)
            if not isinstance(model, Recommender):
                raise TypeError(
                    f"factory(repeat={repeat}) returned {type(model).__name__}, "
                    "not a Recommender; bare score callables are no longer "
                    "accepted — return a model exposing fit/predict_batch"
                )
            with Timer(clock) as fit_timer:
                model.fit(split.train, split.validation)
            times.append(fit_timer.elapsed)
            obs.histogram("experiment_fit_seconds", method=model.name).observe(times[-1])
        if display_name is None:
            display_name = model.name
        obs.event(
            "method_repeat", method=display_name, repeat=repeat,
            train_seconds=times[-1],
        )
        if time_budget_seconds is not None and sum(times) > time_budget_seconds:
            return MethodResult(
                name=display_name,
                means={},
                stds={},
                train_seconds=float(np.mean(times)),
                n_repeats=repeat + 1,
                timed_out=True,
            )
        evaluator = Evaluator(
            split, ks=ks, max_users=max_users, seed=repeat, chunk_size=chunk_size,
            n_jobs=n_jobs, obs=obs,
        )
        per_repeat.append(evaluator.evaluate(model).metrics)

    keys = per_repeat[0].keys()
    means = {key: float(np.mean([r[key] for r in per_repeat])) for key in keys}
    stds = {key: float(np.std([r[key] for r in per_repeat])) for key in keys}
    return MethodResult(
        name=display_name,
        means=means,
        stds=stds,
        train_seconds=float(np.mean(times)),
        n_repeats=len(splits),
        per_repeat=per_repeat,
    )


def run_methods(
    factories: dict[str, ModelFactory | Recommender],
    splits: Sequence[DatasetSplit],
    *,
    ks: Sequence[int] = (5,),
    max_users: int | None = None,
    chunk_size: int = CHUNK_SIZE,
    n_jobs: int | None = None,
    isolate: bool = True,
    retries: int = 0,
    retry_base_delay: float = 0.5,
    journal=None,
    obs=None,
    clock: Clock | None = None,
) -> dict[str, MethodResult]:
    """Run every named method (factory or fitted model) over the same splits.

    Fault tolerance:

    * ``isolate`` (default) wraps each method in its own try/except — a
      crashing method yields a ``MethodResult(failed=True)`` placeholder
      and the remaining methods still run.  With ``isolate=False`` the
      first failure raises :class:`ExperimentError` (carrying the method
      name and original cause).
    * ``retries`` re-runs a crashing method with exponential backoff
      (``retry_base_delay * 2**attempt`` seconds) before declaring it
      failed.
    * ``journal`` — an :class:`~repro.resilience.journal.ExperimentJournal`
      (or a directory path for one).  Completed methods are recorded as
      they finish and skipped (their journaled result loaded) on re-run,
      so a killed sweep resumes where it stopped.  Failed methods are
      *not* journaled and re-run on resume.
    """
    from repro.persistence import method_result_from_dict, method_result_to_dict
    from repro.resilience.journal import ExperimentJournal

    if journal is not None and not isinstance(journal, ExperimentJournal):
        journal = ExperimentJournal(journal)

    results: dict[str, MethodResult] = {}
    for name, factory in factories.items():
        if journal is not None and journal.completed(name):
            results[name] = method_result_from_dict(journal.get(name))
            continue
        try:
            result = retry_call(
                lambda factory=factory, name=name: run_method(
                    factory,
                    splits,
                    name=name,
                    ks=ks,
                    max_users=max_users,
                    chunk_size=chunk_size,
                    n_jobs=n_jobs,
                    obs=obs,
                    clock=clock,
                ),
                retries=retries,
                base_delay=retry_base_delay,
            )
        except Exception as error:
            if not isolate:
                raise ExperimentError(
                    f"method {name!r} failed: {error}", method=name, cause=error
                )
            results[name] = MethodResult.failure(name, error)
            continue
        results[name] = result
        if journal is not None:
            journal.record(name, method_result_to_dict(result))
    return results
