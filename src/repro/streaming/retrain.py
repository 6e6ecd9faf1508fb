"""Drift-triggered auto-retrain: bounded, backed-off, canary-gated.

:class:`AutoRetrainManager` sits between the :class:`~repro.streaming.
drift.DriftMonitor` and the :class:`~repro.serving.reload.ModelReloader`
and enforces the failure discipline a fire-and-forget cron job lacks:

* **single-flight** — a non-blocking lock guarantees at most one
  retrain at a time; concurrent triggers return ``skipped`` instead of
  stacking training runs;
* **bounded retries with exponential backoff** — the trainer callable
  runs through :func:`~repro.resilience.retry.retry_call` with an
  injectable sleep, so a flaky trainer gets ``max_retries`` more
  chances and a dead one fails after a bounded delay;
* **canary-gated promotion** — the trainer's only contract is to write
  candidate factors to ``reloader.watch_path`` (atomically, via
  :func:`publish_candidate`); promotion happens *only*
  through :meth:`ModelReloader.poll`, which validates checksums and
  runs the held-out NDCG canary.  A rejected or failed candidate leaves
  the last-good model serving, untouched.

The manager never raises on the trigger path (``SimulatedKill`` and
other ``BaseException`` escapees excepted): every outcome is a typed
:class:`RetrainReport`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.obs import MetricsRegistry, as_registry
from repro.persistence import save_factors
from repro.resilience.retry import retry_call
from repro.serving.reload import ModelReloader, ReloadResult
from repro.streaming.ingest import StreamIngestor
from repro.utils.clock import Clock, as_clock
from repro.utils.exceptions import ConfigError

#: Terminal states of one trigger.
STATUS_PROMOTED = "promoted"
STATUS_REJECTED = "rejected"
STATUS_FAILED = "failed"
STATUS_SKIPPED = "skipped"


def publish_candidate(ingestor: StreamIngestor, reloader: ModelReloader) -> Path:
    """Write the ingest factors as the reloader's next candidate.

    The candidate covers the ingestor's *grown* matrix, so the reloader's
    shape check is retargeted first; the tag names the last batch and
    ``method`` the model (what ``repro serve --model`` prints).
    """
    reloader.train = ingestor.train
    return save_factors(
        reloader.watch_path,
        ingestor.model.params_,
        metadata={
            "version_tag": f"stream-{ingestor.batch_index_:05d}",
            "method": ingestor.model.name,
        },
    )


@dataclass(frozen=True)
class RetrainConfig:
    """Retry budget and backoff schedule for the trainer callable."""

    max_retries: int = 2
    base_delay_s: float = 0.5
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay_s < 0:
            raise ConfigError(f"base_delay_s must be >= 0, got {self.base_delay_s}")
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )


@dataclass(frozen=True)
class RetrainReport:
    """Outcome of one retrain trigger."""

    status: str
    reason: str
    attempts: int = 0
    reload: ReloadResult | None = None

    @property
    def promoted(self) -> bool:
        return self.status == STATUS_PROMOTED

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "reason": self.reason,
            "attempts": self.attempts,
            "reload_status": None if self.reload is None else self.reload.status,
        }


class AutoRetrainManager:
    """Runs a trainer callable and promotes its output through the canary.

    Parameters
    ----------
    trainer:
        Zero-argument callable that trains a candidate and writes its
        factors to ``reloader.watch_path`` (use :func:`publish_candidate`
        or :func:`repro.persistence.save_factors` with a distinct
        ``version_tag`` per run — the reloader keys change detection on
        the file fingerprint and labels the slot with the tag).  May
        raise; raising is what the retry/backoff machinery is for.
    reloader:
        The canary gate.  The manager never swaps the slot itself.
    clock:
        Injectable clock whose ``sleep`` paces the backoff; tests pass
        a :class:`~repro.utils.clock.FakeClock` and assert the schedule
        without waiting.
    """

    def __init__(
        self,
        trainer: Callable[[], object],
        reloader: ModelReloader,
        *,
        config: RetrainConfig | None = None,
        clock: Clock | None = None,
        obs: MetricsRegistry | None = None,
    ):
        self.trainer = trainer
        self.reloader = reloader
        self.config = config or RetrainConfig()
        self.clock = as_clock(clock)
        self.obs = as_registry(obs)
        self._lock = threading.Lock()
        self.runs_ = 0
        self.history_: list[RetrainReport] = []

    def _finish(self, report: RetrainReport) -> RetrainReport:
        """Record a terminal report (caller holds the single-flight lock)."""
        self.history_.append(report)
        self.runs_ += 1
        self.obs.counter("retrain_runs_total", status=report.status).inc()
        self.obs.event(
            "retrain",
            status=report.status,
            reason=report.reason,
            attempts=report.attempts,
        )
        return report

    def maybe_retrain(self, drift=None) -> RetrainReport:
        """Trigger a retrain (when ``drift`` is absent or says drifted).

        Returns ``skipped`` without training when the drift report is
        clean or another retrain holds the single-flight lock.
        """
        if drift is not None and not drift.drifted:
            self.obs.counter("retrain_runs_total", status=STATUS_SKIPPED).inc()
            return RetrainReport(STATUS_SKIPPED, "no drift detected")
        if not self._lock.acquire(blocking=False):
            self.obs.counter("retrain_runs_total", status=STATUS_SKIPPED).inc()
            return RetrainReport(STATUS_SKIPPED, "retrain already in flight")
        try:
            return self._run_locked(drift)
        finally:
            self._lock.release()

    def _run_locked(self, drift) -> RetrainReport:
        attempts = {"n": 1}

        def on_retry(attempt: int, error: Exception) -> None:
            attempts["n"] = attempt + 2
            self.obs.counter("retrain_retries_total").inc()
            self.obs.event(
                "retrain_retry", attempt=attempt, error=str(error) or type(error).__name__
            )

        try:
            retry_call(
                self.trainer,
                retries=self.config.max_retries,
                base_delay=self.config.base_delay_s,
                factor=self.config.backoff_factor,
                on_retry=on_retry,
                sleep=self.clock.sleep,
            )
        except Exception as error:  # noqa: BLE001 - last-good keeps serving
            return self._finish(
                RetrainReport(
                    STATUS_FAILED,
                    f"trainer failed after {attempts['n']} attempts: "
                    f"{str(error) or type(error).__name__}",
                    attempts=attempts["n"],
                )
            )

        result = self.reloader.poll()
        if result.accepted:
            return self._finish(
                RetrainReport(
                    STATUS_PROMOTED,
                    f"candidate {result.version} promoted through the canary gate",
                    attempts=attempts["n"],
                    reload=result,
                )
            )
        if result.status == "rejected":
            return self._finish(
                RetrainReport(
                    STATUS_REJECTED,
                    f"canary gate rejected the candidate: {result.reason}",
                    attempts=attempts["n"],
                    reload=result,
                )
            )
        return self._finish(
            RetrainReport(
                STATUS_FAILED,
                f"trainer produced no new candidate ({result.reason})",
                attempts=attempts["n"],
                reload=result,
            )
        )
