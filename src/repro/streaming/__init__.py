"""``repro.streaming`` — crash-safe streaming ingestion and auto-retrain.

The layer that turns the trained artifact into a system that survives
its own traffic:

* :mod:`~repro.streaming.wal` — a durable, segment-rotated,
  CRC-framed write-ahead log of interaction events; ``kill -9`` at any
  byte loses zero acknowledged records;
* :mod:`~repro.streaming.ingest` — the WAL consumer: ridge fold-in for
  new users, warm-start incremental SGD epochs, and a per-batch
  (checkpoint, interactions, offset) state triple whose replay after a
  crash reproduces bitwise-identical factors;
* :mod:`~repro.streaming.drift` — fallback-rate / score-shift /
  volume-anomaly monitoring over the live serving metrics;
* :mod:`~repro.streaming.retrain` — the single-flight, retry-with-
  backoff auto-retrain manager that promotes candidates only through
  the canary-gated hot reload;
* :mod:`~repro.streaming.decay` — opt-in exponential time-decay
  re-ranking of served recommendations.
"""

from repro.streaming.decay import TimeDecayReranker
from repro.streaming.drift import (
    DriftMonitor,
    DriftReport,
    DriftSignals,
    DriftThresholds,
)
from repro.streaming.ingest import (
    BatchReport,
    IngestConfig,
    StreamIngestor,
    append_all,
    synthesize_records,
)
from repro.streaming.retrain import (
    AutoRetrainManager,
    RetrainConfig,
    RetrainReport,
    publish_candidate,
)
from repro.streaming.wal import (
    AppendResult,
    RecoveryReport,
    WalConfig,
    WalPosition,
    WalRecord,
    WriteAheadLog,
    decode_frames,
    encode_frame,
)

__all__ = [
    "AppendResult",
    "AutoRetrainManager",
    "BatchReport",
    "DriftMonitor",
    "DriftReport",
    "DriftSignals",
    "DriftThresholds",
    "IngestConfig",
    "RecoveryReport",
    "RetrainConfig",
    "RetrainReport",
    "StreamIngestor",
    "TimeDecayReranker",
    "WalConfig",
    "WalPosition",
    "WalRecord",
    "WriteAheadLog",
    "append_all",
    "decode_frames",
    "encode_frame",
    "publish_candidate",
    "synthesize_records",
]
