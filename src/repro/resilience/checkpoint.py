"""Epoch-boundary training checkpoints with atomic persistence.

A :class:`TrainingCheckpoint` captures *everything* the SGD loop needs
to continue as if it had never stopped: the factor parameters, the RNG
bit-generator state, the sampler step counter, the effective learning
rate (which may differ from the configured one after guard backoffs),
the loss/validation histories, the early-stopping bookkeeping, and
the adaptive samplers' ranking-cache state (the item factors each cache
last ranked and the steps since).  Restoring it and resuming therefore
reproduces the uninterrupted run *bitwise*, with uniform and adaptive
(DSS, AoBPR, ABS) samplers alike.  Checkpoints written before the cache
state was recorded still load; their caches rebuild from the restored
parameters, which is deterministic but may differ from the mid-run
refresh timing.

Files are single ``.npz`` archives written through the atomic writers
in :mod:`repro.persistence`, with a CRC-32 checksum of all arrays in
the JSON metadata blob — :func:`load_checkpoint` refuses to load a
corrupt or truncated file with :class:`CheckpointError`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.mf.params import FactorParams
from repro.utils.atomicio import array_checksum, write_npz_atomic
from repro.utils.exceptions import CheckpointError, ConfigError

_CHECKPOINT_VERSION = 1
_CHECKPOINT_PATTERN = re.compile(r"^ckpt_epoch_(\d+)\.npz$")
_SAMPLER_PREFIX = "sampler."


@dataclass
class TrainingCheckpoint:
    """Full training state at an epoch boundary.

    ``epoch`` is the index of the *last completed* epoch; resuming
    continues from ``epoch + 1``.  ``sampler_state`` is the sampler's
    :meth:`~repro.sampling.base.Sampler.state_dict` without ``"step"``;
    its array values are stored as ``sampler.<key>`` archive members.
    """

    epoch: int
    params: FactorParams
    rng_state: dict
    sampler_step: int = 0
    learning_rate: float | None = None
    loss_history: list[float] = field(default_factory=list)
    validation_history: list[float] = field(default_factory=list)
    best_epoch: int | None = None
    best_score: float | None = None
    stale_evals: int = 0
    best_params: FactorParams | None = None
    extra: dict = field(default_factory=dict)
    sampler_state: dict = field(default_factory=dict)


def save_checkpoint(
    path: str | Path, checkpoint: TrainingCheckpoint, *, durable: bool = False
) -> Path:
    """Atomically write ``checkpoint`` to ``path`` (``.npz``).

    ``durable=True`` fsyncs content and directory entry before
    returning — required on paths that acknowledge the checkpoint as
    committed (the streaming ingest triple), optional for the best-
    effort epoch snapshots of offline training.
    """
    params = checkpoint.params
    arrays: dict[str, np.ndarray] = {
        "user_factors": params.user_factors,
        "item_factors": params.item_factors,
        "item_bias": params.item_bias,
        "loss_history": np.asarray(checkpoint.loss_history, dtype=np.float64),
        "validation_history": np.asarray(checkpoint.validation_history, dtype=np.float64),
    }
    if checkpoint.best_params is not None:
        arrays["best_user_factors"] = checkpoint.best_params.user_factors
        arrays["best_item_factors"] = checkpoint.best_params.item_factors
        arrays["best_item_bias"] = checkpoint.best_params.item_bias
    sampler_scalars = {}
    for key, value in checkpoint.sampler_state.items():
        if isinstance(value, np.ndarray):
            arrays[_SAMPLER_PREFIX + key] = value
        else:
            sampler_scalars[key] = value
    metadata = {
        "version": _CHECKPOINT_VERSION,
        "epoch": checkpoint.epoch,
        "rng_state": checkpoint.rng_state,
        "sampler_step": checkpoint.sampler_step,
        "sampler_state": sampler_scalars,
        "learning_rate": checkpoint.learning_rate,
        "best_epoch": checkpoint.best_epoch,
        "best_score": checkpoint.best_score,
        "stale_evals": checkpoint.stale_evals,
        "has_best_params": checkpoint.best_params is not None,
        "extra": checkpoint.extra,
        "checksum": array_checksum(*(arrays[key] for key in sorted(arrays))),
    }
    arrays["metadata"] = np.array(json.dumps(metadata))
    return write_npz_atomic(path, arrays, durable=durable)


def load_checkpoint(path: str | Path) -> TrainingCheckpoint:
    """Load and verify a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`CheckpointError` when the file is missing required
    arrays, its metadata is unreadable, or the stored checksum does not
    match the array contents.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint {path} does not exist")
    try:
        with np.load(path, allow_pickle=False) as archive:
            files = set(archive.files)
            required = {"user_factors", "item_factors", "item_bias", "metadata"}
            missing = required - files
            if missing:
                raise CheckpointError(
                    f"{path} is not a training checkpoint (missing {sorted(missing)})"
                )
            arrays = {name: archive[name].copy() for name in files if name != "metadata"}
            metadata = json.loads(str(archive["metadata"]))
    except (OSError, ValueError, json.JSONDecodeError) as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}") from error

    stored = metadata.get("checksum")
    if stored is not None:
        actual = array_checksum(*(arrays[key] for key in sorted(arrays)))
        if int(stored) != actual:
            raise CheckpointError(
                f"checkpoint {path} is corrupt: checksum mismatch "
                f"(stored {stored}, computed {actual})"
            )

    params = FactorParams(
        arrays["user_factors"], arrays["item_factors"], arrays["item_bias"]
    )
    sampler_state = dict(metadata.get("sampler_state", {}))
    for name, array in arrays.items():
        if name.startswith(_SAMPLER_PREFIX):
            sampler_state[name[len(_SAMPLER_PREFIX):]] = array
    best_params = None
    if metadata.get("has_best_params"):
        best_params = FactorParams(
            arrays["best_user_factors"],
            arrays["best_item_factors"],
            arrays["best_item_bias"],
        )
    return TrainingCheckpoint(
        epoch=int(metadata["epoch"]),
        params=params,
        rng_state=metadata["rng_state"],
        sampler_step=int(metadata.get("sampler_step", 0)),
        learning_rate=metadata.get("learning_rate"),
        loss_history=[float(x) for x in arrays.get("loss_history", [])],
        validation_history=[float(x) for x in arrays.get("validation_history", [])],
        best_epoch=metadata.get("best_epoch"),
        best_score=metadata.get("best_score"),
        stale_evals=int(metadata.get("stale_evals", 0)),
        best_params=best_params,
        extra=metadata.get("extra", {}),
        sampler_state=sampler_state,
    )


def checkpoint_path(directory: str | Path, epoch: int) -> Path:
    """Canonical file name of the epoch-``epoch`` checkpoint."""
    return Path(directory) / f"ckpt_epoch_{epoch:05d}.npz"


def list_checkpoints(directory: str | Path) -> list[Path]:
    """All checkpoint files under ``directory``, oldest epoch first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for entry in directory.iterdir():
        match = _CHECKPOINT_PATTERN.match(entry.name)
        if match:
            found.append((int(match.group(1)), entry))
    return [entry for _, entry in sorted(found)]


def latest_checkpoint(directory: str | Path) -> Path | None:
    """The highest-epoch checkpoint under ``directory``, or ``None``."""
    checkpoints = list_checkpoints(directory)
    return checkpoints[-1] if checkpoints else None


@dataclass(frozen=True)
class CheckpointConfig:
    """When and where the training loop snapshots its state.

    Attributes
    ----------
    directory:
        Target directory (created on first save).
    every:
        Epochs between checkpoints (1 = every epoch boundary).
    keep:
        How many most-recent checkpoints to retain (older ones are
        pruned after each successful save); ``None`` keeps all.
    """

    directory: str | Path
    every: int = 1
    keep: int | None = 3

    def __post_init__(self):
        if self.every < 1:
            raise ConfigError(f"checkpoint every must be >= 1, got {self.every}")
        if self.keep is not None and self.keep < 1:
            raise ConfigError(f"checkpoint keep must be >= 1, got {self.keep}")


class CheckpointManager:
    """Applies a :class:`CheckpointConfig`: cadence, pruning, resume lookup."""

    def __init__(self, config: CheckpointConfig):
        self.config = config
        self.last_path: Path | None = None

    def should_save(self, epoch: int) -> bool:
        return (epoch + 1) % self.config.every == 0

    def save(self, checkpoint: TrainingCheckpoint) -> Path:
        """Write the checkpoint and prune beyond ``keep``."""
        path = save_checkpoint(
            checkpoint_path(self.config.directory, checkpoint.epoch), checkpoint
        )
        self.last_path = path
        if self.config.keep is not None:
            for stale in list_checkpoints(self.config.directory)[: -self.config.keep]:
                stale.unlink(missing_ok=True)
        return path

    def maybe_save(self, epoch: int, checkpoint: TrainingCheckpoint) -> Path | None:
        if not self.should_save(epoch):
            return None
        return self.save(checkpoint)

    def latest(self) -> Path | None:
        return latest_checkpoint(self.config.directory)


def resolve_checkpoint(source) -> TrainingCheckpoint:
    """Coerce ``source`` into a :class:`TrainingCheckpoint`.

    Accepts a checkpoint object, a path to a checkpoint file, or a
    directory containing ``ckpt_epoch_*.npz`` files (the latest wins).
    """
    if isinstance(source, TrainingCheckpoint):
        return source
    path = Path(source)
    if path.is_dir():
        latest = latest_checkpoint(path)
        if latest is None:
            raise CheckpointError(f"no checkpoints found under {path}")
        path = latest
    return load_checkpoint(path)
