"""Exception hierarchy for the repro package.

Every error raised intentionally by this library derives from
:class:`ReproError` so callers can catch library failures distinctly
from programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError, ValueError):
    """An invalid configuration value or combination was supplied."""


class DataError(ReproError, ValueError):
    """Input data violates the invariants required by a component."""


class DataValidationError(DataError):
    """A data file failed validation, with file/line context attached.

    Raised by the loaders in :mod:`repro.data.loaders` on malformed
    rows — negative or non-numeric ids, NaN ratings, duplicate
    ``(user, item)`` pairs — so bad files fail at the parsing boundary
    with a pointer to the offending line instead of crashing deep in
    numpy during matrix construction.
    """

    def __init__(self, message: str, *, path=None, line: int | None = None):
        super().__init__(message)
        self.path = path
        self.line = line


class NotFittedError(ReproError, RuntimeError):
    """A model method requiring a fitted model was called before ``fit``."""


class DivergenceError(ReproError, RuntimeError):
    """Training diverged (NaN/Inf parameters or exploding loss) and the
    configured guard policy could not recover it."""

    def __init__(self, message: str, *, epoch: int | None = None, step: int | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.step = step


class CheckpointError(ReproError, RuntimeError):
    """A training checkpoint is missing, corrupt, or incompatible."""


class ServingError(ReproError, RuntimeError):
    """Base class for failures on the query-time serving path."""


class TierError(ServingError):
    """One cascade tier could not serve a request (bad scores, unknown
    user, missing history, ...); the cascade moves on to the next tier."""


class StoreError(ReproError, RuntimeError):
    """A sharded factor store is missing, corrupt, or incompatible."""


class ShardError(StoreError):
    """One shard of a factor store failed (hash mismatch, unreadable,
    quarantined).  Carries the ``shard`` index so serving can degrade
    exactly the users that shard owns and nothing else."""

    def __init__(self, message: str, *, shard: int | None = None):
        super().__init__(message)
        self.shard = shard


class DeadlineExceeded(ServingError):
    """A tier call overran its per-request time budget and was cut off.

    Carries the ``budget_ms`` that was granted and, when known, the
    ``elapsed_ms`` actually spent before the cutoff.
    """

    def __init__(self, message: str, *, budget_ms: float | None = None, elapsed_ms: float | None = None):
        super().__init__(message)
        self.budget_ms = budget_ms
        self.elapsed_ms = elapsed_ms


class ExperimentError(ReproError, RuntimeError):
    """One experiment cell (a method or parameter combination) failed.

    Carries the failing ``method`` name and the original ``cause`` so a
    harness can report precisely which cell died without losing the
    traceback of the underlying error.
    """

    def __init__(self, message: str, *, method: str = "", cause: BaseException | None = None):
        super().__init__(message)
        self.method = method
        self.cause = cause
        if cause is not None:
            self.__cause__ = cause
