"""Deterministic fault injection: one schedule, five effects.

Every recovery path — checkpoint/resume, divergence rollback, crash-safe
ingest, supervised restarts, durable writes, the serving cascade — is
only trustworthy if it can be exercised on demand.  :class:`FaultSchedule`
does the counting for all of them: it arms charges against named sites,
counts every pass through a site and fires a charge per pass from the
armed one on.  Each injector keeps only its effect:

* :class:`FaultInjector` (ticked once per SGD step): NaN item-factor
  rows, :class:`InjectedFault`, or :class:`SimulatedKill` at a step;
* :class:`KillSwitch`: :class:`SimulatedKill` at a named crash site of
  the WAL/ingest protocols or a supervised component's heartbeat;
* :class:`DiskFaultInjector`: ``OSError`` from the file primitives
  under :mod:`repro.utils.atomicio`, including torn short writes;
* :class:`ServiceFaultInjector`: per-tier latency, exceptions and NaN
  scores in the serving cascade, armed until cleared, not counted.
"""

from __future__ import annotations

import errno as _errno
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, TypeVar

import numpy as np

from repro.mf.params import FactorParams
from repro.utils.atomicio import FileOps
from repro.utils.exceptions import ReproError


class InjectedFault(ReproError, RuntimeError):
    """A deliberately injected, catchable failure."""


class SimulatedKill(BaseException):
    """An injected process kill.

    Derives from ``BaseException`` (like ``KeyboardInterrupt``) so the
    guard/retry layers, which catch ``Exception``, let it propagate —
    exactly as a real ``SIGKILL`` would leave only on-disk state behind.
    """


_Schedule = TypeVar("_Schedule", bound="FaultSchedule")


@dataclass
class _Charges:
    at_tick: int  # the first tick that may fire
    armed: int  # charges armed since the last reset
    left: int  # charges not fired yet


class FaultSchedule:
    """Armed sites, their tick counts and what fired.

    Each site counts its own ticks, 1-based, whether or not it is
    armed.  A site armed with ``at_tick=n, times=m`` fires at the first
    ``m`` of its ticks ``>= n`` — ticks ``n .. n+m-1`` — once per tick.
    ``at_tick`` defaults to the site's next tick.  Arming a site that
    still has charges adds ``times`` charges and keeps its ``at_tick``.
    :meth:`reset` rewinds (zero ticks, nothing fired, every charge
    restored); :meth:`clear` disarms every site.
    """

    def __init__(self) -> None:
        self.ticks_: dict[str, int] = {}
        self.fired_: list[str] = []
        self._charges: dict[str, _Charges] = {}
        # A supervisor's kills are armed from one thread, ticked from another.
        self._lock = threading.Lock()

    def arm(self: _Schedule, site: str, at_tick: int | None = None, *, times: int = 1) -> _Schedule:
        """Arm ``times`` charges against ``site`` (returns self)."""
        if times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        if at_tick is not None and at_tick < 1:
            raise ValueError(f"at_tick must be >= 1, got {at_tick}")
        with self._lock:
            charges = self._charges.get(site)
            if charges is not None and charges.left > 0:
                charges.armed += times
                charges.left += times
            else:
                start = self.ticks_.get(site, 0) + 1 if at_tick is None else at_tick
                self._charges[site] = _Charges(start, times, times)
        return self

    def fire(self, site: str) -> bool:
        """Count one tick of ``site``; True when a charge fired on it."""
        with self._lock:
            tick = self.ticks_.get(site, 0) + 1
            self.ticks_[site] = tick
            charges = self._charges.get(site)
            if charges is None or charges.left == 0 or tick < charges.at_tick:
                return False
            charges.left -= 1
            self.fired_.append(site)
            return True

    def reset(self) -> None:
        with self._lock:
            self.ticks_ = {}
            self.fired_ = []
            for charges in self._charges.values():
                charges.left = charges.armed

    def clear(self) -> None:
        with self._lock:
            self._charges.clear()


_STEP_SITES = ("nan", "fail", "kill")


@dataclass
class FaultInjector(FaultSchedule):
    """Injects one fault of each kind at configured global steps.

    The sites are ``"nan"``, ``"fail"`` and ``"kill"``.  The owning
    model calls :meth:`tick` once per SGD step and :meth:`reset` at the
    start of each ``fit``, so each fault fires once per fit, at a step
    independent of epoch boundaries.

    Attributes
    ----------
    nan_at_step / fail_at_step / kill_at_step:
        1-based step numbers at which each fault fires (``None``
        disables that fault).
    nan_rows:
        How many leading item-factor rows the NaN fault poisons.
    """

    nan_at_step: int | None = None
    fail_at_step: int | None = None
    kill_at_step: int | None = None
    nan_rows: int = 1

    def __post_init__(self) -> None:
        super().__init__()
        steps = (self.nan_at_step, self.fail_at_step, self.kill_at_step)
        for site, step in zip(_STEP_SITES, steps):
            if step is not None:
                self.arm(site, at_tick=step)

    def tick(self, params: FactorParams | None = None) -> None:
        """Advance one step; fire any fault scheduled for it."""
        nan, fail, kill = [self.fire(site) for site in _STEP_SITES]
        step = self.ticks_["nan"]
        if nan and params is not None:
            rows = min(self.nan_rows, params.n_items)
            params.item_factors[:rows] = np.nan
        if fail:
            raise InjectedFault(f"injected failure at step {step}")
        if kill:
            raise SimulatedKill(f"simulated kill at step {step}")


class KillSwitch(FaultSchedule):
    """:class:`SimulatedKill` at named sites.

    The streaming path ticks named crash sites ("after the WAL write,
    before the fsync", ...), so a test can arm each site at each tick
    count and assert the recovery invariant at every interleaving
    point.  The supervisor ticks each component's name on its
    heartbeat, so :meth:`kill` tears a component down inside its own
    thread, which no real signal can do.
    """

    def kill(self, component: str, *, times: int = 1) -> "KillSwitch":
        """Kill ``component`` at its next ``times`` heartbeats (returns self)."""
        return self.arm(component, times=times)

    def tick(self, site: str) -> None:
        """Record one pass through ``site``; kill if a charge fires."""
        if self.fire(site):
            raise SimulatedKill(f"simulated kill at site {site!r} tick {self.ticks_[site]}")


@dataclass
class TierFault:
    """The faults currently armed against one serving tier.

    Attributes
    ----------
    latency_ms:
        Injected delay before the tier runs (burned through the
        service clock, so fake-clock tests stay sleep-free).
    exception:
        When true, the tier call raises :class:`InjectedFault`.
    nan_scores:
        When true, the tier's score vector is poisoned with NaN before
        ranking — the serving analogue of a sigmoid-saturated model.
    """

    latency_ms: float = 0.0
    exception: bool = False
    nan_scores: bool = False

    @property
    def armed(self) -> bool:
        return self.latency_ms > 0 or self.exception or self.nan_scores


class ServiceFaultInjector:
    """Query-time fault injection for the serving cascade.

    Where :class:`FaultInjector` attacks the *training* loop at an exact
    SGD step, this attacks the *request* path per tier: the
    :class:`~repro.serving.service.RecommendationService` calls
    :meth:`before_call` ahead of every tier execution (latency /
    exception faults), and every tier passes each score row it ranks
    through :meth:`poison_scores` (NaN fault; counted once per row).
    Faults are not counted down: they are armed and cleared by
    name at any point — "the personalized tier is 100% broken for the
    next N requests, then healthy" is two method calls — which is what
    the breaker-recovery and zero-failed-request chaos tests exercise.

    ``stale_model`` is a service-wide fault: while set, a hot-swapped
    :class:`~repro.serving.reload.ModelSlot` keeps serving its previous
    model, simulating a reload that silently failed to take.
    """

    def __init__(self, clock=None):
        from repro.utils.clock import as_clock

        self.clock = as_clock(clock)
        self.faults: dict[str, TierFault] = {}
        self.stale_model = False
        self.fired_counts_: dict[str, int] = {}

    def inject(
        self,
        tier: str,
        *,
        latency_ms: float = 0.0,
        exception: bool = False,
        nan_scores: bool = False,
    ) -> "ServiceFaultInjector":
        """Arm faults against ``tier`` (returns self for chaining)."""
        self.faults[tier] = TierFault(
            latency_ms=latency_ms, exception=exception, nan_scores=nan_scores
        )
        return self

    def clear(self, tier: str | None = None) -> None:
        """Disarm faults for ``tier`` (or all tiers and flags when None)."""
        if tier is None:
            self.faults.clear()
            self.stale_model = False
        else:
            self.faults.pop(tier, None)

    def _fired(self, tier: str, kind: str) -> None:
        key = f"{tier}:{kind}"
        self.fired_counts_[key] = self.fired_counts_.get(key, 0) + 1

    def before_call(self, tier: str) -> None:
        """Fire latency/exception faults armed against ``tier``."""
        fault = self.faults.get(tier)
        if fault is None:
            return
        if fault.latency_ms > 0:
            self._fired(tier, "latency")
            self.clock.sleep(fault.latency_ms / 1000.0)
        if fault.exception:
            self._fired(tier, "exception")
            raise InjectedFault(f"injected serving failure in tier {tier!r}")

    def poison_scores(self, tier: str, scores: np.ndarray) -> np.ndarray:
        """Return ``scores`` NaN-poisoned when the fault is armed."""
        fault = self.faults.get(tier)
        if fault is None or not fault.nan_scores:
            return scores
        self._fired(tier, "nan")
        poisoned = np.array(scores, dtype=np.float64, copy=True)
        poisoned[..., : max(1, poisoned.shape[-1] // 2)] = np.nan
        return poisoned


@dataclass
class DiskFault:
    """The effect of one armed filesystem fault.

    Attributes
    ----------
    op:
        Which :class:`~repro.utils.atomicio.FileOps` primitive to attack:
        ``"write"``, ``"fsync"``, ``"replace"``, ``"open_append"``, or
        ``"truncate"``.
    path_substring:
        Only paths containing this substring are hit (empty matches all).
        ``fsync`` calls carry an advisory path for exactly this purpose.
    errno_code:
        The ``OSError`` errno to raise — ``EIO`` for a dying device,
        ``ENOSPC`` for a full disk, etc.
    short_write_bytes:
        For ``op="write"`` only: write this many leading bytes through
        to the real handle *then* raise, leaving a torn frame on disk —
        the post-power-loss state the WAL's CRC framing must truncate.
    """

    op: str
    path_substring: str = ""
    errno_code: int = _errno.EIO
    short_write_bytes: int | None = None

    _VALID_OPS = ("write", "fsync", "replace", "open_append", "truncate")

    def __post_init__(self) -> None:
        if self.op not in self._VALID_OPS:
            raise ValueError(f"op must be one of {self._VALID_OPS}, got {self.op!r}")

    def matches(self, op: str, path: Path | None) -> bool:
        hit = not self.path_substring or (path is not None and self.path_substring in str(path))
        return op == self.op and hit


class DiskFaultInjector(FileOps):
    """A fault-injecting :class:`~repro.utils.atomicio.FileOps`.

    Install with :func:`repro.utils.atomicio.set_file_ops` (or the
    ``injected_file_ops`` context manager) and every durable write in
    the repository becomes attackable: ENOSPC on append, EIO on fsync,
    failed renames, short writes that tear a frame mid-record.  Each
    ``(op, path_substring)`` pair is one site of the schedule: its next
    ``times`` matching calls fail.  Other calls pass straight through,
    so a test can maim one checkpoint write while the rest of the
    system keeps its durability guarantees.
    """

    def __init__(self) -> None:
        self.faults: dict[str, DiskFault] = {}
        self.schedule = FaultSchedule()

    @property
    def fired_(self) -> list[str]:
        return self.schedule.fired_

    def arm(
        self,
        op: str,
        *,
        path_substring: str = "",
        errno_code: int = _errno.EIO,
        times: int = 1,
        short_write_bytes: int | None = None,
    ) -> "DiskFaultInjector":
        """Arm one fault (returns self for chaining).

        Re-arming the same ``op`` and ``path_substring`` adds charges;
        the latest ``errno_code`` and ``short_write_bytes`` apply.
        """
        fault = DiskFault(op, path_substring, errno_code, short_write_bytes)
        site = f"{op}:{path_substring}"
        self.schedule.arm(site, times=times)
        self.faults[site] = fault
        return self

    def clear(self) -> None:
        self.faults.clear()
        self.schedule.clear()

    def _check(self, op: str, path: Path | None, handle: IO[bytes] | None = None, data=b"") -> None:
        """Raise the first armed fault that fires on this call."""
        for site, fault in self.faults.items():
            if fault.matches(op, path) and self.schedule.fire(site):
                if handle is not None and fault.short_write_bytes is not None:
                    # Tear the write: some bytes land, then the device dies.
                    super().write(handle, data[: fault.short_write_bytes])
                    handle.flush()
                raise OSError(
                    fault.errno_code,
                    f"injected disk fault: {op} on {path} "
                    f"({_errno.errorcode.get(fault.errno_code, fault.errno_code)})",
                )

    def open_append(self, path: Path) -> IO[bytes]:
        self._check("open_append", path)
        return super().open_append(path)

    def write(self, handle: IO[bytes], data: bytes) -> int:
        name = getattr(handle, "name", None)
        self._check("write", Path(name) if name else None, handle, data)
        return super().write(handle, data)

    def fsync(self, fd: int, *, path: Path | None = None) -> None:
        self._check("fsync", path)
        super().fsync(fd, path=path)

    def replace(self, src: Path, dst: Path) -> None:
        self._check("replace", dst)
        super().replace(src, dst)

    def truncate(self, path: Path, length: int) -> None:
        self._check("truncate", path)
        super().truncate(path, length)


def flip_bits(path: str | Path, offsets: Iterable[int], *, mask: int = 0x01) -> int:
    """XOR ``mask`` into the byte at each offset of ``path`` — bit rot.

    In-place corruption (same inode, no rename) is exactly what
    distinguishes silent media decay from a legitimate atomic rewrite,
    which is how the scrubber decides repair-from-mirror vs
    accept-new-version.  Returns the number of bytes actually flipped;
    offsets past EOF are ignored so callers can corrupt "somewhere in
    the middle" without sizing the file first.
    """
    target = Path(path)
    size = target.stat().st_size
    flipped = 0
    fd = os.open(str(target), os.O_RDWR)
    try:
        for offset in offsets:
            if not 0 <= offset < size:
                continue
            original = os.pread(fd, 1, offset)
            os.pwrite(fd, bytes((original[0] ^ mask,)), offset)
            flipped += 1
        os.fsync(fd)
    finally:
        os.close(fd)
    return flipped

