"""Where a set of numbers came from: code version, toolchain, machine."""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

import numpy as np


def git_sha(root: Path) -> str:
    """HEAD's commit id, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_info() -> dict:
    """The BLAS numpy was built against, and its live thread count."""
    config = getattr(np, "__config__", None)
    blas = (getattr(config, "CONFIG", {}) or {}).get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown"),
            "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "blas" in line.lower() and "/" in line}
    except OSError:
        paths = set()
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                info["library"] = Path(path).name
                return info
    return info


def cpu_ticks() -> list[int] | None:
    """Machine-wide CPU time counters (``/proc/stat``), or None off Linux."""
    try:
        with open("/proc/stat", encoding="utf-8") as stat:
            return [int(field) for field in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor gave to other guests in between.

    A high share means the run competed for the host's cores, which
    slows every timing in it.
    """
    if not before or not after or len(before) < 8:
        return None
    total = sum(after[:8]) - sum(before[:8])
    return (after[7] - before[7]) / total if total > 0 else None


def provenance(root: Path, argv: list[str], seeds: dict) -> dict:
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "command": [Path(sys.executable).name, *argv],
        "seeds": seeds,
    }
