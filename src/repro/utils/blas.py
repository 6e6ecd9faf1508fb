"""Scope the thread count of numpy's OpenBLAS to one thread.

OpenBLAS splits a GEMM above its own size threshold across its worker
threads, and a worker that has just finished a job busy-waits for the
next one before it sleeps.  When small GEMMs arrive every millisecond,
as block scoring under serving load does, the worker never sleeps and
keeps a core at 100 % user CPU.  :func:`one_blas_thread` runs a stretch
of code on the calling thread alone and then restores the count.

The controls are found the way ``perfbench/provenance.py::blas_info``
finds the getter: in the BLAS libraries mapped into the process.  Where
there is no OpenBLAS (another BLAS, or no ``/proc/self/maps``) the
scope does nothing.  It only ever lowers the count and restores the
value it read, so ``OPENBLAS_NUM_THREADS`` still caps it.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from functools import cache
from typing import Callable, Iterator

#: ``(getter, setter)`` symbol pairs, numpy's 64-bit-integer build first.
#: scipy's own 32-bit OpenBLAS exports only ``scipy_openblas_*`` names
#: without the ``64_`` suffix, so it is never picked.
SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# The thread count is process-wide, so the count of open scopes and the
# value to restore are too.
_lock = threading.Lock()
_holders = 0
_restore = 1


@cache
def thread_controls() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """``(get_num_threads, set_num_threads)`` of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "blas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in SYMBOLS:
            getter = getattr(library, get_name, None)
            setter = getattr(library, set_name, None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the body with OpenBLAS on one thread, then restore the count.

    Scopes from several threads overlap safely: the first to enter
    reads the count and lowers it, the last to leave restores it.  A
    GEMM another thread runs meanwhile also runs on one thread, which
    changes its speed but not its bits at ``scoring.BLOCK`` rows.
    """
    global _holders, _restore
    controls = thread_controls()
    if controls is None:
        yield
        return
    get_threads, set_threads = controls
    with _lock:
        if _holders == 0:
            _restore = get_threads()
            if _restore > 1:
                set_threads(1)
        _holders += 1
    try:
        yield
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0 and _restore > 1:
                set_threads(_restore)
