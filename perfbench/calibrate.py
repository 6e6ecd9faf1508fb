"""A fixed reference kernel that times the machine, not the program.

On the shared 2-vCPU host the benchmark was defined on, the same code
runs up to about 30 % faster or slower from one minute to the next, with
no CPU steal to show for it (process CPU time tracks wall time exactly):
the host's other tenants change how fast a vCPU is.  Timings taken in
different runs then measure the host.  The train workload therefore runs
this kernel after every timed unit of program work (each epoch, each
evaluation pass, each set-up, each closed-loop window) and reports
each unit at the reference speed, as measured next to it::

    reported_s = measured_s * NOMINAL_S / median(kernel seconds right after it)

Pairing each unit with its own kernel runs, rather than scaling a whole
run by one figure, also takes out the part of the drift that is faster
than a run.

A faster program still reads faster by the same factor; a slower host
no longer does.  The raw timings are printed next to the reported ones.

The kernel is benchmark code and never changes: a sort over fixed
random keys (like the DSS cache refresh) and a pure-Python loop (like
the per-step interpreter work).  It is single-threaded, so other threads
of the process that burn CPU while it runs would slow it and inflate the
reported speed; :meth:`Reference.measure` records their CPU time so the
workload can refuse such a run (:data:`MAX_FOREIGN_CPU_SHARE`).
"""

from __future__ import annotations

import time

import numpy as np

from perfbench.stats import median

#: The kernel's median time on the machine the bounds were set on.
NOMINAL_S = 0.0175
#: Other threads may burn at most this share of the kernel's time.
MAX_FOREIGN_CPU_SHARE = 0.25


class Reference:
    """The reference kernel and the timings it has taken so far."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20230401)
        self._keys = rng.random(22_000)
        self._segments = np.sort(rng.integers(0, 3_000, 22_000))
        #: The timings of each :meth:`measure` call, in call order.
        self.groups: list[list[float]] = []
        self.foreign_cpu: list[float] = []

    @property
    def samples(self) -> list[float]:
        return [taken for group in self.groups for taken in group]

    def measure(self, repeats: int = 1) -> list[float]:
        """Run the kernel ``repeats`` times; return (and keep) its timings."""
        taken = []
        for _repeat in range(repeats):
            process, thread = time.process_time(), time.thread_time()
            start = time.perf_counter()
            for _ in range(3):
                np.lexsort((self._keys, self._segments))
            total = 0
            for i in range(30_000):
                total += i * i
            elapsed = time.perf_counter() - start
            others = (time.process_time() - process) - (time.thread_time() - thread)
            taken.append(elapsed)
            self.foreign_cpu.append(max(others, 0.0) / elapsed)
        self.groups.append(taken)
        return taken


def speed(kernel_times) -> float:
    """How many reference-speed seconds one measured second is worth."""
    return NOMINAL_S / median(kernel_times)


def at_reference_speed(seconds, groups) -> list[float]:
    """Each unit's seconds scaled by the kernel runs that followed it."""
    return [s * speed(group) for s, group in zip(seconds, groups, strict=True)]

