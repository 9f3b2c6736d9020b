"""Host-speed reference: a fixed kernel timed next to every measurement.

A shared 2-vCPU host runs the same code at speeds that drift by up to
1.5x over minutes, with contention from other tenants (README.md, Noise).
Run-to-run spread then measures the neighbours, not the program. So the
benchmark times :class:`ReferenceKernel` before and after each
closed-loop operation and each set-up, and reports those times scaled to
a host that runs the kernel in ``NOMINAL_S`` seconds::

    reported = measured * NOMINAL_S / kernel_s

where ``kernel_s`` is the mean of the kernel times taken just before and
just after the measurement, each the median of :func:`runs_for` kernel
runs. Rates scale by the inverse. The kernel uses only numpy and Python,
never ``repro``, so a change to the program cannot move it: a program
that gets 20% slower reads 20% slower at any host speed. The wall-clock
figures are printed beside the scaled ones.

The kernel mixes what the workloads spend their time on: a conv-sized
float32 GEMM, streaming elementwise passes over arrays larger than L2,
chains of small ufunc calls (autodiff's per-op overhead), and an
interpreter loop.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import List

import numpy as np

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")

#: Kernel time, in seconds, of the reference host speed that scaled
#: figures are expressed at (about the median on a 2-vCPU Xeon host).
NOMINAL_S = 0.025
#: Share of a measurement's time spent on kernel runs beside it. One run
#: differs from the next by 10-17% (the host's speed also flickers within
#: a second), so a long measurement takes the median of several.
KERNEL_SHARE = 0.05


class ReferenceKernel:
    """A fixed ~25 ms kernel; ``self()`` runs it once and returns its time.

    Every time it runs is kept in ``times`` for the run's report.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.random((64, 576), dtype=np.float32)
        self._b = rng.random((576, 2304), dtype=np.float32)
        self._big = rng.random(1 << 21, dtype=np.float32)
        self._tmp = np.empty_like(self._big)
        self._small = rng.random(64, dtype=np.float32)
        self.times: List[float] = []
        for _ in range(3):  # fault in pages, load BLAS kernels
            self._run()

    def _run(self):
        for _ in range(4):
            product = self._a @ self._b
        for _ in range(4):
            np.multiply(self._big, 0.5, out=self._tmp)
            np.add(self._tmp, self._big, out=self._tmp)
            np.maximum(self._tmp, 0.7, out=self._tmp)
        small = self._small
        for _ in range(300):
            small = np.tanh(small * 0.9 + 0.01)
        total, table = 0, {}
        for i in range(4000):
            total += i * i
            table[i & 255] = total
        return product, small, table

    def __call__(self) -> float:
        start = time.perf_counter()
        self._run()
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        return elapsed

    def sample(self, runs: int) -> float:
        """Median time of ``runs`` back-to-back kernel runs."""
        return statistics.median(self() for _ in range(runs))

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.times) if self.times else 0.0

    def per_cpu(self, runs: int) -> float:
        """Mean over the CPUs this thread may use of the fastest of ``runs``
        kernel runs on each: the host speed where work spans processes on
        both CPUs. The fastest run leaves out time the hypervisor took."""
        cpus = os.sched_getaffinity(0)
        fastest = []
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})  # this thread only
                fastest.append(min(self() for _ in range(runs)))
        finally:
            os.sched_setaffinity(0, cpus)
        return statistics.mean(fastest)


def steal_s() -> float:
    """Seconds the hypervisor has run other guests on this machine's CPUs
    instead of it, summed over CPUs (``steal`` in /proc/stat, counted in
    10 ms ticks); 0 where that is not reported."""
    total = 0
    try:
        with open("/proc/stat") as handle:
            for line in handle:
                if not line.startswith("cpu"):
                    break
                if line[3] != " ":  # per-CPU lines only
                    total += int(line.split()[8])
    except (OSError, IndexError, ValueError):
        return 0.0
    return total * _TICK_S


def cpu_count() -> int:
    """CPUs of the machine, the ones ``steal_s`` sums over."""
    return os.cpu_count() or 1


def runs_for(seconds: float) -> int:
    """Kernel runs on each side of a measurement lasting ``seconds``."""
    return max(1, round(KERNEL_SHARE * seconds / NOMINAL_S))


def scale(before_s: float, after_s: float) -> float:
    """Factor from measured seconds to reference seconds, given the kernel
    times taken just before and just after the measurement."""
    return NOMINAL_S / (0.5 * (before_s + after_s))
