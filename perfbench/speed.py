"""Machine-speed sampler: scales wall times to a fixed reference speed.

On a shared host the same CLI call can take 0.19 s or 0.36 s within one
minute, because the speed of the CPUs the process gets drifts with the load
of other tenants.  The drift hits any CPU-bound code alike, so a background
thread runs a fixed kernel (small NumPy matrix-vector products and Python
float arithmetic, like the inner loops of pontus) every ``PERIOD_S`` seconds
and records the thread CPU time it took.  A wall time measured over an
interval is scaled by

    REFERENCE_KERNEL_S / (mean kernel time sampled in that interval)

which is the time the same work would take on a machine where the kernel
takes ``REFERENCE_KERNEL_S``.  The kernel and the reference are fixed, so a
change that makes pontus faster or slower moves the scaled time by the same
share as the raw one.  The sampler costs about 2% of one CPU.

``multiprocessing`` forks pool workers from this process.  The kernel runs
under a lock that every fork takes first, so no fork happens while the
sampler is inside NumPy.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

import numpy as np

PERIOD_S = 0.05
# Median kernel time on the 2-CPU Xeon VM the benchmark was written on
# (numpy 2.4, OpenBLAS 0.3.31, Python 3.11).
REFERENCE_KERNEL_S = 0.0009
_STEPS = 300
_MIN_SAMPLES = 5
_A = np.array([[0.9, 0.1, 0.0], [0.0, 0.95, 0.02], [0.01, 0.0, 0.97]])


def kernel() -> float:
    r = np.ones(3)
    s = 0.0
    for _ in range(_STEPS):
        r = _A @ r + 0.01
        s += float(r[0]) * 0.5
    return s


class SpeedSampler:
    """Background thread recording (start, kernel thread-CPU seconds) pairs.

    Use as a context manager; ``scale(t0, t1)`` converts wall seconds
    measured between perf_counter readings t0 and t1 to reference seconds.
    """

    def __init__(self):
        self.starts: list = []
        self.kernel_s: list = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-sampler", daemon=True)
        self._active = False

    def _loop(self):
        while not self._stop.wait(PERIOD_S):
            with self._lock:
                start = time.perf_counter()
                c0 = time.thread_time()
                kernel()
                self.starts.append(start)
                self.kernel_s.append(time.thread_time() - c0)

    def _before_fork(self):
        if self._active:
            self._lock.acquire()

    def _after_fork(self):
        if self._active:
            self._lock.release()

    def __enter__(self):
        self._active = True
        os.register_at_fork(
            before=self._before_fork,
            after_in_parent=self._after_fork,
            after_in_child=self._after_fork,
        )
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._active = False  # the fork hooks stay registered but do nothing

    def mean_kernel_s(self, t0: float, t1: float) -> float:
        """Mean kernel time sampled in [t0, t1); the whole run's mean when
        the interval holds fewer than a few samples."""
        with self._lock:
            i = bisect.bisect_left(self.starts, t0)
            j = bisect.bisect_left(self.starts, t1)
            window = self.kernel_s[i:j]
            if len(window) < _MIN_SAMPLES:
                window = list(self.kernel_s)
        if not window:
            raise RuntimeError("speed sampler recorded no samples")
        return statistics.fmean(window)

    def scale(self, t0: float, t1: float) -> float:
        return REFERENCE_KERNEL_S / self.mean_kernel_s(t0, t1)
