"""Machine-speed calibration: timing reported in calibrated seconds.

The benchmark runs on shared machines whose speed drifts by tens of
percent over tens of seconds (other tenants' load on the same cores,
caches and memory bus). A workload's wall time moves with that drift,
so timings are reported in *calibrated seconds*::

    calibrated = measured * REFERENCE_S / kernel_s

where ``kernel_s`` is the median time of a fixed, short calibration
kernel sampled *during* the measurement: :class:`SpeedSampler` arms an
interval timer whose signal handler runs the kernel every
``INTERVAL_S`` seconds while the workload runs, and the time spent in
the handler is taken out of the measured time. ``REFERENCE_S`` is the
kernel's median time on the machine the baseline was measured on, so a
calibrated second is a second on that machine at its usual speed.

The kernel is the benchmark's own code and imports nothing from the
program, so no change to the program can move it: a program that gets
slower shows up in full. It mixes the work the workloads do — Python
walking small objects and dictionaries (the DES, the WfFormat code, the
service) and NumPy array arithmetic (the seismic kernels) — and pauses
the cyclic garbage collector, so the program's heap size does not leak
into its time.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

__all__ = ["INTERVAL_S", "REFERENCE_S", "SpeedSampler"]

#: Kernel median on the baseline machine (see README.md).
REFERENCE_S = 0.00125
#: Sampling period while a measurement runs.
INTERVAL_S = 0.25


class _Record:
    __slots__ = ("name", "key", "value")

    def __init__(self, name: str, key: int, value: float) -> None:
        self.name = name
        self.key = key
        self.value = value


class _Kernel:
    """The calibration kernel and its working set (under 1 MB)."""

    def __init__(self, n: int = 8000) -> None:
        self._records = tuple(
            _Record(f"record_{i:05d}", (i * 7919) % (4 * n), 0.5 * i) for i in range(n)
        )
        self._target = self._records[-1].name
        rng = np.random.default_rng(12345)
        self._a = rng.standard_normal((40, 120))
        self._b = rng.standard_normal((120, 120))
        self._x = rng.uniform(0.0, 1.0, 20_000)

    def run(self) -> float:
        """Seconds one pass takes now (garbage collector paused)."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._work()
            return time.perf_counter() - t0
        finally:
            if was_enabled:
                gc.enable()

    def _work(self) -> float:
        # A linear scan comparing string attributes, integer-keyed dict
        # traffic (no string hashing, whose cost varies per process), a
        # transcendental pass and a small contraction.
        found = sum(1 for r in self._records if r.name == self._target)
        index: dict[int, float] = {}
        for r in self._records[:3000]:
            index[r.key] = index.get(r.key, 0.0) + r.value
        total = found + len(index)
        total += float(np.cos(np.pi * self._x).sum())
        total += float((self._a @ self._b).sum())
        return total


class SpeedSampler:
    """Samples the calibration kernel while a measurement runs.

    One sample is taken on entry and one on exit, outside the measured
    interval, and one every :data:`INTERVAL_S` in between from a
    ``SIGALRM`` handler. :attr:`spent_s` is the handler time, which
    callers subtract from what they measured inside the block. Must be
    used from the main thread.
    """

    _kernel: _Kernel | None = None

    def __init__(self) -> None:
        if SpeedSampler._kernel is None:
            SpeedSampler._kernel = _Kernel()
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(self._kernel.run())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        self.samples.append(self._kernel.run())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(self._kernel.run())

    @property
    def scale(self) -> float:
        """Calibrated seconds per measured second during the block."""
        return REFERENCE_S / statistics.median(self.samples)
