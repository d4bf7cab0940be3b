"""Host speed during a measurement, from a probe kernel run on a timer.

On a shared host the speed at which a process runs drifts with other load,
on a scale of seconds: on a 2-vCPU x86 VM the same ``estimate_parallel_dims``
call took 0.74-1.50 s in fresh processes minutes apart, and for minutes at a
time nearly every call ran slow, so the best of a run's repeats moved with
the load as much as single calls did.  A kernel timed in the parent between
ops did not follow it (correlation 0.3 with the op time); the same kernel
timed inside the op's own process, during the op, did (0.85).

``Probe`` therefore runs a small fixed kernel (a pure-Python loop and
small-array numpy, as in the library's inner loops) every ``INTERVAL_S`` of
wall time inside the measured process, from a SIGALRM handler, and adds up
its cost.  ``corrected`` takes a measured interval, removes the probe's own
time from it and scales the rest by ``REFERENCE_S`` over the probe's mean
cost in that interval: the time the work would have taken with the host
running the kernel at its reference speed.  The kernel is the benchmark's own
code, so a change to the library moves the corrected time as it moves the
measured one.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.02
# Cost of one timed kernel call on a 2-vCPU x86 VM ("Intel(R) Xeon(R)
# Processor", Python 3.11, numpy 2.4) when other load was low: 53-55 us in
# the processes of the fastest pp_split dims calls, 77-92 us in slow ones.
REFERENCE_S = 55e-6

_A = np.arange(64.0).reshape(8, 8)
_REVERSED = np.arange(8)[::-1]


def _kernel():
    total = 0
    for i in range(300):
        total += i * i % 7
    x = _A
    for _ in range(6):
        x = (x[:, _REVERSED] * _A).sum(axis=0) + _A
    return total, x


class Probe:
    """Times ``_kernel`` every INTERVAL_S of wall time while started."""

    def __init__(self):
        self.ticks = 0
        self.spent_s = 0.0   # all time in the probe
        self.kernel_s = 0.0  # time of the timed, warm kernel calls

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _kernel()  # brings its code and data back into cache
        warm = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self.spent_s += end - start
        self.kernel_s += end - warm
        self.ticks += 1

    def start(self) -> None:
        for _ in range(3):  # first calls pay for numpy's lazy set-up
            _kernel()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def reading(self) -> dict:
        return {"ticks": self.ticks, "spent_s": self.spent_s, "kernel_s": self.kernel_s}


def corrected(elapsed_s: float, after: dict, before: dict | None = None) -> float:
    """``elapsed_s`` without the probe's time, at the reference speed.

    ``after`` and ``before`` are readings of the probe at the ends of the
    interval (no ``before``: since the probe started); with no tick inside it
    the time is returned as measured.
    """
    before = before or {"ticks": 0, "spent_s": 0.0, "kernel_s": 0.0}
    ticks = after["ticks"] - before["ticks"]
    spent = after["spent_s"] - before["spent_s"]
    kernel = after["kernel_s"] - before["kernel_s"]
    if ticks == 0:
        return elapsed_s
    return (elapsed_s - spent) * REFERENCE_S * ticks / kernel
