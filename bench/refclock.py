"""Timing that factors out how fast the shared host is running right now.

On a shared host, load from other tenants slows this process by up to 2x
for seconds to minutes at a time, in CPU time as much as in wall time, so
two runs of the same code can differ by 40%. While a RefClock is open, a
timer signal interrupts the measured code every ``interval`` seconds and
runs a small fixed reference kernel in the same thread. The kernel mixes
what spincat spends its time on (a validated frozen dataclass, math calls
and tiny NumPy arrays), so its duration tracks the core's current speed
for that kind of work.

``normalized(start, end)`` reports a timed interval as its wall time,
minus the time the kernel itself took, scaled by NOMINAL_S over the mean
kernel duration around the interval: the time the measured code would
have taken had the host run the kernel in NOMINAL_S.
"""
from __future__ import annotations

import math
import signal
import statistics
import time
from array import array
from dataclasses import dataclass

import numpy as np

# the kernel's duration on an unloaded 2-vCPU Intel Xeon VM (CPython 3.11,
# NumPy 2.4); only a fixed scale, so any value keeps runs comparable
NOMINAL_S = 250e-6
INTERVAL_S = 0.02
# samples this close outside an interval still describe it
_MARGIN_S = 0.1

_K = np.arange(3)
_M = np.eye(3, dtype=complex)
_ROOTS = np.sqrt(np.array([1.0, 2.0, 1.0]))


@dataclass(frozen=True)
class _Direction:
    theta: float
    phi: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        object.__setattr__(self, "phi", self.phi % (2 * math.pi))


def kernel(rounds: int = 20) -> float:
    acc = 0.0
    for i in range(rounds):
        p = _Direction(0.001 * i, 0.002 * i)
        c, s = math.cos(p.theta / 2), math.sin(p.theta / 2)
        v = _ROOTS * c ** (2 - _K) * s**_K * np.exp(-1j * p.phi * _K)
        acc += np.vdot(_M @ v, v).real
    return acc


class RefClock:
    """Samples the reference kernel on SIGALRM while open (main thread only)."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.stamps = array("d")
        self.costs = array("d")

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.stamps.append(t0)
        self.costs.append(time.perf_counter() - t0)

    def __enter__(self) -> "RefClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalized(self, start: float, end: float) -> float:
        """Seconds the interval [start, end) of perf_counter would take at nominal speed."""
        inside = [c for t, c in zip(self.stamps, self.costs) if start <= t < end]
        near = [
            c for t, c in zip(self.stamps, self.costs) if start - _MARGIN_S <= t < end + _MARGIN_S
        ] or list(self.costs)
        if not near:
            raise RuntimeError("no reference samples; the interval timer never fired")
        return (end - start - math.fsum(inside)) * NOMINAL_S / statistics.fmean(near)
