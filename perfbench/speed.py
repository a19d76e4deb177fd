"""Times scaled to a reference machine speed.

On a shared host the CPU flips between a fast and a slow state, from one
second to the next and sometimes for minutes; no statistic over raw wall
times removes a slow spell that lasts a whole run.  So a pass measures the
machine's speed while it works: a timer interrupts it every ``TICK_S`` and
runs a fixed probe (pure-Python float loops plus small numpy and BLAS
calls, the mix the program is made of) twice, timing the second, warm run.
A region's scaled time is its wall time, less the probe's own time, times
the mean of ``REFERENCE_S / probe time`` over the probes taken in or next
to it: the seconds the region would take on a machine where the probe
takes ``REFERENCE_S``.  A change to the program changes its wall time but
not the probe, so it moves the scaled time in full.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

TICK_S = 0.05
# The probe's time at the reference speed: about its fastest on a 2-vCPU
# x86-64 VM with Python 3.11 and numpy 2.4 (OpenBLAS).
REFERENCE_S = 0.2e-3

_SYSTEM = np.linspace(1.0, 2.0, 100).reshape(10, 10) + 10.0 * np.eye(10)
_RHS = np.ones(10)


def probe() -> float:
    """A fixed piece of work; its result only keeps it from being idle."""
    xs = [0.5 * i for i in range(48)]
    total = 0.0
    for _ in range(6):
        for i in range(1, 48):
            total += max(min(xs[i] - 0.9 * xs[i - 1], 3.0), -3.0)
    a = np.asarray(xs)
    for _ in range(10):
        a = np.clip(0.99 * a + 0.01, -5.0, 50.0)
        total += float(a.sum())
    return total + float(np.linalg.solve(_SYSTEM, _RHS)[0])


class SpeedProbe:
    """Samples the machine's speed during a pass; ``scaled`` turns a region
    of wall time into reference-speed seconds."""

    def __init__(self) -> None:
        # (start, end, warm probe seconds) of every sample, in time order.
        self.samples: list[tuple[float, float, float]] = []
        self._previous_handler = None

    def sample(self) -> None:
        start = perf_counter()
        probe()
        warm = perf_counter()
        probe()
        end = perf_counter()
        self.samples.append((start, end, end - warm))

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def wall(self, start: float, end: float) -> float:
        """Wall time of [start, end] less the probes taken inside it."""
        inside = sum(e - s for s, e, _ in self.samples if start <= s and e <= end)
        return end - start - inside

    def scaled(self, start: float, end: float) -> float:
        """Reference-speed seconds of the work done in [start, end]: speed
        from the probes within a tick of it, or else the nearest one."""
        near = [p for s, e, p in self.samples if start - TICK_S <= s and e <= end + TICK_S]
        if not near:
            middle = (start + end) / 2
            near = [min(self.samples, key=lambda sample: abs(sample[0] - middle))[2]]
        return self.wall(start, end) * statistics.fmean(REFERENCE_S / p for p in near)
