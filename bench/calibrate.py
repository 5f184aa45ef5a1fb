"""Host-speed calibration: a fixed exact computation timed beside the program.

The benchmark runs on shared hosts whose CPUs slow down for spells of
seconds to minutes when other tenants load them: a fixed pure-Python loop
then takes up to twice as long, in CPU time as in wall time, and a spell
can cover a whole run.  No statistic of the program's own times can tell
such a run from a slower program.  So the worker runs ``kernel`` every
quarter second while a call runs (``HostClock``) and scales each stretch
of the call by ``REF_S`` over the kernel's time at its ends: the figures
are what the call would take on a CPU that runs the kernel in ``REF_S``.
The kernel's own time, about 2% of a call, is left out.

The kernel is the benchmark's own code and imports nothing from
``braidreps``, so no change to the program can move it.  It does the kind
of work the program does: Gaussian elimination over ``fractions.Fraction``
with growing numerators.  ``REF_S`` is its time on an uncontended core of
the 2-CPU x86-64 machine, Python 3.11, that ``baseline.json`` was recorded
on, so that scaled figures there read close to uncontended wall time.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

REF_S = 0.0014
SIZE = 10
REPEATS = 3  # the kernel's time is the fastest of this many back-to-back runs


def _eliminate() -> Fraction:
    n = SIZE
    a = [[Fraction(1, i + j + 1) + Fraction((3 * i + j) % 5, 7) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for k in range(n):
        det *= a[k][k]
        for i in range(k + 1, n):
            q = a[i][k] / a[k][k]
            row, pivot = a[i], a[k]
            for j in range(k + 1, n):
                row[j] -= q * pivot[j]
    return det


EXPECTED = _eliminate()


def kernel() -> float:
    """Seconds the kernel takes now: the fastest of REPEATS runs."""
    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        det = _eliminate()
        best = min(best, perf_counter() - start)
    if det != EXPECTED:
        raise AssertionError("calibration kernel computed a different determinant")
    return best


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between kernel times ``before`` and ``after``,
    scaled to a CPU that runs the kernel in REF_S."""
    return seconds * REF_S * 2 / (before + after)


class HostClock:
    """Times a call in wall seconds and in host-calibrated seconds.

    While a periodic call runs, SIGALRM every INTERVAL seconds runs the
    kernel; every stretch of the call between two kernel runs is scaled by
    the mean of their times, and the kernel's own time is left out of both
    figures.  The kernel also runs when the call ends, so a call too short
    for a tick is scaled by the kernel times just before and after it.
    """

    INTERVAL = 0.25

    def __init__(self):
        self.kernels = [kernel()]
        self.busy = False
        signal.signal(signal.SIGALRM, self._tick)

    def start(self, periodic: bool) -> None:
        self.wall = self.scaled = 0.0
        self.mark = perf_counter()
        if periodic:
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)

    def stop(self) -> tuple[float, float]:
        """Stop the timer; return the call's (seconds, calibrated seconds)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._lap()
        return self.wall, self.scaled

    def _tick(self, signum, frame) -> None:
        if not self.busy:
            self._lap()

    def _lap(self) -> None:
        self.busy = True
        now = perf_counter()
        self.kernels.append(kernel())
        self.wall += now - self.mark
        self.scaled += scale(now - self.mark, self.kernels[-2], self.kernels[-1])
        self.mark = perf_counter()
        self.busy = False
