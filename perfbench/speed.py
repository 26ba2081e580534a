"""Host-speed meter: times a fixed kernel between the program's bytecodes.

A shared host's speed drifts by up to 2x within seconds (other tenants
load the caches and cores), and that drift swamps any change to the
program.  The meter measures it where the program runs.  Every
``PERIOD_S`` of wall time a timer signal interrupts the program.  The
main thread then runs a fixed pure-Python kernel and records how long
the kernel took.  The kernel is owned by the benchmark, so a change to
the program cannot change it.

A window's *scale* is ``REFERENCE_S / mean kernel time`` over the
window's samples.  Because the samples are evenly spaced in wall time,
their mean tracks the host's average slowness over the window.  Program
time multiplied by the scale is the time the same work takes at the
reference speed.  :meth:`Meter.now` is a program clock that leaves out
the time the meter itself spent, which is about 1%.

On a 2-core VM with raw repetition times spreading 0.23-0.28 (IQR over
median), the scaled times of the same repetitions spread 0.03-0.055.
A meter on the *other* core instead tracked the drift poorly (0.15).
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

PERIOD_S = 0.01         # one sample per 10 ms of wall time
REFERENCE_S = 1.25e-4   # the kernel's time at the reference speed
OUTLIER = 3.0           # a sample counts as at most this many window medians


def kernel(n: int = 500) -> float:
    """The fixed work timed by the meter: about 0.12 ms on a quiet host.

    Dict, int, float and small-list operations.  A variant with method
    calls, slotted objects and ``math`` tracked the program's slowdown
    worse (residual 0.057 against 0.040 per repetition of coexist-online,
    0.056 against 0.031 of fig04-dense).
    """
    counts: dict = {}
    acc = 0.0
    for i in range(n):
        k = (i * 7919) % 1009
        counts[k] = counts.get(k, 0) + 1
        acc += (i % 13) * 0.5
        row = [i, k, acc]
    return acc + len(counts) + len(row)


class Meter:
    """Samples the kernel time on a wall-clock timer; see the module doc."""

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.samples: List[float] = []
        self.spent = 0.0          # seconds spent inside the meter
        self._busy = False

    def start(self) -> "Meter":
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_timer(self, _signum: int, _frame: object) -> None:
        if not self._busy:
            self.sample()

    def sample(self) -> None:
        """Time the kernel once."""
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0
        self._busy = False

    def now(self) -> float:
        """Program clock: ``perf_counter`` minus the meter's own time."""
        return time.perf_counter() - self.spent

    def mark(self) -> int:
        """Start a window; pass the result to :meth:`scale`."""
        return len(self.samples)

    def scale(self, since: int) -> float:
        """Reference speed over the host's speed in the window since ``since``.

        A sample during which the process lost the core reads 10x the
        others; one such sample in a short window (set-up holds about
        40) would halve the scale, so samples are capped at ``OUTLIER``
        window medians.
        """
        if len(self.samples) <= since:
            self.sample()
        window = self.samples[since:]
        cap = OUTLIER * statistics.median(window)
        return REFERENCE_S * len(window) / sum(min(x, cap) for x in window)
