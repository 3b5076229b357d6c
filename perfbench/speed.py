"""Host speed probes, so that timings hold still on a shared host.

The benchmark's host shares its cores with other work, which slows the same
code by up to a third for seconds at a time; the fastest of several repeats
does not escape it.  While a ``Speedometer`` runs, a SIGALRM every PERIOD
seconds runs a fixed pure-Python integer loop (the probe) and records when it
started and how long it took.  ``scaled(start, end)`` turns an interval timed
with ``time.perf_counter`` into seconds at the host's nominal speed: the
interval minus the probes that ran inside it, times NOMINAL_PROBE_S over the
mean probe duration within WINDOW seconds of the interval.  A slowdown that
hits the program and the probe alike cancels out.

On a 2-core shared host, five rounds of the six search-square windows took
5.0-6.9 s unscaled and 6.2-6.7 s scaled.  The probes cost about 2% of the
time.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from math import isqrt

PERIOD = 0.01             # seconds between probes
WINDOW = 0.2              # seconds around an interval whose probes scale it
NOMINAL_PROBE_S = 1.9e-4  # the median probe duration on the reference host


def probe() -> int:
    total = 0
    for a in range(1, 40):
        q = a**4 + 7
        for b in range(1, 20):
            total += isqrt(q * (b**4 + 1))
    return total


class Speedometer:
    """Probe the host's speed while in a ``with`` block; scale intervals after."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._busy = False
        self._previous = None

    def _probe(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        probe()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)
        self._busy = False

    def __enter__(self):
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        return False

    def scaled(self, start: float, end: float) -> float:
        """Seconds at nominal speed spent between two perf_counter readings."""
        inside = slice(bisect_left(self.starts, start), bisect_left(self.starts, end))
        busy = end - start - sum(self.durations[inside])
        near = self.durations[bisect_left(self.starts, start - WINDOW):
                              bisect_right(self.starts, end + WINDOW)]
        return busy * NOMINAL_PROBE_S / statistics.fmean(near or self.durations)
