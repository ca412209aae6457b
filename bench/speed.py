"""Scaling measured times to a nominal machine speed.

The benchmark runs on shared machines whose speed drifts for minutes at a
time and also switches, within seconds, between a fast and a slow mode: on
a shared 2-core x86 box a fixed plain-Python loop ran 1.7 times as fast for
5 seconds at a time.  So while it measures, the benchmark times a fixed
reference loop every ``EVERY_S`` of wall time, from a timer signal, also in
the middle of an analysis.  Each measured interval is scaled by
``NOMINAL_S`` over the mean of the reference times taken inside it and of
the last one before and the first one after it, and the reference times
inside it are taken out of its length.  A scaled time reads as the wall
time on a machine where the reference loop takes ``NOMINAL_S``.

Only samples close to an analysis follow the fast switches.  Over six
recorded 30-second runs each of fanout and guards, the spread between runs
(interquartile range over median) of ``programs_per_s`` was 16% and 20%
unscaled, 6% and 10% scaled by the median of 25 samples on each side, and
4% and 4% scaled by the two samples that bracket each analysis.  With
samples only between analyses, though, the one guards program that runs
for seconds was at times scaled by a sample taken in a short fast spell,
and set the run's ``programs_per_s`` off by over 20%.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

NOMINAL_S = 0.0018  # the reference loop's median time on that box
EVERY_S = 0.05  # of wall time between two reference samples


def reference_loop() -> int:
    """Fixed plain-Python work: dict, string, list and sort operations, the
    kinds the analyzer spends its time on."""
    counts = {}
    items = []
    for i in range(1500):
        key = "k%d" % (i % 97)
        counts[key] = counts.get(key, 0) + i
        items.append((key, i))
    items.sort()
    return len(counts)


class SpeedProbe:
    """Samples the reference loop every EVERY_S of wall time while in a
    ``with`` block.  Python runs the signal handler between two bytecodes
    of the main thread, so a sample lies wholly inside or wholly outside
    any interval the main thread reads from ``time.perf_counter``."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self._sampling = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()  # so that every measured interval has a sample after it

    def _on_timer(self, signum, frame):
        if not self._sampling:
            self.sample()

    def sample(self):
        """Time the reference loop once."""
        self._sampling = True
        start = time.perf_counter()
        reference_loop()
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self._sampling = False

    def measure(self, start: float, end: float):
        """``(seconds, scale)`` for the interval from ``start`` to ``end``:
        its length less the samples inside it, and the factor that scales it
        to the nominal speed."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        inside = sum(self.ends[i] - self.starts[i] for i in range(first, last))
        around = range(max(first - 1, 0), min(last + 1, len(self.starts)))
        mean = statistics.mean(self.ends[i] - self.starts[i] for i in around)
        return end - start - inside, NOMINAL_S / mean
