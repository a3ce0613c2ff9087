"""Host-speed calibration: a fixed pure-Python loop timed all through a run.

The benchmark runs on a few cores of a shared host.  Other tenants on the
same physical cores make its speed swing, within a second, by a quarter and
more: the same ops take a third longer in one 20-second run than in the
next, and every op of a run reads slower or faster together.  The spread
between runs would then be the host's, not the program's.

While the ops run, :class:`HostClock` interrupts them every ``PERIOD_S``
seconds (``SIGALRM``) and times :func:`reference_loop`, which exercises the
same interpreter paths as mudra (``Fraction`` arithmetic, tuple keys, dict
stores) but never calls mudra, so a change to mudra cannot change it.  The
time the loop takes is left out of the op it interrupted.  Each op's time is
then scaled by ``REFERENCE_LOOP_S / (mean loop time within WINDOW_S of the
op)``: it reads as on a host that runs the loop in exactly
``REFERENCE_LOOP_S``.  A window of half a second follows the host's swings
closely enough that scaled times of the same work spread a few percent
between runs, where the times as measured spread by a third.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

#: Loop time of the reference host that scaled timings refer to.
REFERENCE_LOOP_S = 0.001
#: Seconds between two timings of the loop.
PERIOD_S = 0.05
#: Loop timings this many seconds before or after an op scale its time.
WINDOW_S = 0.5


def reference_loop() -> None:
    """Fixed work, about a millisecond on a 2.1 GHz core."""
    total = Fraction(0)
    table = {}
    for i in range(1, 300):
        total += Fraction(1, i % 97 + 1)
        table[i % 50, i % 7] = total


def loop_seconds(repeats: int) -> float:
    """Mean time of `repeats` runs of :func:`reference_loop`."""
    took = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_loop()
        took.append(time.perf_counter() - start)
    return statistics.fmean(took)


class HostClock:
    """Times :func:`reference_loop` every ``PERIOD_S`` seconds while active."""

    def __init__(self) -> None:
        #: When each loop ended (on the :meth:`now` clock) and what it took.
        self.stamps: list[float] = []
        self.samples: list[float] = []
        self._spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()  # mudra's heap must not make the loop slower
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        if enabled:
            gc.enable()
        # Time lost to the interruption beyond the loop itself is small
        # against the loop; it stays in the interrupted op's latency.
        self._spent += took
        self.stamps.append(self.now())
        self.samples.append(took)

    def now(self) -> float:
        """``time.perf_counter()`` less the time spent in the loop so far."""
        return time.perf_counter() - self._spent

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a time measured from `start` to `end` (on the
        :meth:`now` clock) into reference time."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        return REFERENCE_LOOP_S / statistics.fmean(self.samples[lo:hi] or self.samples)

    def __enter__(self) -> HostClock:
        self._tick(None, None)  # a sample even in a run shorter than a period
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)  # and one after the last op
