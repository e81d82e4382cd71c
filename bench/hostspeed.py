"""Host-speed sampling for the timed runs of the ncorep benchmark.

A shared host runs the same Python code up to about 1.6 times slower in
spells of seconds to minutes, and every timing of a run moves with it.  So
each timed process samples a fixed pure-Python loop, the reference chunk,
from a SIGALRM timer every ``PERIOD`` seconds while it works.  A timing is
then scaled by ``REF_CHUNK_S`` over the mean chunk time sampled during it,
or during the ``WINDOW`` seconds about its middle when it is shorter: it
reads as seconds on a host that runs the chunk in ``REF_CHUNK_S``, and a
program that gets slower by some share still reads that much slower.  The
time spent in the timer handler is counted in ``spent`` and taken out of
the timing it interrupted.

The chunk allocates no container object, so it never starts a garbage
collection inside the program.
"""

import bisect
import signal
import statistics
from time import perf_counter

PERIOD = 0.05
WINDOW = 0.5
REF_LOOPS = 3000
# About the chunk's time on the 2-vCPU Intel Xeon host, Python 3.11, where
# bench/baseline.json was recorded; it only sets the scale of the numbers.
REF_CHUNK_S = 2.5e-4


def _chunk():
    s = 0
    for i in range(REF_LOOPS):
        s += i * i % 7
    return s


class HostSpeed:
    """Samples the reference chunk from SIGALRM between start() and stop()."""

    def __init__(self):
        self.starts = []
        self.samples = []
        self.spent = 0.0

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        t0 = perf_counter()
        _chunk()
        t1 = perf_counter()
        self.starts.append(t0)
        self.samples.append(t1 - t0)
        self.spent += perf_counter() - t0

    def spent_since(self, spent):
        """Handler time since ``self.spent`` read ``spent``."""
        return self.spent - spent

    def scale(self, t0, t1):
        """Factor from wall seconds in [t0, t1] to reference-host seconds."""
        middle, half = (t0 + t1) / 2, WINDOW / 2
        lo = bisect.bisect_left(self.starts, min(t0, middle - half))
        hi = bisect.bisect_right(self.starts, max(t1, middle + half))
        taken = self.samples[lo:hi]
        if not taken:
            t0 = perf_counter()
            _chunk()
            taken = [perf_counter() - t0]
        return REF_CHUNK_S / statistics.fmean(taken)
