"""Host speed, read from a fixed reference kernel timed during the run.

The benchmark runs on a few cores of a shared host whose speed drifts:
a fixed op can take 1.6 times as long from one second to the next, and
slow spells can cover whole runs.  Wall-clock figures then measure the
host as much as the program.  To keep them comparable, a timed run
times its ops in CPU time of the one thread that runs them, which
leaves out time the host took the core away, and it samples a small
stdlib-only kernel (a breadth-first search over a fixed random graph,
with tuple, set and Fraction work) from a SIGPROF handler every
SAMPLE_EVERY_S of CPU time, also in the middle of long ops.  Each op's
time is scaled by REF_S over the kernel's median time around that op,
which takes out the drift in how fast the host runs the thread when it
does.  A figure therefore reads as the op's time on an unloaded host
where the kernel takes REF_S.  The kernel never calls routerlab, so a
change to the program moves the scaled figures as it moves the raw
ones.

Speed.clock() is the run's program clock: the thread's CPU time minus
the time spent in the kernel, so that sampling adds nothing to any
timed interval.
"""

import bisect
import random
import signal
import statistics
import time
from fractions import Fraction

REF_S = 0.001           # the kernel's time on the reference host
SAMPLE_EVERY_S = 0.02   # CPU time between kernel samples
WINDOW_S = 0.5          # samples this close to an interval describe it
MIN_SAMPLES = 15        # else the nearest this many samples are used


def _graph():
    rng = random.Random(20261018)
    n = 600
    adj = {v: set() for v in range(n)}
    for v in range(n):
        for _ in range(3):
            u = rng.randrange(n)
            if u != v:
                adj[v].add(u)
                adj[u].add(v)
    return adj


class Speed:
    """Kernel samples (program-clock time, seconds) over one run, and
    the scale factor they give for any interval of it.  Use as a
    context manager: sampling runs while the block does."""

    def __init__(self):
        self.adj = _graph()
        self.at = []
        self.times = []
        self.stolen = 0.0       # CPU seconds spent in samples so far
        self._busy = False
        self.kernel()           # warm-up, not recorded

    def kernel(self):
        adj = self.adj
        dist = {0: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for v in frontier:
                d = dist[v] + 1
                for u in adj[v]:
                    if u not in dist:
                        dist[u] = d
                        nxt.append(u)
            frontier = nxt
        ranked = sorted(dist.items(), key=lambda x: (x[1], -x[0]))
        acc = Fraction(0)
        for v, d in ranked[:40]:
            acc += Fraction(d + 1, v % 7 + 1)
        return acc

    def clock(self):
        return time.thread_time() - self.stolen

    def _sample(self, _signum, _frame):
        if self._busy:
            return
        self._busy = True
        at = self.clock()
        t0 = time.thread_time()
        self.kernel()
        dt = time.thread_time() - t0
        self.stolen += dt
        self.at.append(at)
        self.times.append(dt)
        self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old)

    def factor(self, a, b):
        """REF_S over the median kernel time around [a, b] (program
        clock)."""
        lo = bisect.bisect_left(self.at, a - WINDOW_S)
        hi = bisect.bisect_right(self.at, b + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            near = sorted(range(len(self.at)),
                          key=lambda i: max(a - self.at[i], self.at[i] - b))
            picked = [self.times[i] for i in near[:MIN_SAMPLES]]
        else:
            picked = self.times[lo:hi]
        return REF_S / statistics.median(picked)

    def summary(self):
        """(median kernel seconds, sample count) over the run."""
        return statistics.median(self.times), len(self.times)
