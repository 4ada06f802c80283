"""Machine-speed normalisation of timings taken on a shared host.

On a shared host the same code runs up to about 1.8x slower for spells
that last from under a second to minutes, and every kernel slows alike.
A spell can cover a whole run, so neither a median nor a fastest repeat
removes it, and a spell can also start or end in the middle of a timed
unit. The benchmark therefore reads the machine's speed, by timing a
fixed reference kernel, right before and right after each timed unit,
and also every ``interval`` seconds from a timer signal, so long units
are read during their run too. Each unit is scaled to a fixed reference
speed:

    normalised = measured * reference_ns / probe_ns

Here probe_ns is the mean of the readings from the one right before the
unit to the one right after it, so a unit of seconds is scaled by the
speed over its whole length and a unit of milliseconds by the speed
around it. A unit's measured time excludes the time spent in readings
taken during it. The kernel is the benchmark's own code, not
rowcolproj's, so a change to the program cannot move it. reference_ns
is the kernel's time on the development machine in a quiet spell (see
REFERENCE_NS). On other hardware every normalised figure is off by one
constant factor, and that factor cancels when two commits are compared
there. run.py keeps the raw times next to the normalised ones in its
record.
"""

import signal
from contextlib import contextmanager
from time import perf_counter, perf_counter_ns

import numpy as np

# Quiet-spell probe times, in ns per kernel call, on the development
# machine (2-vCPU Intel Xeon, KVM, Python 3.11, numpy 2.4, OpenBLAS 0.3).
REFERENCE_NS = {
    (4, 5): 9_800.0,
    (16, 24): 11_200.0,
    (256, 384): 470_000.0,
}


class SpeedProbe:
    """A fixed kernel shaped like one solver iteration: two matvecs, two outer
    products, a clip and a norm, on arrays of the workload's shape.

    The kernel writes into preallocated buffers. Large temporaries would
    make its time depend on the allocator's state (page faults) left by
    the code under test, rather than on the machine's speed.
    """

    def __init__(self, shape, calls):
        rng = np.random.default_rng(0)
        self.inputs = [rng.uniform(-100.0, 100.0, size=shape) for _ in range(calls)]
        self.e = np.ones(shape[1])
        self.f = np.ones(shape[0])
        self.y = np.empty(shape[0])
        self.x = np.empty(shape[1])
        self.P = np.empty(shape)
        self.Q = np.empty(shape)
        self.reference_ns = REFERENCE_NS[tuple(shape)]

    def _kernel(self, X):
        np.dot(X, self.e, out=self.y)
        np.dot(self.f, X, out=self.x)
        np.multiply.outer(self.y, self.e, out=self.P)
        np.subtract(X, self.P, out=self.P)
        np.multiply.outer(self.f, self.x, out=self.Q)
        np.subtract(self.P, self.Q, out=self.P)
        np.clip(self.P, 0.0, 50.0, out=self.Q)
        np.subtract(self.Q, self.P, out=self.Q)
        np.multiply(self.Q, self.Q, out=self.Q)
        return float(np.sqrt(self.Q.sum()))

    def read(self):
        """Median ns of one kernel call over the probe inputs.

        One untimed call first brings the buffers back into cache after
        the code under test has evicted them.
        """
        self._kernel(self.inputs[0])
        times = []
        for X in self.inputs:
            t = perf_counter_ns()
            self._kernel(X)
            times.append(perf_counter_ns() - t)
        return float(np.median(times))


class SpeedSampler:
    """Reads a SpeedProbe every ``interval`` seconds while active, and times units.

    The readings run in a SIGALRM handler, which Python calls in the main
    thread between bytecodes, so a reading never interrupts a numpy call.
    """

    def __init__(self, probe, interval):
        self.probe = probe
        self.interval = interval
        self.stamps = []        # perf_counter() at the middle of each reading
        self.readings = []      # ns per kernel call
        self.spent = 0.0        # seconds spent in readings so far

    def _sample(self, signum, frame):
        start = perf_counter()
        self.readings.append(self.probe.read())
        end = perf_counter()
        self.stamps.append((start + end) / 2)
        self.spent += end - start

    @contextmanager
    def active(self):
        """Sample while the block runs, with one reading at each end of it."""
        self._sample(None, None)
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample(None, None)

    def time(self, fn, *args):
        """Return fn(*args), its seconds net of readings, and its (start, end) span.

        A reading is taken right before and right after the call.
        """
        self._sample(None, None)
        spent, start = self.spent, perf_counter()
        result = fn(*args)
        end = perf_counter()
        elapsed = end - start - (self.spent - spent)
        self._sample(None, None)
        return result, elapsed, (start, end)

    def factors(self, spans):
        """Speed factor reference_ns / probe_ns of each (start, end) span."""
        order = np.argsort(self.stamps, kind="stable")   # a timer reading may nest in another
        stamps = np.asarray(self.stamps)[order]
        total = np.concatenate([[0.0], np.cumsum(np.asarray(self.readings)[order])])
        spans = np.asarray(spans, dtype=np.float64).reshape(-1, 2)
        first = np.maximum(np.searchsorted(stamps, spans[:, 0]) - 1, 0)
        stop = np.minimum(np.searchsorted(stamps, spans[:, 1]) + 1, len(stamps))
        return self.probe.reference_ns * (stop - first) / (total[stop] - total[first])
