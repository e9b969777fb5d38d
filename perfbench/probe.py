"""Verdict tally and per-layer tracing for one benchmark process.

The benchmark times its own calls into wittkit: ``Probe.wrap`` hands back
the library function itself when tracing is off, so an untraced run pays
nothing, and a timing wrapper when it is on.  Layer calls made by the
benchmark never nest, so a layer's time is its self time.  Hot calls such
as ``drw.act`` run millions of times, so layers keep aggregated counters
(calls, seconds) and only jobs get spans; trace memory stays bounded by the
number of jobs.
"""

import signal
import statistics
import time
import traceback

clock = time.perf_counter


def pace_loop(n=300):
    """Fixed interpreter work: tuple keys, dict updates, integer arithmetic."""
    d = {}
    s = 0
    for i in range(n):
        k = (i & 31, i >> 2)
        d[k] = d.get(k, 0) + i * 7 % 13
        s += len(d)
    return s


class Pace:
    """Wall time rescaled to a reference processor speed.

    On a shared host a vCPU's speed changes by up to 1.7x within seconds,
    most likely as the other hardware thread of its core gets busy or idle.  While
    running, a SIGALRM handler times ``pace_loop`` every ``PERIOD`` seconds
    on the same processor as the work.  Each slice of the run between two
    samples is then counted as ``REF_S / t`` of its length, with ``t`` the
    median loop time of the samples around it: a run that the machine
    slowed down reads about as long as one it did not, while work added or
    removed by the program shows in full.  ``REF_S`` is a fixed round
    figure, so the result is in seconds of a machine on which the loop
    takes that long (a 2.1 GHz x86-64 vCPU with CPython 3.11 takes 0.6 to
    1.0 times it).
    """

    PERIOD = 0.05
    REF_S = 1e-4
    WINDOW = 5  # samples in the median that smooths a slice's loop time

    def __init__(self):
        self.samples = []  # (start of the loop, its duration)
        self.loops = []    # the loop times; one at least
        self.start = self.stop = None

    def _sample(self, signum, frame):
        t0 = clock()
        pace_loop()
        self.samples.append((t0, clock() - t0))

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        self.start = clock()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        if not self.samples:  # a run shorter than one period
            self._sample(None, None)
        self.stop = clock()
        self.loops = [dt for _t, dt in self.samples]

    def seconds(self):
        """The run's duration at the reference speed; the sampling's own
        time is left out."""
        loops, half = self.loops, self.WINDOW // 2
        total, prev = 0.0, self.start
        for k, (t, dt) in enumerate(self.samples):
            total += (t - prev) / statistics.median(loops[max(0, k - half):
                                                         k + half + 1])
            prev = t + dt
        total += (self.stop - prev) / statistics.median(loops[-half - 1:])
        return total * self.REF_S

    def raw_seconds(self):
        """The run's wall time, the sampling's own time included."""
        return self.stop - self.start


class Tally:
    """Counts verdicts: every check compares two routes or a known answer."""

    KEEP = 5  # failure descriptions kept for the record

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples = []
        self.context = ""  # the running job, named in failure descriptions

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self._fail(what)

    def check_each(self, oks, whats):
        self.attempted += len(oks)
        if not all(oks):
            for ok, what in zip(oks, whats):
                if not ok:
                    self._fail(what)

    def bulk(self, attempted, failed, what):
        """Checks made inside one library call that reports its failures."""
        self.attempted += attempted
        if failed:
            self._fail("%s (%d of %d)" % (what, failed, attempted), failed)

    def error(self, exc):
        """A library exception inside a job counts as one failed check."""
        self.attempted += 1
        self._fail("".join(
            traceback.format_exception_only(type(exc), exc)).strip())

    def _fail(self, what, count=1):
        self.failed += count
        if len(self.examples) < self.KEEP:
            self.examples.append("%s: %s" % (self.context, what))


class Probe:
    """Layer timers, work counters and job spans of one process."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.layers = {}   # layer -> [calls, seconds]
        self.counts = {}   # counter -> int
        self.spans = []
        self._stack = []

    def wrap(self, layer, fn, calls=1):
        """fn, timed under layer when tracing; each call of fn counts as
        ``calls`` calls into the layer (a batch of hot calls is timed once,
        which keeps the timer's own cost out of the layer's share)."""
        if not self.enabled:
            return fn
        slot = self.layers.setdefault(layer, [0, 0.0])

        def timed(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                slot[1] += clock() - t0
                slot[0] += calls
        return timed

    def count(self, name, k):
        self.counts[name] = self.counts.get(name, 0) + k

    def begin(self, name):
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            span = {"id": len(self.spans), "name": name, "parent": parent,
                    "start": clock(), "end": None}
            self.spans.append(span)
            self._stack.append(span["id"])

    def end(self):
        if self.enabled:
            self.spans[self._stack.pop()]["end"] = clock()
