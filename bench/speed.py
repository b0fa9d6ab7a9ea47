"""Host speed, sampled on the measuring thread while the passes run.

The benchmark shares its CPUs with other tenants.  On the host it was
written on, a fixed pure-Python loop pinned to one CPU ran at about 0.31 s
most of the time and at 0.18-0.23 s for stretches of seconds to minutes,
whatever the benchmark's other CPU was doing, and pass wall times moved
with it by a quarter between otherwise identical runs.  No hardware
counters are exposed there.

So a timer signal runs a small fixed reference loop every SAMPLE_INTERVAL_S
on the measuring thread itself and records how long it took.  A problem's
time in reference units is its wall time, less the sampler's own time,
divided by the mean reference time sampled during it: the cost of the
program in units of what the host could do at that moment.  On a pass of
polyhedral_roundtrip this cut the spread of repeated passes from a CV of
11% in wall time to 2.7%.
"""

import signal
from array import array
from fractions import Fraction
from time import perf_counter

SAMPLE_INTERVAL_S = 0.05
# Fewer samples than this within a problem: use its pass's mean instead.
MIN_LOCAL_SAMPLES = 5

_ROWS = [tuple(Fraction(i * j + 1, j + 2) for j in range(9))
         for i in range(3)]
_EXPS = [tuple((i * 7 + j * 3) % 5 for j in range(9)) for i in range(6)]


def reference_loop():
    """A fixed piece of the work grobfan does most: weight-row comparisons
    of exponent tuples in rational arithmetic, and dict updates."""
    seen = {}
    sign = 0
    for a in _EXPS:
        for b in _EXPS:
            for row in _ROWS:
                s = 0
                for w, x, y in zip(row, a, b):
                    s += w * (x - y)
                if s != 0:
                    sign += 1 if s > 0 else -1
                    break
            seen[a] = seen.get(a, 0) + 1
    return sign


class SpeedSampler:
    """While entered, times reference_loop every SAMPLE_INTERVAL_S of wall
    time on the main thread; samples are (start, duration) pairs."""

    def __init__(self):
        self.starts = array("d")
        self.durations = array("d")
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        reference_loop()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def window(self, t0, t1):
        """(count, total duration) of the samples started in [t0, t1)."""
        count, total = 0, 0.0
        for start, dur in zip(self.starts, self.durations):
            if t0 <= start < t1:
                count += 1
                total += dur
        return count, total


def in_reference_units(intervals, sampler):
    """Each (start, end) interval of one pass in reference units.

    The sampler's own time inside an interval is taken off its wall time;
    the rest is divided by the mean sample duration within the interval,
    or within the whole pass when the interval holds too few samples.
    """
    windows = [sampler.window(t0, t1) for t0, t1 in intervals]
    count = sum(n for n, _ in windows)
    if not count:
        raise RuntimeError("no host speed samples during the pass")
    pass_mean = sum(total for _, total in windows) / count
    out = []
    for (t0, t1), (n, total) in zip(intervals, windows):
        mean = total / n if n >= MIN_LOCAL_SAMPLES else pass_mean
        out.append((t1 - t0 - total) / mean)
    return out
