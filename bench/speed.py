"""The host's speed, read from a fixed reference loop while the ops run.

The shared host this benchmark was written on runs pure Python in two
states, fast and slow, about 1.7 times apart.  It flips between them
many times a second, and the share of time spent slow drifts over
minutes, so a whole run can be mostly slow and no estimator over one
run's passes sees past that.  The benchmark therefore reads the host's
speed with this loop, which shares no code with ryserplanes, and
reports each op's time at the reference speed: its measured time
divided by the mean slowness the loop saw while the op ran.  The loop
slows by the same factor as the solvers do in the slow state (1.70 for
`cover_number` against 1.71 for the loop, measured interleaved).
"""

import signal
import statistics
from time import perf_counter

REFERENCE_S = 0.001  # the loop's time at the reference speed
SAMPLE_EVERY_S = 0.1  # how often the loop runs inside an op
# samples fall near 1.0 (fast) or 1.5-1.9 (slow); the rare one far above
# was descheduled, not slowed, and would drag a short op's mean with it
SLOWNESS_CAP = 2.5


def _reference_loop(n=3_000):
    """Dict traffic, big-int bit operations and small-int arithmetic, the mix
    the solvers spend their time in."""
    seen, acc, mask = {}, 0, 0
    for i in range(n):
        k = (i * 7919) % 4099
        mask ^= 1 << (k & 127)
        acc += (mask & -mask).bit_length()
        seen[k] = seen.get(k, 0) + 1
    return acc + len(seen)


def slowness():
    """One run of the loop, timed, over REFERENCE_S: 1.0 at the reference
    speed, more on a slower host."""
    t0 = perf_counter()
    _reference_loop()
    return (perf_counter() - t0) / REFERENCE_S


def host_slowness(reps=5):
    """The median slowness of a few runs back to back."""
    return statistics.median(slowness() for _ in range(reps))


class Sampler:
    """Reads the host's slowness every SAMPLE_EVERY_S from a SIGALRM timer,
    and on demand.  `spent` is the time the timer's samples took, which
    the caller takes out of the op it interrupted."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def sample(self):
        self.samples.append(min(slowness(), SLOWNESS_CAP))

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        self.sample()
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mean_since(self, first):
        """Mean slowness of the samples from index `first` on."""
        return statistics.fmean(self.samples[first:])
