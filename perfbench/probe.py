"""Host-speed probe, so that timings do not follow the host's drift.

The benchmark shares a 2-core host whose speed drifts: a fixed piece of
pure-Python work has been seen to take 40% longer for stretches of
seconds to minutes, and a workload's wall time follows it (a 0.94
correlation between the two, sampled every 90 ms).  So while it
measures, the benchmark times a small fixed probe from a SIGALRM handler
every ``INTERVAL_S``, and reports each measured interval as the seconds
it would take at the speed where one probe takes ``NOMINAL_S``: its wall
time, less the probes run inside it, times ``NOMINAL_S`` over the mean
probe time near it.  The probe uses only the standard library, so a
change to the verifier cannot move it; like the verifier's kernel it
multiplies sparse polynomials with rational coefficients held in dicts.
"""

import bisect
import signal
import time
from array import array
from fractions import Fraction

NOMINAL_S = 0.001
INTERVAL_S = 0.025
# probes this close to an interval also count towards its speed, which
# gives a 10 ms interval a few probes to average
WINDOW_S = 0.1

_TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(4)}


def probe_work():
    acc = {}
    for (i1, j1), c1 in _TERMS.items():
        for (i2, j2), c2 in _TERMS.items():
            key = (i1 + i2, j1 + j2)
            acc[key] = acc.get(key, 0) + c1 * c2
    return acc


def probe_seconds():
    started = time.perf_counter()
    probe_work()
    return time.perf_counter() - started


class SpeedSampler:
    """Probe times sampled on a timer while the sampler is entered."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self._previous = None

    def _sample(self, _signum, _frame):
        started = time.perf_counter()
        probe_work()
        self.at.append(started)
        self.took.append(time.perf_counter() - started)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start, end):
        """Seconds of the interval [start, end] at the nominal speed."""
        if not self.at:
            raise RuntimeError("no probe ran while measuring")
        inside = sum(self.took[bisect.bisect_left(self.at, start):
                               bisect.bisect_left(self.at, end)])
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:
            lo = min(lo, len(self.at) - 1)
            hi = lo + 1
        speed = sum(self.took[lo:hi]) / (hi - lo)
        return (end - start - inside) * NOMINAL_S / speed
