"""Machine speed sampled during a timed region, to scale its time to a nominal speed.

The host this benchmark was written on (2 vCPUs shared with other tenants)
changes speed by about 15% within seconds: a fixed pure-Python loop reads
0.12 s and 0.19 s a few seconds apart, on either CPU.  Wall time then
spreads more than a benchmark bound can allow.  ``Sampler`` times a region
and runs a short reference loop on entry, on exit and, from a ``SIGALRM``
handler, every ``INTERVAL_S`` seconds inside it, so the loop meets the
machine in the states the region met.  The region's time, without the loops
run inside it, is then scaled by ``REF_NOMINAL_S`` over the mean loop time.
A change to heptapile moves a scaled time in proportion to the wall time;
a slower machine slows the loop as well and cancels out.
"""

from __future__ import annotations

import signal
import statistics
import time

# The full reference loop's time that scaled times are expressed in: about
# its time on the host the benchmark was written on, so that scaled seconds
# read close to wall seconds there.  It fixes the scale only.
REF_NOMINAL_S = 0.16
FULL_LOOP = 2_000_000       # iterations of the full reference loop
SAMPLE_LOOP = 250_000       # iterations per sample, about 20 ms
INTERVAL_S = 0.25


def _loop(n: int) -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(n):
        total += i * i
    return time.perf_counter() - t0


class Sampler:
    """Context manager; after it, ``wall`` and ``scaled`` hold the region's seconds.

    ``reference_s`` is the mean sample, in full-loop seconds.  Only the main
    thread may use it, as it owns ``SIGALRM`` while active.
    """

    def __enter__(self):
        self._samples = []          # (start, seconds) of each reference loop
        self._sample()
        self._old = signal.signal(signal.SIGALRM, lambda *_: self._sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        inside = sum(s for start, s in self._samples if self._t0 <= start < t1)
        self._sample()
        self.wall = t1 - self._t0 - inside
        self.reference_s = (statistics.fmean(s for _, s in self._samples)
                            * FULL_LOOP / SAMPLE_LOOP)
        self.scaled = self.wall * REF_NOMINAL_S / self.reference_s
        return False

    def _sample(self) -> None:
        start = time.perf_counter()
        self._samples.append((start, _loop(SAMPLE_LOOP)))
