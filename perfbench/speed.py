"""Machine-speed probe that puts timings from a drifting host on one scale.

On a shared virtual machine the speed of a core drifts by 10-25 % over tens
of seconds as other tenants come and go, which is wider than any useful
regression bound. While a run measures, a SIGALRM timer interrupts the main
thread every `INTERVAL_S` and times a fixed pure-Python loop in thread CPU
time. A wall time measured over an interval is then reported as

    wall * REF_PROBE_S / median(probe times in that interval)

i.e. the time the work would have taken on a machine where the probe loop
takes `REF_PROBE_S`. The probe is a fixed piece of code outside the package,
so a change to the package moves the scaled time exactly as it moves the
wall time; only the host's drift is divided out. Raw wall times and the
probe medians are kept in the result file.

Signal handlers run in the main thread between bytecodes, so a long call
into native code delays a sample rather than splitting it. Worker processes
inherit the handler but not the timer, so they are never sampled.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.05
PROBE_LOOP = 3000
REF_PROBE_S = 200e-6   # about the median probe time on the 2-core reference VM


class SpeedProbe:
    def __init__(self):
        self.at: list[float] = []       # perf_counter when each sample ended
        self.cpu_s: list[float] = []    # thread CPU seconds of each probe loop
        self._old = None

    def _sample(self, signum, frame):
        c0 = time.thread_time()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i
        self.cpu_s.append(time.thread_time() - c0)
        self.at.append(time.perf_counter())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def median(self, t0: float, t1: float) -> float:
        """Median probe time over [t0, t1]; over every sample if none fell
        inside (an interval shorter than one probe period)."""
        lo, hi = bisect.bisect_left(self.at, t0), bisect.bisect_right(self.at, t1)
        window = self.cpu_s[lo:hi] or self.cpu_s
        return statistics.median(window) if window else REF_PROBE_S

    def scale(self, t0: float, t1: float) -> float:
        """Factor that puts a wall time measured over [t0, t1] on the
        reference scale."""
        return REF_PROBE_S / self.median(t0, t1)
