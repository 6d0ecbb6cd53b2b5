"""Host speed, read from a fixed reference loop, to put timings on one scale.

On a virtual machine whose CPUs are shared with other guests, the host
can run every instruction of this process up to about 1.7x slower for
minutes at a time, the program and any other code alike, while the guest
sees no steal time.  No statistic over one run removes a slow stretch
longer than the run.  So while a timed run measures, a timer signal
interrupts it every INTERVAL_S and times a short, fixed pure-Python loop
that calls nothing in baltri.  The loop's own time is taken out of the
job it interrupted, and each job's time is scaled by the mean loop time
during and around it:

    scaled = measured * NOMINAL_S / mean(loop times within WINDOW_S)

A scaled time is the time the job would take on a host where the loop
takes NOMINAL_S.  A change to baltri moves scaled and measured times
alike, since the loop does not depend on baltri.  The measured times are
reported beside the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time

NOMINAL_S = 0.0025  # the loop's time on an unloaded 2.1 GHz Xeon vCPU
LOOP_ITERATIONS = 20_000
INTERVAL_S = 0.1  # wall time between two loops
WINDOW_S = 1.0  # loop times this close to a timing scale it


def reference_loop():
    """Interpreter work alike to baltri's: dict, list and integer traffic."""
    table, items, total = {}, [], 0
    for i in range(LOOP_ITERATIONS):
        key = i % 211
        table[key] = table.get(key, 0) + i
        items.append(key)
        total += i * key % 7
    return total + len(items)


class HostSpeed:
    def __init__(self):
        self.samples = []  # (midpoint, seconds), in time order
        self.spent = 0.0  # seconds spent in the loop so far

    def sample(self, *_):
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.samples.append(((start + end) / 2, end - start))
        self.spent += end - start

    def __enter__(self):
        """Time the loop every INTERVAL_S until the block ends."""
        self.previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def scale(self, start, end):
        """Factor that puts a time measured over [start, end] on the nominal scale."""
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if len(near) < 3:
            gap = lambda t: max(start - t, t - end, 0)  # noqa: E731
            near = [s for t, s in sorted(self.samples, key=lambda ts: gap(ts[0]))[:3]]
        return NOMINAL_S / statistics.fmean(near)

    def summary(self):
        times = [s for _, s in self.samples]
        return {
            "loops": len(times),
            "loop_min_s": min(times),
            "loop_p50_s": statistics.median(times),
            "loop_mean_s": statistics.fmean(times),
            "loop_max_s": max(times),
            "nominal_s": NOMINAL_S,
        }
