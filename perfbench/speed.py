"""The machine's current speed, measured beside every timed run.

The benchmark runs on a few cores of a shared host whose speed changes by up
to 2x over seconds to minutes, as other tenants come and go: a request that
takes 22 ms in one minute takes 44 ms in the next, and so does everything
else, the interpreter's start-up included.  So the benchmark runs a fixed
calibration kernel between timed runs, pure Python of the same kind as the
program's own work (Fraction arithmetic, small tuples, sets and lists) that
calls nothing of zipcone, and scales each run's wall time by REF_KERNEL_S
over the kernel's time beside it.  The scaled time is the time the run would
take at the reference speed, at which the kernel takes REF_KERNEL_S; it
moves with the program's own cost, and it holds still when the host slows
everything alike (measured: raw 22-44 ms, scaled within +-4%).  Set-up,
which is import work, is scaled by a fixed import instead (REF_IMPORT).
"""
from __future__ import annotations

import signal
import time
from fractions import Fraction

# Best time of one kernel run on one core of the 2.0 GHz Xeon host the
# benchmark was written on, in its fast state.
REF_KERNEL_S = 175e-6
KERNEL_RUNS = 5
# during a run: kernel runs per tick, and seconds between ticks
TICK_KERNEL_RUNS = 2
TICK_S = 0.05
# Set-up is an import, and import work (finding, reading, unmarshalling and
# running modules) slows by 1.4x when the host slows the kernel by 1.7-2x, so
# set-up is scaled by a fixed import instead: these standard modules, timed
# in a fresh interpreter of their own right after each set-up, take
# REF_IMPORT_S (the median in the host's fast state) at the reference speed.
REF_IMPORT = "argparse, ast, dataclasses, email.parser, fractions, inspect, json, logging"
REF_IMPORT_S = 0.030


def kernel():
    acc, seen, rows = Fraction(0), set(), []
    for i in range(1, 40):
        acc += Fraction(i % 7 - 3, i)
        v = tuple((i * j) % 11 - 5 for j in range(6))
        seen.add(v)
        rows.append([a * 3 - b for a, b in zip(v, v[1:])])
    return acc, len(seen), sum(map(sum, rows))


def kernel_time(runs: int = KERNEL_RUNS) -> float:
    """Best wall time of `runs` runs of the kernel."""
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    """Times a sequence of runs in one process at the reference speed.

    The kernel runs once before the first run and once after each, and,
    during a run, from a SIGALRM handler every TICK_S seconds, so that a
    long run in which the host changes speed is scaled piece by piece.  The
    time spent in the handler is taken out of the run's wall time."""

    def __init__(self):
        self.last = kernel_time()
        self.ticks = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        k = kernel_time(TICK_KERNEL_RUNS)
        self.ticks.append((t0, time.perf_counter(), k))

    def time(self, fn):
        """Call fn(); returns (its result, wall s, CPU s, wall s at reference speed)."""
        self.ticks, before = [], self.last
        previous = signal.signal(signal.SIGALRM, self._tick)
        c0, t0 = time.process_time(), time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1, c1 = time.perf_counter(), time.process_time()
            signal.signal(signal.SIGALRM, previous)
        # a tick may land between fn's return and t1, never after t1
        ticks = [tick for tick in self.ticks if tick[1] <= t1]
        self.last = kernel_time()
        wall = scaled = 0.0
        marks = [(t0, t0, before)] + ticks + [(t1, t1, self.last)]
        for (_, start, k0), (end, _, k1) in zip(marks, marks[1:]):
            wall += end - start
            scaled += (end - start) * 2 * REF_KERNEL_S / (k0 + k1)
        cpu = c1 - c0 - sum(end - start for start, end, _ in ticks)
        return result, wall, cpu, scaled
