"""The host's speed, measured with a fixed reference task, so that op times
can be given at one reference speed.

On a shared VM the same pure-Python work runs up to 1.7x slower in some
stretches of tens of seconds than in others, whatever the program does.  A
fixed task timed next to the ops slows down by the same factor: over 10-second
windows of two minutes on a 2-vCPU Xeon VM, an ``intervals`` op's median time
varied 1.65x and that of a task like ``reference_task`` 1.70x, but their ratio
only 1.09x.  An op time divided by the host factor, the reference task's time
near the op over ``REF_NOMINAL_S``, is the time the op takes at the reference
speed.

The reference task runs in a thread of the benchmark's own process, not in
the program's: run inside the program's process between two steps of an op,
it took about 1.4x longer than in a process of its own, because the op's
working set shared the caches with it, so the factor would have moved with
the program's memory use.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import threading
import time

# The reference task's time at the reference speed: a round figure between
# its times on a 2-vCPU Xeon VM in faster and slower stretches (0.7-1.4 ms).
REF_NOMINAL_S = 0.001
# Time between two samples of the reference task.
INTERVAL_S = 0.05
# Samples up to this far before a span's start or after its end count for it.
WINDOW_S = 0.5


def reference_task() -> int:
    """Fixed pure-Python work of the kind zflab does: hashing small
    frozensets, dict updates, sorting and tuple building."""
    counts: dict = {}
    for i in range(1000):
        key = frozenset((i % 7, i % 11, (i * 3) % 13))
        counts[key] = counts.get(key, 0) + 1
        tuple(sorted(key))
    return len(counts)


def time_reference() -> float:
    """One timed run of the reference task, with the cyclic garbage collector
    held off, so that the sample never includes a collection."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_task()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Monitor:
    """Times the reference task every ``INTERVAL_S`` seconds in a thread,
    while the program runs in another process (one reference task at a time,
    about 2 % of one CPU).  ``time.perf_counter`` is the system's monotonic
    clock, so spans timed in the program's process can be looked up here.

        with Monitor() as monitor:
            ...
        monitor.factor(start, end)
    """

    def __init__(self):
        self.at: list = []
        self.factors: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "Monitor":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while True:
            start = time.perf_counter()
            took = time_reference()
            self.at.append((start + time.perf_counter()) / 2)
            self.factors.append(took / REF_NOMINAL_S)
            if self._stop.wait(INTERVAL_S):
                return

    def factor(self, start: float, end: float) -> float:
        """The host factor over [start, end]: the median of the samples up
        to ``WINDOW_S`` seconds before or after it, or the nearest sample if
        there is none."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:
            lo = min(range(len(self.at)), key=lambda i: abs(self.at[i] - start))
            hi = lo + 1
        return statistics.median(self.factors[lo:hi])
