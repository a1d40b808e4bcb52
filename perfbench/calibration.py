"""Machine-speed calibration for the benchmark's time metrics.

The machines this benchmark runs on share their cores with other tenants:
the same pass can take half again as long a few minutes later, and the
host switches between a fast and a slow speed every second or so.  So the
benchmark times a fixed pure-Python loop while it measures, and reports
each end-to-end time in *reference seconds*: every stretch of work counts
its measured seconds times ``REFERENCE_S`` over the mean loop time around
and during it.  A slow phase of the host stretches the loop and the
workload alike and cancels out; a change to the planner moves only the
workload.

Loop timings are taken at checkpoints between stretches and, where a
stretch runs on the main thread with nothing else to share the interpreter
with, every ``INTERVAL_S`` during it from a timer signal; the time spent in
the signal handler is not counted as work.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator, List, Tuple

#: Loop time (s) that defines a reference second: work measured while the
#: loop takes exactly this long counts its measured seconds unchanged.
REFERENCE_S = 0.002
_ITERATIONS = 20_000
#: Loop timings per checkpoint, and the period of the timings taken
#: during a stretch.
CHECKPOINT_SAMPLES = 5
INTERVAL_S = 0.1


def loop_seconds() -> float:
    """One timing of the fixed loop (about 2 ms on a current server core)."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(1, _ITERATIONS + 1):
        acc += (i % 7) * 0.5 + i / 3.0
    return time.perf_counter() - start


class Stopwatch:
    """Work timed in stretches, with calibration checkpoints between them.

    Call :meth:`checkpoint` before the first stretch and after each one,
    and time each stretch with :meth:`stretch`.  With ``sample_during`` the
    loop is also timed from a timer signal while a stretch runs, which
    only the main thread may use.
    """

    def __init__(self, sample_during: bool = False) -> None:
        self.sample_during = sample_during
        #: (measured seconds, loop timings taken during the stretch)
        self.stretches: List[Tuple[float, List[float]]] = []
        self.checkpoints: List[List[float]] = []

    def checkpoint(self) -> None:
        self.checkpoints.append([loop_seconds() for _ in range(CHECKPOINT_SAMPLES)])

    @contextmanager
    def stretch(self) -> Iterator[None]:
        samples: List[float] = []
        handling = [0.0]

        def sample(signum, frame) -> None:
            start = time.perf_counter()
            samples.append(loop_seconds())
            handling[0] += time.perf_counter() - start

        previous = None
        if self.sample_during:
            previous = signal.signal(signal.SIGALRM, sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            if self.sample_during:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
            self.stretches.append((elapsed - handling[0], samples))

    @property
    def seconds(self) -> float:
        """Measured seconds of all stretches."""
        return sum(seconds for seconds, _ in self.stretches)

    @property
    def reference_seconds(self) -> float:
        """All stretches in reference seconds (see the module docstring)."""
        if len(self.checkpoints) != len(self.stretches) + 1:
            raise ValueError("every stretch needs a checkpoint before and after it")
        total = 0.0
        for (seconds, during), before, after in zip(self.stretches, self.checkpoints, self.checkpoints[1:]):
            total += seconds * REFERENCE_S / statistics.mean(during or before + after)
        return total

    @property
    def loop_mean(self) -> float:
        """Mean loop time over every timing taken."""
        timings = [s for point in self.checkpoints for s in point]
        timings += [s for _, during in self.stretches for s in during]
        return statistics.mean(timings)
