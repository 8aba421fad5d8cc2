"""A probe of the host core's speed, taken during every pass.

On a shared host the same pass can take 1.5x as long for minutes at a
time, because the speed of the core it runs on swings (CPU time swings
with it; steal time stays near 0). Every pass therefore runs a
``SpeedProbe``: a thread that wakes every ``INTERVAL_S`` seconds and
times a fixed pure-Python loop. The pass process is pinned to one CPU,
so the loop runs on the core the program runs on, interleaved with it.
The end-to-end times are host seconds scaled to a reference core, on
which the loop takes ``REFERENCE_LOOP_S``::

    scaled = host seconds * REFERENCE_LOOP_S / median loop time

with the median taken over the loops timed in the same window. The
loop and the reference are fixed, so a change to the program moves the
scaled time as it moves the host time; only the host's speed is taken
out. The loops take under 1 % of a pass.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

__all__ = [
    "INTERVAL_S",
    "LOOP_ITERATIONS",
    "REFERENCE_LOOP_S",
    "SpeedProbe",
    "pin_to_one_cpu",
    "time_loop",
]

INTERVAL_S = 0.005
LOOP_ITERATIONS = 1000
#: Loop time of the reference core; about this host's median.
REFERENCE_LOOP_S = 60e-6


def pin_to_one_cpu() -> None:
    """Pin this process, and the threads it starts, to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def time_loop() -> tuple[float, float]:
    """``(start, seconds)`` of one run of the fixed loop."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    return start, time.perf_counter() - start


class SpeedProbe:
    """Times the fixed loop every ``INTERVAL_S`` seconds while open."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.samples.append(time_loop())

    def __enter__(self) -> SpeedProbe:
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def loop_seconds(self, start: float, end: float) -> float:
        """Median loop time of the samples taken in ``[start, end]``.

        A window too short to hold a sample times the loop once now.
        """
        inside = [seconds for at, seconds in self.samples if start <= at <= end]
        return statistics.median(inside) if inside else time_loop()[1]

    def scaled(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured in ``[start, end]``, on the reference core."""
        return seconds * REFERENCE_LOOP_S / self.loop_seconds(start, end)
