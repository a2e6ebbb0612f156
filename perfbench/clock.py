"""Op timing corrected for the machine's speed at the time.

Shared virtual machines change speed under the benchmark: a run can spend
seconds to minutes up to 1.6x slower than the next, and every code path
slows by the same factor.  The clock therefore runs a fixed calibration
loop, which calls no fuzzmin code, before and after each op and every
SAMPLE_EVERY seconds inside it (from a SIGALRM handler), and reports each op
in reference milliseconds:

    ref_ms = net wall time * REFERENCE_MS / local calibration time

Net wall time leaves out the calibration samples taken inside the op.  The
local calibration time is the median of the samples taken within WINDOW
seconds of the op, so a speed change is tracked within about a second, while
a change to fuzzmin's own speed moves ref_ms exactly as it moves wall time.
REFERENCE_MS fixes the unit.  It is about what one calibration sample takes
between ops on the 2-vCPU VM (Python 3.11) the benchmark was built on, in
that machine's fast mode, so there ref_ms is close to wall milliseconds.
"""

from __future__ import annotations

import json
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter
from typing import Callable, TypeVar

T = TypeVar("T")

CALIBRATION_ITERATIONS = 400
JSON_ENTRIES = 120
REFERENCE_MS = 0.62
SAMPLE_EVERY = 0.05
WINDOW = 0.5


def _calibration_loop() -> int:
    """Dict, tuple and builtin-call work like fuzzmin's inner loops, then a
    JSON round trip like its document parsing and rendering.  Together they
    track the machine's speed on all three workloads' ops better than either
    part alone."""
    table = {}
    for i in range(CALIBRATION_ITERATIONS):
        key = (i & 255, i >> 8 & 7, i % 13)
        table[key] = max(map(min, key, (3, 200, 5)))
    document = {str(i): [i, 2 * i, "x" * (i % 5)] for i in range(JSON_ENTRIES)}
    return len(table) + len(json.loads(json.dumps(document)))


class SpeedClock:
    """Times calls and converts their wall time to reference milliseconds."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        _calibration_loop()

    def sample(self) -> None:
        start = perf_counter()
        _calibration_loop()
        self.samples.append((start, perf_counter() - start))

    def call(self, fn: Callable[[], T],
             net: bool = True) -> tuple[tuple[float, float, float], T]:
        """Run fn between calibration samples; ((start, end, net seconds), result).

        With net False the samples taken inside fn are not taken off its
        time: fn waits for a child process, which runs on the other CPU."""
        self.sample()
        first = len(self.samples)
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        start = perf_counter()
        try:
            result = fn()
        finally:
            end = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        inside = sum(seconds for _, seconds in self.samples[first:]) if net else 0.0
        self.sample()
        return (start, end, end - start - inside), result

    def speed_factor(self, start: float, end: float) -> float:
        """REFERENCE_MS / the median calibration time within WINDOW of [start, end]."""
        starts = [t for t, _ in self.samples]
        lo = bisect_left(starts, start - WINDOW)
        hi = bisect_right(starts, end + WINDOW)
        local = statistics.median(seconds for _, seconds in self.samples[lo:hi])
        return REFERENCE_MS / (1000 * local)

    def reference_ms(self, timings: list[tuple[float, float, float]]) -> list[float]:
        """Each (start, end, net seconds) from `call` in reference milliseconds."""
        return [1000 * net * self.speed_factor(start, end) for start, end, net in timings]
