"""The machine's speed, sampled while a run measures.

The CPU this benchmark runs on changes speed within seconds and drifts over
minutes (README.md, "Keeping it steady").  A run therefore times a fixed
reference every few tenths of a second between its operations, and scales
each operation's time by the speed sampled around it: the reference's time
on the scale over the median of the samples within `WINDOW` seconds of the
operation's midpoint.  A scaled time reads as the time the operation would
take on a machine where the reference takes that long.  No reference
imports the program, so no change to the program can move it.

The default reference, `compute`, is about 2 ms of the kinds of work the
program does in process: `Fraction` arithmetic, big-integer bit operations,
hashing of small sets.  A workload whose operations are processes uses a
bare interpreter start instead (`workloads.Cli.speed`).
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction
from typing import Callable

WINDOW = 1.0  # seconds either side of an operation whose samples scale it
_FULL = (1 << 4096) - 1


def compute():
    acc = Fraction(0)
    bits = 0
    seen = {}
    for i in range(1, 240):
        acc += Fraction(i % 7 + 1, i * i + 3)
        bits += ((_FULL >> (i * 13 % 4000)) & (_FULL >> 7)).bit_count()
        seen[frozenset((i, i * 3 % 17))] = bits
    return acc, bits, len(seen)


class Speed:
    def __init__(self, reference: Callable[[], object] = compute, every: float = 0.1, scale_s: float = 0.002):
        self.reference = reference
        self.every = every  # seconds between samples
        self.scale_s = scale_s  # the reference's time on the scale
        self.mids: list[float] = []  # midpoint of each sample
        self.times: list[float] = []  # its duration, seconds
        self._last = float("-inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.reference()
        t1 = time.perf_counter()
        self.mids.append((t0 + t1) / 2)
        self.times.append(t1 - t0)
        self._last = t1

    def due(self) -> None:
        """Sample if `every` seconds have passed since the last sample."""
        if time.perf_counter() - self._last >= self.every:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """The factor that puts a time measured from `start` to `end` on the
        reference scale: from the samples within `WINDOW` seconds of its
        midpoint, or the three nearest if fewer lie there."""
        mid = (start + end) / 2
        lo, hi = bisect.bisect_left(self.mids, mid - WINDOW), bisect.bisect_right(self.mids, mid + WINDOW)
        if hi - lo < 3:
            i = bisect.bisect(self.mids, mid)
            near = sorted(range(max(0, i - 3), min(len(self.mids), i + 3)), key=lambda j: abs(self.mids[j] - mid))
            return self.scale_s / statistics.median(self.times[j] for j in near[:3])
        return self.scale_s / statistics.median(self.times[lo:hi])

    def median_ms(self) -> float:
        return statistics.median(self.times) * 1e3
