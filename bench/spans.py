"""Spans and counts recorded by the benchmark's traced run.

A span is [operation id, name, start, end, parent index].  All spans of one
operation share its id, and a span's parent is the span that was open when
it started.  Spans stay in memory until `write` saves them when the run
ends.  Counts are kept only while `counting` is true, so that a run can
report the counts of one round of its operations, which repeat exactly.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.counting = True
        self.op_id = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [self.op_id, name, time.perf_counter(), None, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, n: int = 1) -> None:
        if self.counting:
            self.counts[name] += n

    def durations(self) -> dict[str, list[float]]:
        """Seconds per span, by name."""
        out: dict[str, list[float]] = {}
        for _, name, start, end, _ in self.spans:
            out.setdefault(name, []).append(end - start)
        return out

    def self_times(self) -> dict[str, list[float]]:
        """Seconds per span minus the time its children cover, by name."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, list[float]] = {}
        for i, (_, name, start, end, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for a, b in sorted(children.get(i, ())):
                a = max(a, reach)
                if b > a:
                    covered += b - a
                    reach = b
            out.setdefault(name, []).append(end - start - covered)
        return out

    def medians(self) -> dict[str, tuple[float, int, float]]:
        """(median seconds, calls, median self seconds) by span name."""
        selfs = self.self_times()
        return {
            name: (statistics.median(d), len(d), statistics.median(selfs[name]))
            for name, d in self.durations().items()
        }

    def export(self) -> dict:
        """Counts, and spans with times in seconds from the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        spans = [[op, name, s - t0, e - t0, parent] for op, name, s, e, parent in self.spans]
        return {"counts": dict(self.counts), "spans": spans}


def write(path, **parts) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(parts, fh)
