"""Spans recorded from the benchmark's side of each call into ``pcsm``.

A span has a name, a start, an end and a parent.  Spans nest on one
stack (the simulator is single-threaded), so a span's self time is its
duration minus the durations of its direct children, and the self
times of every span under a root add up to the root's duration.

Memory stays bounded however many calls a sweep makes: per-name
totals are folded in as each span closes, and only the first
``keep`` spans are retained for writing out.
"""

from __future__ import annotations

import itertools
import json
import time
from functools import wraps


class Tracer:
    """Span stack with per-name count, busy time and self time."""

    def __init__(self, clock=time.perf_counter, keep: int = 50_000):
        self.clock = clock
        self.keep = keep
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.dropped = 0
        self._ids = itertools.count()
        # open spans, innermost last: [span id, seconds covered by children]
        self._stack: list[list] = []
        # name -> [calls, busy seconds, self seconds, open depth]
        self.totals: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.samples: dict[str, list[float]] = {}

    def reset(self) -> None:
        """Zero the per-name totals, in place; retained spans are kept."""
        for acc in self.totals.values():
            acc[:] = [0, 0.0, 0.0, acc[3]]
        self.counts.clear()
        self.samples.clear()

    def wrap(self, name: str, fn, observe=None, sample: bool = False):
        """fn wrapped in a span; observe(result) runs after the span closes."""
        acc = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
        clock, stack, spans, ids = self.clock, self._stack, self.spans, self._ids
        durations = self.samples

        @wraps(fn)
        def traced(*args, **kwargs):
            acc[3] += 1
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                acc[0] += 1
                acc[3] -= 1
                if not acc[3]:
                    # busy time counts the outermost of nested same-name spans once
                    acc[1] += dur
                acc[2] += dur - frame[1]
                parent = None
                if stack:
                    stack[-1][1] += dur
                    parent = stack[-1][0]
                if len(spans) < self.keep:
                    spans.append((frame[0], parent, name, start, end))
                else:
                    self.dropped += 1
            if sample:
                durations.setdefault(name, []).append(dur)
            if observe is not None:
                observe(result)
            return result

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name and return its result."""
        return self.wrap(name, fn)(*args, **kwargs)

    def counter(self, name: str, fn):
        """fn wrapped to count calls, with no clock reads."""
        counts = self.counts

        @wraps(fn)
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def busy(self, name: str) -> float:
        acc = self.totals.get(name)
        return acc[1] if acc else 0.0

    def self_time(self, name: str) -> float:
        acc = self.totals.get(name)
        return acc[2] if acc else 0.0

    def calls(self, name: str) -> int:
        acc = self.totals.get(name)
        return acc[0] if acc else 0

    def self_sum(self) -> float:
        return sum(acc[2] for acc in self.totals.values())

    def write(self, path) -> None:
        """Retained spans as JSON lines, then a line with the count of dropped spans."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"dropped_spans": self.dropped}) + "\n")
