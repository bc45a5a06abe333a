"""In-memory spans recorded around calls into weylinv, and their arithmetic.

A span is (name, start, end, parent, run id).  Spans stay in a list until
the run ends; nothing is written while the workload is being timed.  The
library itself is not instrumented: every span wraps one call made from the
benchmark's own code.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same list
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans when enabled; when disabled every span is a no-op."""

    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str):
        return self._record(name) if self.enabled else nullcontext()

    @contextmanager
    def _record(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.run_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def spans_from_json(rows: list[dict]) -> list[Span]:
    return [Span(**row) for row in rows]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - _covered(children.get(i, []), s.start, s.end)
            for i, s in enumerate(spans)]


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        out[s.name] = out.get(s.name, 0.0) + t
    return out


def coverage(spans: list[Span], names, lo: float, hi: float) -> float:
    """Share of [lo, hi] covered by spans with the given names."""
    if hi <= lo:
        return 0.0
    picked = [(s.start, s.end) for s in spans if s.name in names]
    return _covered(picked, lo, hi) / (hi - lo)
