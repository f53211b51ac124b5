"""Measurement helpers: span recorder, self time, tail percentile, failure tally.

Pure standard library, so the runner can import it before numpy loads.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# Percentile ladder for the tail; the highest level that keeps at least
# TAIL_MIN_BEYOND samples above it is reported.
TAIL_LEVELS = (75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: int  # operation the span belongs to; -1 for set-up


class Tracer:
    """In-memory span recorder; spans nest through a stack.

    ``call`` wraps one call into the library, ``span`` brackets a block,
    ``count`` records one value of a counter, such as the bytes one call
    moved.
    """

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, list[float]] = {}
        self.op = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.op))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(value)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self, name: str) -> list[float]:
        """Self time of every span called ``name``."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        return [
            self_time((s.start, s.end), children.get(i, []))
            for i, s in enumerate(self.spans)
            if s.name == name
        ]


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False

    @contextmanager
    def span(self, name: str):
        yield

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, value: float) -> None:
        pass


def covered(interval: tuple[float, float], parts: list[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for a, b in sorted(parts):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_time(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """A span's duration minus the part of it that its children cover."""
    return (interval[1] - interval[0]) - covered(interval, children)


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples above it.

    Returns ``(level, value)`` using the nearest-rank percentile, or None
    when there are too few samples for any level.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for level in TAIL_LEVELS:
        rank = math.ceil(level * n / 100.0 - 1e-9)  # guard float error on exact ranks
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            best = (level, ordered[rank - 1])
    return best


@dataclass
class Tally:
    """Attempted and failed operations; a failure is an exception, a non-zero
    exit or a missed correctness check."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason or "check failed")

    @property
    def fail_frac(self) -> float:
        if self.attempted == 0:
            raise ValueError("no operation attempted")
        return self.failed / self.attempted
