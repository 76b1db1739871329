"""Span recording and self-time arithmetic for the traced benchmark run.

A wrapped function records one span per call: its name, start and end on
the monotonic clock, the span that was open when it was called (its
parent) and whether an exception passed through it. Spans are kept in
memory and aggregated once the traced command has returned.

The self time of a span is its duration minus the part of its interval
that its child spans cover, so the self times of all spans under a root
add up to the root's duration.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: Optional[int] = None
    failed: bool = False


# after(args, kwargs, result) runs once a call has returned, outside its span
AfterHook = Callable[[tuple, dict, object], None]


class Tracer:
    """Collects spans from wrapped functions; one open-span stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             after: Optional[AfterHook] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, 0.0, parent=stack[-1] if stack else None)
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = self.clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(children.get(index, ())):
            lo = max(lo, cursor)
            hi = min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((span.end - span.start) - covered)
    return out


@dataclass
class SpanTotals:
    calls: int = 0
    self_s: float = 0.0
    failed: int = 0


def aggregate(spans: list[Span]) -> tuple[dict[str, SpanTotals],
                                          dict[tuple[str, str], float]]:
    """Totals per span name, and self time per (name, parent name)."""
    totals: dict[str, SpanTotals] = defaultdict(SpanTotals)
    under: dict[tuple[str, str], float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        t = totals[span.name]
        t.calls += 1
        t.self_s += own
        t.failed += int(span.failed)
        parent = spans[span.parent].name if span.parent is not None else ""
        under[(span.name, parent)] += own
    return dict(totals), dict(under)


def layer_self_times(totals: dict[str, SpanTotals],
                     layers: Iterable[str]) -> dict[str, float]:
    """Self time per layer, a layer being the first part of a span name."""
    out = {layer: 0.0 for layer in layers}
    for name, t in totals.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + t.self_s
    return out
