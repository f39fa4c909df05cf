"""In-memory spans and the per-layer time arithmetic over them.

A :class:`Tracer` records one :class:`Span` per wrapped call: its layer,
name, thread, start and end, and the span that caused it.  A span opened
on a thread that has no open span of its own (a shard worker of a
threaded fleet) is parented to the innermost open span of the thread
that created the tracer, which is the dispatching ``ShardedOperator``
call.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    thread: int
    start: float
    end: float = 0.0
    ref: int | None = None
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; ``open``/``close`` must nest per thread."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: list[Span] = []
        self._clock = clock
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = defaultdict(list)
        self._ids = itertools.count()
        self._home = threading.get_ident()

    def open(self, layer: str, name: str) -> Span:
        thread = threading.get_ident()
        with self._lock:
            stack = self._stacks[thread]
            if stack:
                parent = stack[-1].id
            else:
                home = self._stacks[self._home]
                parent = home[-1].id if home else None
            span = Span(next(self._ids), parent, layer, name, thread, 0.0)
            stack.append(span)
        span.start = self._clock()
        return span

    def close(self, span: Span) -> None:
        span.end = self._clock()
        with self._lock:
            stack = self._stacks[span.thread]
            if not stack or stack[-1] is not span:
                raise RuntimeError(f"span {span.name!r} closed out of order")
            stack.pop()
            self.spans.append(span)


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_times(spans) -> dict[str, dict[str, float]]:
    """``calls``, ``busy_s`` and ``self_s`` per layer.

    ``busy_s`` sums the spans that have no ancestor in the same layer,
    so a layer calling itself is not counted twice.  A span's self time
    is its duration minus the part of it covered by its children, on
    whatever thread they ran; busy time summed over threads can exceed
    wall time, self time never double-counts a waiting parent.
    """
    by_id = {span.id: span for span in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0}
    )
    for span in spans:
        entry = out[span.layer]
        entry["calls"] += 1
        entry["self_s"] += span.duration - covered(
            span.start, span.end, children.get(span.id, ())
        )
        ancestor = by_id.get(span.parent)
        while ancestor is not None and ancestor.layer != span.layer:
            ancestor = by_id.get(ancestor.parent)
        if ancestor is None:
            entry["busy_s"] += span.duration
    return dict(out)


def as_rows(spans) -> list[list]:
    """Spans as plain lists for writing out as JSON."""
    return [
        [s.id, s.parent, s.layer, s.name, s.thread, s.start, s.end, s.ref]
        for s in spans
    ]
