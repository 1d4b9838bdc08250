"""In-memory spans for the traced benchmark run.

A :class:`Recorder` wraps functions so that every call records one span
``[layer, start, end, parent, count]`` in a flat list.  ``parent`` is the
index of the enclosing span on the same thread (``-1`` at the top), so the
list is a forest and the self time of a span is its duration minus the
durations of its direct children.  ``count`` is an optional number the
layer reports about its result (markings enumerated, codes checked).

Spans are only appended while the run is going; they are written out when
it ends (:meth:`Recorder.dump`).
"""

from __future__ import annotations

import functools
import json
import threading
import time

#: span record fields, by position
LAYER, START, END, PARENT, COUNT = range(5)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn, count=None):
        """Return ``fn`` wrapped so each call records a ``layer`` span."""
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            record = [layer, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[END] = clock()
            if count is not None:
                record[COUNT] = count(result)
            return result

        return wrapper

    def dump(self, path) -> None:
        """Write the spans out, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def self_times(spans) -> dict[str, float]:
    """Seconds per layer, each span counted minus its direct children."""
    children = [0.0] * len(spans)
    for record in spans:
        if record[PARENT] >= 0:
            children[record[PARENT]] += record[END] - record[START]
    totals: dict[str, float] = {}
    for index, record in enumerate(spans):
        own = record[END] - record[START] - children[index]
        totals[record[LAYER]] = totals.get(record[LAYER], 0.0) + own
    return totals


def inclusive_times(spans) -> dict[str, float]:
    """Seconds per layer over its outermost spans (nested repeats once)."""
    totals: dict[str, float] = {}
    for record in spans:
        parent = record[PARENT]
        nested = False
        while parent >= 0:
            if spans[parent][LAYER] == record[LAYER]:
                nested = True
                break
            parent = spans[parent][PARENT]
        if not nested:
            duration = record[END] - record[START]
            totals[record[LAYER]] = totals.get(record[LAYER], 0.0) + duration
    return totals


def calls(spans) -> dict[str, int]:
    """Number of spans per layer."""
    totals: dict[str, int] = {}
    for record in spans:
        totals[record[LAYER]] = totals.get(record[LAYER], 0) + 1
    return totals


def counts(spans) -> dict[str, int]:
    """Sum of the reported result counts per layer."""
    totals: dict[str, int] = {}
    for record in spans:
        totals[record[LAYER]] = totals.get(record[LAYER], 0) + record[COUNT]
    return totals
