"""Structured progress events of the pipeline and the scheduler.

Long-running consumers of the API (batch sweeps, the experiment tables, the
``repro`` CLI, the HTTP server) used to learn about progress through ad-hoc
prints, or not at all.  This module replaces that with one typed event
stream: producers (:class:`repro.api.pipeline.Pipeline`,
:class:`repro.api.scheduler.Scheduler`) call a single ``on_event`` callback
with :class:`Event` records, and consumers choose how to render or collect
them.

Event kinds
-----------

* ``stage`` — one pipeline stage resolved for one spec.  ``status`` tells
  how: ``computed`` (an actual stage computation), ``memory`` (in-process
  cache hit) or ``store`` (on-disk artifact store hit).
* ``job`` — one scheduler job changed state: ``start``, ``done``,
  ``retry`` (a retryable failure or timeout, about to run again),
  ``timeout``, or ``error``; ``index``/``total`` carry batch progress,
  ``attempt`` the 1-based execution attempt, ``detail`` a short
  human-readable summary (literal count, error text, backoff delay).
* ``worker`` — the fleet supervisor changed one worker slot: ``spawn``,
  ``respawn`` (crashed or hung, replaced) or ``recycle`` (served its
  ``max_requests`` budget, replaced); ``index`` is the slot, ``attempt``
  the new generation, ``detail`` the human-readable cause.

Consumers
---------

:class:`EventLog` collects events for inspection (used heavily by the
tests); :func:`progress_printer` renders one line per event to a stream —
the CLI's ``--progress`` view.  Both are plain callbacks: anything callable
with one :class:`Event` argument works, and exceptions raised by a consumer
are the consumer's problem (producers do not swallow them, so tests fail
loudly).
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from typing import Callable, Optional

#: the callback signature every producer accepts
EventCallback = Callable[["Event"], None]


@dataclass(frozen=True)
class Event:
    """One structured progress record."""

    kind: str  # "stage" | "job" | "worker"
    spec: str
    # stage: computed|memory|store — job: start|done|retry|timeout|
    # error — worker: spawn|respawn|recycle
    status: str
    stage: Optional[str] = None  # analyze|refine|synthesize|map|verify|verify_mapped
    seconds: Optional[float] = None
    index: Optional[int] = None  # 1-based position within a batch
    total: Optional[int] = None
    detail: Optional[str] = None
    attempt: Optional[int] = None  # 1-based job execution attempt

    def to_json(self) -> dict:
        """A JSON-serializable dict, ``None`` fields omitted (wire format)."""
        document = {"kind": self.kind, "spec": self.spec, "status": self.status}
        for key in ("stage", "seconds", "index", "total", "detail", "attempt"):
            value = getattr(self, key)
            if value is not None:
                document[key] = value
        return document

    def describe(self) -> str:
        """One-line human readable rendering."""
        parts = []
        if self.index is not None and self.total is not None:
            parts.append(f"[{self.index}/{self.total}]")
        parts.append(self.spec)
        if self.stage is not None:
            parts.append(self.stage)
        parts.append(self.status)
        if self.attempt is not None and self.attempt > 1:
            parts.append(f"attempt {self.attempt}")
        if self.seconds is not None:
            parts.append(f"{self.seconds:.3f}s")
        if self.detail:
            parts.append(f"({self.detail})")
        return " ".join(parts)


class EventLog:
    """A thread-safe collecting callback (the default test consumer)."""

    def __init__(self) -> None:
        self.events: list[Event] = []
        self._lock = threading.Lock()

    def __call__(self, event: Event) -> None:
        with self._lock:
            self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(list(self.events))

    def of_kind(self, kind: str) -> list[Event]:
        return [event for event in self.events if event.kind == kind]

    def stage_statuses(self, stage: str) -> list[str]:
        """The resolution history of one stage, in event order."""
        return [
            event.status
            for event in self.events
            if event.kind == "stage" and event.stage == stage
        ]


def progress_printer(stream=None) -> EventCallback:
    """An event callback printing one line per event (CLI ``--progress``)."""
    target = stream if stream is not None else sys.stderr

    def _print(event: Event) -> None:
        print(event.describe(), file=target, flush=True)

    return _print


def fanout(*callbacks: Optional[EventCallback]) -> Optional[EventCallback]:
    """Combine several optional callbacks into one (``None``s are dropped)."""
    active = [callback for callback in callbacks if callback is not None]
    if not active:
        return None
    if len(active) == 1:
        return active[0]

    def _fan(event: Event) -> None:
        for callback in active:
            callback(event)

    return _fan
