"""Structured distributed tracing for the repro serving stack.

Answers "where did this request's 40 ms go?" across process boundaries:
a :class:`Tracer` keeps a per-thread stack of open :class:`Span`\\ s, so
nesting is automatic inside one process, and a :class:`SpanContext`
(trace id + span id) rides the ``X-Repro-Trace`` HTTP header from
:class:`repro.api.client.Client` into a fleet worker, and the
``Job.payload`` dict into a scheduler pool process.  Each process appends
finished spans as JSON lines to its own sink file in the fleet
``run_dir`` (``trace-<service>.jsonl``); :func:`load_trace` stitches the
files back together by trace id and :func:`render_trace` draws the tree:

.. code-block:: text

    trace 91c2f0e2a6d14c3b  (2 services, 5 spans, 41.3 ms)
    └─ client:POST /synthesize  41.3 ms  [client]
       └─ http:/synthesize  39.8 ms  [worker0.1]
          ├─ stage:synthesize  22.1 ms
          │  └─ stage:analyze  14.6 ms
          └─ stage:verify  8.0 ms

Writes are line-buffered appends under a lock — crash-safe in the same
sense as the heartbeat files: a dying worker loses at most its open spans.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

#: The propagation header: ``<trace_id>:<span_id>`` (hex, colon-separated).
TRACE_HEADER = "X-Repro-Trace"


def _new_id(nbytes: int = 8) -> str:
    return os.urandom(nbytes).hex()


@dataclass(frozen=True)
class SpanContext:
    """The portable part of a span: what a child in another process needs."""

    trace_id: str
    span_id: str

    def to_header(self) -> str:
        return f"{self.trace_id}:{self.span_id}"


def parse_header(text: Optional[str]) -> Optional[SpanContext]:
    """Decode an ``X-Repro-Trace`` value; anything malformed is ignored."""
    if not text or not isinstance(text, str):
        return None
    trace_id, sep, span_id = text.strip().partition(":")
    if not sep or not trace_id or not span_id:
        return None
    if not all(c in "0123456789abcdef" for c in trace_id + span_id):
        return None
    return SpanContext(trace_id=trace_id, span_id=span_id)


class Span:
    """One timed operation; measures wall *and* CPU time (the paper's unit)."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "service",
        "attrs",
        "status",
        "start",
        "_perf_start",
        "_cpu_start",
        "seconds",
        "cpu_seconds",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        parent_id: Optional[str],
        service: str,
        attrs: Optional[dict] = None,
    ):
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.name = name
        self.service = service
        self.attrs = dict(attrs or {})
        self.status = "ok"
        self.start = time.time()
        self._perf_start = time.perf_counter()
        self._cpu_start = time.process_time()
        self.seconds = 0.0
        self.cpu_seconds = 0.0

    @property
    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def set(self, key: str, value) -> None:
        self.attrs[key] = value

    def finish(self) -> dict:
        self.seconds = time.perf_counter() - self._perf_start
        self.cpu_seconds = time.process_time() - self._cpu_start
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "service": self.service,
            "pid": os.getpid(),
            "start": round(self.start, 6),
            "seconds": round(self.seconds, 6),
            "cpu_seconds": round(self.cpu_seconds, 6),
            "status": self.status,
            "attrs": self.attrs,
        }


class Tracer:
    """Per-process span factory with a thread-local stack for auto-nesting."""

    def __init__(self, sink: Union[str, os.PathLike, None] = None, service: str = ""):
        self.sink = Path(sink) if sink is not None else None
        self.service = service
        self.emitted = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        # the append handle is opened lazily and kept for the tracer's
        # lifetime: one open() per span would dominate the per-request cost
        self._handle = None
        self._handle_pid = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Optional[SpanContext]:
        """The context of this thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1].context if stack else None

    @contextmanager
    def span(self, name: str, parent: Optional[SpanContext] = None, **attrs):
        """Open a span; nests under the thread's current span by default.

        An explicit ``parent`` (typically decoded from ``X-Repro-Trace``)
        adopts that remote context — same trace id, remote span as parent —
        which is how a worker's spans stitch under the client's.
        """
        if parent is None:
            parent = self.current()
        if parent is not None:
            span = Span(name, parent.trace_id, parent.span_id, self.service, attrs)
        else:
            span = Span(name, _new_id(), None, self.service, attrs)
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        except BaseException:
            span.status = "error"
            raise
        finally:
            stack.pop()
            self._emit(span.finish())

    def _emit(self, record: dict) -> None:
        self.emitted += 1
        if self.sink is None:
            return
        line = json.dumps(record, separators=(",", ":"), default=str)
        try:
            with self._lock:
                # a forked child (scheduler pool, prefork worker) must not
                # share the parent's file position — reopen under its own pid
                if self._handle is None or self._handle_pid != os.getpid():
                    self._handle = open(self.sink, "a", encoding="utf-8")
                    self._handle_pid = os.getpid()
                self._handle.write(line + "\n")
                self._handle.flush()
        except OSError:
            pass  # tracing must never take down the traced operation

    def close(self) -> None:
        """Release the sink handle (safe to call repeatedly; reopens on use)."""
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None
                self._handle_pid = None


# ---------------------------------------------------------------------- #
# Stitching: per-process sinks -> one tree per trace id
# ---------------------------------------------------------------------- #


def load_records(
    directory: Union[str, os.PathLike], pattern: str = "trace-*.jsonl"
) -> list[dict]:
    """Every readable span record from every sink in a run directory."""
    records = []
    for path in sorted(Path(directory).glob(pattern)):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # a torn final line from a killed worker
            if isinstance(record, dict) and record.get("trace"):
                records.append(record)
    return records


def load_trace(directory: Union[str, os.PathLike], trace_id: str) -> list[dict]:
    """All spans of one trace, stitched across every per-process sink."""
    return [r for r in load_records(directory) if r["trace"] == trace_id]


def list_traces(directory: Union[str, os.PathLike]) -> list[dict]:
    """Summaries of every trace in a run directory, newest first."""
    traces: dict = {}
    for record in load_records(directory):
        entry = traces.setdefault(
            record["trace"],
            {"trace": record["trace"], "spans": 0, "services": set(), "start": None, "root": None},
        )
        entry["spans"] += 1
        entry["services"].add(record.get("service", ""))
        start = record.get("start")
        if start is not None and (entry["start"] is None or start < entry["start"]):
            entry["start"] = start
        if record.get("parent") is None:
            entry["root"] = record.get("name")
    out = []
    for entry in traces.values():
        entry["services"] = sorted(entry["services"])
        out.append(entry)
    out.sort(key=lambda e: e["start"] or 0.0, reverse=True)
    return out


def span_tree(records: list[dict]) -> list[dict]:
    """Group one trace's records into root nodes ``{record, children}``.

    A span whose parent never reached a sink (e.g. the parent process was
    SIGKILLed mid-request) is promoted to a root rather than dropped — the
    partial trace still renders.
    """
    nodes = {r["span"]: {"record": r, "children": []} for r in records}
    roots = []
    for node in nodes.values():
        parent_id = node["record"].get("parent")
        parent = nodes.get(parent_id) if parent_id else None
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)
    def sort_children(node):
        node["children"].sort(key=lambda n: n["record"].get("start", 0.0))
        for child in node["children"]:
            sort_children(child)
    roots.sort(key=lambda n: n["record"].get("start", 0.0))
    for root in roots:
        sort_children(root)
    return roots


def render_trace(records: list[dict]) -> str:
    """A human span tree with wall timings and the owning service."""
    if not records:
        return "(no spans)"
    trace_id = records[0]["trace"]
    services = sorted({r.get("service", "") for r in records})
    roots = span_tree(records)
    total = max(r.get("seconds", 0.0) for r in records)
    lines = [
        f"trace {trace_id}  ({len(services)} service(s), {len(records)} spans, "
        f"{total * 1000:.1f} ms)"
    ]

    def visit(node, prefix: str, is_last: bool) -> None:
        record = node["record"]
        connector = "└─ " if is_last else "├─ "
        marker = "" if record.get("status") == "ok" else f"  !{record.get('status')}"
        service = record.get("service") or f"pid{record.get('pid', '?')}"
        lines.append(
            f"{prefix}{connector}{record['name']}  "
            f"{record.get('seconds', 0.0) * 1000:.1f} ms  [{service}]{marker}"
        )
        child_prefix = prefix + ("   " if is_last else "│  ")
        children = node["children"]
        for index, child in enumerate(children):
            visit(child, child_prefix, index == len(children) - 1)

    for index, root in enumerate(roots):
        visit(root, "", index == len(roots) - 1)
    return "\n".join(lines)
