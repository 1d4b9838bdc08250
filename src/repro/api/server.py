"""The ``repro serve`` daemon: synthesis as a long-running service.

Production flows treat synthesis as a service over a persistent design
database rather than a one-shot script: the front-end cost of a spec is paid
once, and every later request — from CI, from a sweep, from another process
— is a cache hit.  This module exposes the store-backed
:class:`~repro.api.pipeline.Pipeline` over plain HTTP/JSON using only the
standard library (``http.server.ThreadingHTTPServer``), so a warm server
plus the on-disk :class:`~repro.api.store.ArtifactStore` gives both
process-lifetime *and* cross-process durability.

Endpoints (all JSON)::

    GET  /health         liveness only: uptime, code version (never touches
                         the store or the pipeline)
    GET  /ready          readiness: probes the artifact store and reports
                         queue depth; 503 when the store is unreachable
    GET  /benchmarks     registered benchmark names
    GET  /metrics        Prometheus text exposition (the one non-JSON
                         endpoint; empty families until --obs/REPRO_OBS)
    GET  /cache/stats    pipeline counters + store statistics
    POST /cache/clear    drop the in-memory cache (``disk``: the store too)
    POST /synthesize     one spec through the pipeline: a typed report
    POST /synthesize/batch  many /synthesize bodies in one Scheduler call
    POST /verify         speed independence (``mapped``: of the netlist too)
    POST /compare        structural vs state-based on every reachable code
    POST /export         the mapped netlist rendered in ``format``

The POST bodies, declared once in :mod:`repro.api.request` (unknown keys are
ignored; S, V, C, E: /synthesize, /verify, /compare, /export)::

    key            value                              default       read by
    spec           registry name or inline .g text    (required)    S V C E
    level          JSON integer, 1..5                 5             S V C E
    backend        "structural", "statebased", "sat"  "structural"  S V E
    assume_csc     JSON boolean                       false         S V C E
    map            JSON boolean                       false         S
    verify         JSON boolean                       false         S
    verify_mapped  JSON boolean                       false         S
    library        null or a built-in library name    null          S V E
    max_markings   null or a positive integer         null          S V C E
    mapped         JSON boolean                       false         V
    format         "verilog", "blif", "eqn", "json"   "verilog"     E
    items          non-empty list of S bodies         (required)    /synthesize/batch
    jobs           null or an integer: pool width     null          /synthesize/batch
    disk           JSON boolean                       false         /cache/clear

``spec`` is a registry name or multi-line inline ``.g`` text, and
``library`` a built-in name: the server never reads a path a request names.

``/synthesize`` responds with the lossless ``Report.to_json`` document plus
a ``resolution`` summary — how many stages were computed, served from
memory, or served from the store — which is what the CI smoke test asserts
on (a repeated request must resolve without computation).

Requests are serialized through one lock: correctness first (the pipeline's
memo dict is not concurrency-safe), and the workload is cache-dominated —
the durable store, not request parallelism, is the scaling story of the
serving layer.  Overload is handled by *shedding*, not queueing without
bound: at most ``max_queue`` requests may hold or wait for the service lock;
the next one is rejected immediately with ``503`` and a ``Retry-After``
header.  An admitted request waits at most ``request_timeout`` seconds for
the lock before it is shed with ``504 deadline_exceeded`` — a slow giant
synthesis can delay later requests, but never strand them silently.

Connections are persistent (HTTP/1.1 keep-alive): a client thread keeps one
socket open across its requests.  A connection idle for
:data:`IDLE_TIMEOUT` seconds is closed, and so is one whose request body
the server leaves unread — a body past :data:`MAX_BODY_BYTES` is refused
with ``413 payload_too_large`` without reading it.  A draining server
answers ``Connection: close``, and closing it shuts the idle connections
down first, so a drain waits on in-flight requests only.

Every error response carries a structured, stable body::

    {"error": {"code": "spec_error", "message": "...", "retryable": false}}

``code`` is machine-dispatchable (clients retry on ``retryable`` alone),
``message`` is human-readable; server-side tracebacks are logged to stderr
and never leak into a response.  Use :class:`repro.api.client.Client` —
which retries retryable responses with backoff — to talk to the server from
Python.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

from repro.api.backends import compare
from repro.api.events import fanout
from repro.api.pipeline import Pipeline
from repro.api.request import parse, spec_label
from repro.api.scheduler import Scheduler
from repro.api.spec import SpecError
from repro.api.store import TMP_SWEEP_AGE, get_store
from repro.gates.exporters import export_netlist
from repro.gates.ir import NetlistError
from repro.obs import ObsLike, TRACE_HEADER, get_obs, parse_header
from repro.petri.reachability import StateSpaceLimitExceeded
from repro.statebased.synthesis import StateBasedSynthesisError
from repro.synthesis.engine import SynthesisError

#: seconds a kept-alive connection may sit idle (or stall mid-request)
#: before the server closes it; this bounds the handler threads that
#: abandoned clients can hold
IDLE_TIMEOUT = 15.0

#: the largest request body the server reads, in bytes.  The largest
#: registry spec is 3.2 kB of ``.g`` text, so this leaves room for batches
#: of hundreds of inline specs and nothing near a memory threat
MAX_BODY_BYTES = 1 << 20

#: request errors mapped to HTTP 400 (bad input, not server failure) and
#: their stable machine-readable codes; first match wins, so subclasses
#: precede their bases.  KeyError/TypeError are deliberately absent — those
#: indicate server bugs and must surface as 500.  Bare ValueError stays: the
#: input-validation paths of the stack (request fields, option parsing)
#: raise it for bad user input, the same contract the CLI maps to exit 2.
_CLIENT_ERROR_CODES = (
    (SpecError, "spec_error"),
    (StateBasedSynthesisError, "synthesis_error"),
    (SynthesisError, "synthesis_error"),
    (NetlistError, "netlist_error"),
    (StateSpaceLimitExceeded, "state_space_limit"),
    (ValueError, "bad_request"),
)
_CLIENT_ERRORS = tuple(error_type for error_type, _ in _CLIENT_ERROR_CODES)


def _error_code(error: BaseException) -> str:
    """A client error's stable code; ``internal`` for anything else."""
    for error_type, code in _CLIENT_ERROR_CODES:
        if isinstance(error, error_type):
            return code
    return "internal"


def _error_body(code: str, message: str, retryable: bool = False) -> dict:
    """The structured error document every non-2xx response carries."""
    return {"error": {"code": code, "message": message, "retryable": retryable}}


class PayloadTooLargeError(RuntimeError):
    """A request body past :data:`MAX_BODY_BYTES`; refused unread."""


class ServerOverloadedError(RuntimeError):
    """The admission queue is full; the request was shed, not queued."""

    #: the HTTP status and stable code of the (retryable) response
    status, code = 503, "overloaded"

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class RequestDeadlineError(ServerOverloadedError):
    """An admitted request waited longer than the per-request deadline: it
    is shed like an overloaded one, with its own status and code."""

    status, code = 504, "deadline_exceeded"


class SynthesisService:
    """The request-facing facade over one shared store-backed pipeline.

    ``max_cached_artifacts`` bounds the pipeline's in-memory cache: once
    more artifacts than that are held, the cache is evicted wholesale after
    the request (the store, when attached, makes the eviction cheap — the
    next request reloads from disk instead of recomputing).  This keeps a
    long-lived daemon fed with a stream of distinct specs from growing
    without bound.

    ``max_queue`` bounds *admission*: at most that many locked requests may
    be in flight (one running, the rest waiting) before new ones are shed
    with :class:`ServerOverloadedError`.  ``request_timeout`` bounds how
    long an admitted request waits for the service lock before it is shed
    with :class:`RequestDeadlineError` (``None`` waits indefinitely).

    Fleet-mode knobs (PR 9): ``worker_id`` tags ``/health`` and every
    response's ``X-Repro-Worker`` header with the worker's ``slot.gen``
    identity; ``max_requests`` arms the recycle budget — after that many
    locked requests the ``on_recycle`` callback fires once and the worker's
    main loop drains and exits with :data:`~repro.api.fleet.EXIT_RECYCLED`;
    ``chaos`` wires the deterministic ``worker.kill`` fault site into the
    dispatch path (scoped by endpoint name); ``ready_ttl`` caches the
    store's readiness probe so a polling load balancer does not hit the
    filesystem on every ``/ready``.
    """

    def __init__(
        self,
        store=None,
        pipeline: Optional[Pipeline] = None,
        max_cached_artifacts: int = 1024,
        max_queue: int = 8,
        request_timeout: Optional[float] = None,
        worker_id: Optional[str] = None,
        max_requests: Optional[int] = None,
        on_recycle: Optional[Callable[[], None]] = None,
        chaos=None,
        ready_ttl: float = 1.0,
        obs: ObsLike = None,
    ):
        # resolve obs first (instance / grammar / $REPRO_OBS), falling back
        # to whatever the caller's pipeline already carries; share one
        # bundle across service, pipeline and store so the worker's HTTP
        # span and its stage spans nest in one trace sink
        resolved_obs = get_obs(obs)
        if resolved_obs is None and pipeline is not None:
            resolved_obs = pipeline.obs
        self.obs = resolved_obs
        if pipeline is None:
            pipeline = Pipeline(store=store, obs=self.obs)
        elif self.obs is not None and pipeline.obs is None:
            pipeline.obs = self.obs
            if pipeline.store is not None and pipeline.store.obs is None:
                pipeline.store.obs = self.obs
        self.pipeline = pipeline
        self.max_cached_artifacts = max_cached_artifacts
        self.max_queue = max_queue
        self.request_timeout = request_timeout
        self.worker_id = worker_id
        self.max_requests = max_requests
        self.on_recycle = on_recycle
        self.chaos = chaos
        self.ready_ttl = ready_ttl
        self.draining = False  # set on SIGTERM/recycle: /ready goes red
        self.lock = threading.Lock()
        self._admission = threading.Lock()  # guards the two counters below
        self.waiting = 0  # locked requests in flight (running + queued)
        self.shed = 0  # requests rejected by overload or deadline
        self.started = time.time()
        self.requests = 0
        self.locked_requests = 0  # served locked requests (recycle budget)
        self.evictions = 0
        self._recycled = False
        self._probe_cache: Optional[tuple[float, bool, Optional[str]]] = None
        self._events: list = []
        self._in_request = False
        # compose with (not replace) any callback the caller's pipeline carries
        pipeline.on_event = fanout(pipeline.on_event, self._collect)

    def _collect(self, event) -> None:
        # only record events raised by the handler running under the lock;
        # a shared pipeline driven directly from outside a request must not
        # grow (or pollute) the next request's resolution telemetry
        if self._in_request and event.kind == "stage":
            self._events.append(event)

    def _maybe_evict(self) -> None:
        cached = sum(self.pipeline.cache_info().values())
        if cached > self.max_cached_artifacts:
            self.pipeline.evict_cache()
            self.evictions += 1

    @staticmethod
    def _resolution(events) -> dict:
        """How the stage ``events`` of one request resolved: counts per
        status, plus the stages in order."""
        counts = {"computed": 0, "memory": 0, "store": 0}
        stages = []
        for event in events:
            counts[event.status] = counts.get(event.status, 0) + 1
            stages.append({"stage": event.stage, "status": event.status})
        return {**counts, "stages": stages}

    # ------------------------------------------------------------------ #
    # Request handlers (called under the lock)
    # ------------------------------------------------------------------ #

    def synthesize(self, body: dict) -> dict:
        job, _ = parse("/synthesize", body)
        return {
            "report": job.run(self.pipeline).to_json(),
            "resolution": self._resolution(self._events),
        }

    def synthesize_batch(self, body: dict) -> dict:
        """Run many synthesize bodies through one :class:`Scheduler` call.

        With ``jobs > 1`` (and a store attached) the items fan out over the
        process-pool scheduler; otherwise they run sequentially through
        this worker's shared pipeline.  The response carries one entry per
        item, in order, each with its own ``ok``/``report``-or-``error``
        plus — in sequential mode — the per-item stage resolution (pool
        items resolve in child processes, so their resolution is ``null``).
        Item failures are reported in place, never as a batch-wide error.
        """
        _, extras = parse("/synthesize/batch", body)
        jobs: list = []
        entries: list = []  # per item: its failure entry, or its job's index
        for item in extras["items"]:
            try:
                job, _ = parse("/synthesize", item)
            except _CLIENT_ERRORS as error:
                # a bad item fails in place — the rest of the batch runs
                entries.append({
                    "spec": spec_label(item),
                    "ok": False,
                    "attempts": 0,
                    "seconds": 0.0,
                    "resolution": None,
                    "error": {"code": _error_code(error), "message": str(error)},
                })
                continue
            entries.append(len(jobs))
            jobs.append(job)
        # the process pool needs a store the children can reopen by path;
        # without one the batch degrades to sequential resolution here.
        # `jobs` is untrusted input: never more pool workers than jobs
        width = min(extras["jobs"] or 0, len(jobs))
        pool = width > 1 and self.pipeline.store is not None
        scheduler = Scheduler(
            jobs=width if pool else 1,
            store=self.pipeline.store if pool else None,
            pipeline=None if pool else self.pipeline,
            obs=self.obs,
        )
        done: list = [None] * len(jobs)
        mark = 0
        for result in scheduler.iter_results(jobs):
            resolution = None
            if not pool:
                # sequential mode yields right after each job, so the
                # stage events since the previous yield belong to this item
                events, mark = self._events[mark:], len(self._events)
                resolution = self._resolution(events)
            entry = {
                "spec": result.job.spec.name,
                "ok": result.ok,
                "attempts": result.attempts,
                "seconds": round(result.seconds, 6),
                "resolution": resolution,
            }
            if result.ok:
                entry["report"] = result.report.to_json()
            else:
                entry["error"] = {"code": _error_code(result.error), "message": str(result.error)}
            done[result.index] = entry
        return {
            "results": [done[e] if isinstance(e, int) else e for e in entries],
            "pool": pool,
            "resolution": self._resolution(self._events),
        }

    def verify(self, body: dict) -> dict:
        job, extras = parse("/verify", body)
        verification = self.pipeline.verify(
            job.spec, job.options, backend=job.backend, max_markings=job.max_markings
        )
        result = {"verify": verification.to_json()}
        if extras["mapped"]:
            mapped = self.pipeline.verify_mapped(
                job.spec,
                job.options,
                backend=job.backend,
                library=job.library,
                max_markings=job.max_markings,
            )
            result["verify_mapped"] = mapped.to_json()
        result["resolution"] = self._resolution(self._events)
        return result

    def compare(self, body: dict) -> dict:
        job, _ = parse("/compare", body)
        report = compare(
            job.spec, job.options, pipeline=self.pipeline, max_markings=job.max_markings
        )
        return {
            "comparison": report.to_dict(),
            "resolution": self._resolution(self._events),
        }

    def export(self, body: dict) -> dict:
        job, extras = parse("/export", body)
        fmt = extras["format"]
        mapping = self.pipeline.map(
            job.spec,
            job.options,
            backend=job.backend,
            library=job.library,
            max_markings=job.max_markings,
        )
        return {
            "format": fmt,
            "text": export_netlist(mapping.netlist, fmt),
            "gates": mapping.gate_count,
            "total_area": mapping.total_area,
            "resolution": self._resolution(self._events),
        }

    def cache_stats(self, body: Optional[dict] = None) -> dict:
        stats = {
            "stage_calls": dict(self.pipeline.stage_calls),
            "store_hits": dict(self.pipeline.store_hits),
            "store_misses": dict(self.pipeline.store_misses),
            "memory_entries": self.pipeline.cache_info(),
            "evictions": self.evictions,
            "requests": self.requests,
            "uptime_seconds": time.time() - self.started,
        }
        if self.worker_id is not None:
            stats["worker"] = self.worker_id
        if self.pipeline.store is not None:
            stats["store"] = self.pipeline.store.stats()
        return stats

    def cache_clear(self, body: Optional[dict] = None) -> dict:
        _, extras = parse("/cache/clear", body or {})
        self.pipeline.clear_cache()
        removed = 0
        if extras["disk"] and self.pipeline.store is not None:
            removed = self.pipeline.store.clear()
        return {"cleared": True, "disk_entries_removed": removed}

    def health(self, body: Optional[dict] = None) -> dict:
        """Liveness: the process answers.  Never touches store or pipeline
        state beyond reading the attached store's path, so a wedged store
        (full disk, dead mount) keeps liveness green while :meth:`ready`
        goes red — the split orchestrators expect."""
        from repro.api.store import CODE_VERSION

        payload = {
            "status": "ok",
            "uptime_seconds": time.time() - self.started,
            "requests": self.requests,
            "code_version": CODE_VERSION,
            "store": str(self.pipeline.store.root) if self.pipeline.store else None,
            "pid": os.getpid(),
        }
        if self.worker_id is not None:
            payload["worker"] = self.worker_id
        return payload

    def _probe_store(self) -> tuple[bool, Optional[str]]:
        """``store.probe()`` behind a short TTL cache.

        Readiness is polled (load balancers, orchestration loops, the fleet
        bench) at rates far above how fast a store goes bad; caching the
        filesystem probe for ``ready_ttl`` seconds keeps ``/ready`` cheap
        without meaningfully delaying the red flag.  A negative result is
        cached too — a dead mount also should not be stat-hammered.
        """
        store = self.pipeline.store
        if store is None:
            return True, None
        now = time.monotonic()
        cached = self._probe_cache
        if cached is not None and now - cached[0] < self.ready_ttl:
            return cached[1], cached[2]
        reason = None
        try:
            store_ok = store.probe()
        except OSError as error:
            store_ok = False
            reason = f"store probe failed: {error}"
        else:
            if not store_ok:
                reason = f"store root not writable: {store.root}"
        self._probe_cache = (now, store_ok, reason)
        return store_ok, reason

    def ready(self, body: Optional[dict] = None) -> dict:
        """Readiness: can this server *usefully* take traffic right now?

        Probes the artifact store (layout creatable and writable, cached
        for ``ready_ttl`` seconds) and reports the admission queue.  A
        draining worker reports not-ready immediately.  ``ready: false``
        travels as HTTP 503 so load balancers drain the instance without
        killing it.
        """
        store = self.pipeline.store
        store_ok, reason = self._probe_store()
        if self.draining:
            store_ok = False
            reason = "draining"
        payload = {
            "ready": store_ok,
            "store": str(store.root) if store is not None else None,
            "waiting": self.waiting,
            "max_queue": self.max_queue,
            "shed": self.shed,
        }
        if self.worker_id is not None:
            payload["worker"] = self.worker_id
        if reason is not None:
            payload["reason"] = reason
        return payload

    def benchmarks(self, body: Optional[dict] = None) -> dict:
        from repro.benchmarks.registry import list_benchmarks

        return {"benchmarks": list_benchmarks()}

    def metrics(self, body: Optional[dict] = None) -> dict:
        """The Prometheus text exposition of this process's registry.

        The handler special-cases the transport (``text/plain`` instead of
        the JSON every other endpoint speaks).  Without an active obs
        bundle the scrape answers 200 with a hint comment, so probing
        ``/metrics`` is always safe.
        """
        if self.obs is None:
            text = (
                "# repro observability is disabled on this worker\n"
                "# enable with `repro serve --obs ...` or REPRO_OBS=on\n"
            )
        else:
            text = self.obs.render_metrics()
        return {"prometheus": text}

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #

    GET_ROUTES = {
        "/health": "health",
        "/ready": "ready",
        "/benchmarks": "benchmarks",
        "/metrics": "metrics",
        "/cache/stats": "cache_stats",
    }
    POST_ROUTES = {
        "/synthesize": "synthesize",
        "/synthesize/batch": "synthesize_batch",
        "/verify": "verify",
        "/compare": "compare",
        "/export": "export",
        "/cache/clear": "cache_clear",
        "/cache/stats": "cache_stats",
    }
    #: endpoints that never touch the pipeline's memo state — answered
    #: without the lock (and without admission control) so liveness,
    #: readiness and metrics scrapes survive a long-running synthesis
    LOCK_FREE = {"health", "ready", "benchmarks", "metrics"}

    def _admit(self) -> None:
        """Reserve an admission slot or shed the request immediately."""
        with self._admission:
            if self.waiting >= self.max_queue:
                self.shed += 1
                raise ServerOverloadedError(
                    f"server overloaded: {self.waiting} requests in flight "
                    f"(max_queue={self.max_queue})",
                    retry_after=max(1.0, self.request_timeout or 1.0),
                )
            self.waiting += 1

    def dispatch(self, method: str, path: str, body: Optional[dict]):
        routes = self.GET_ROUTES if method == "GET" else self.POST_ROUTES
        name = routes.get(path)
        if name is None:
            return None
        if self.obs is None:
            return self._dispatch_named(name, body)
        started = time.perf_counter()
        try:
            result = self._dispatch_named(name, body)
        except BaseException:
            self.obs.request_errors.inc(endpoint=name)
            raise
        finally:
            self.obs.requests.inc(endpoint=name)
            self.obs.request_seconds.observe(
                time.perf_counter() - started, endpoint=name
            )
        return result

    def _dispatch_named(self, name: str, body: Optional[dict]):
        if name in self.LOCK_FREE:
            self.requests += 1
            return getattr(self, name)(body)
        if self.chaos is not None:
            # the worker.kill fault site: one deterministic opportunity per
            # admitted locked request, scoped by endpoint name — the probe
            # endpoints stay exempt so supervision itself is never the
            # trigger.  When a rule fires the process hard-exits mid-request
            # and the supervisor + client retries absorb the loss.
            self.chaos.kill_worker(scope=name)
        self._admit()
        try:
            timeout = self.request_timeout if self.request_timeout is not None else -1
            if not self.lock.acquire(timeout=timeout):
                with self._admission:
                    self.shed += 1
                raise RequestDeadlineError(
                    f"request waited longer than {self.request_timeout}s "
                    f"for the service lock",
                    retry_after=max(1.0, self.request_timeout or 1.0),
                )
            try:
                self.requests += 1
                self._events = []
                self._in_request = True
                try:
                    return getattr(self, name)(body)
                finally:
                    self._in_request = False
                    self._maybe_evict()
                    self._consume_budget()
            finally:
                self.lock.release()
        finally:
            with self._admission:
                self.waiting -= 1

    def _consume_budget(self) -> None:
        """Count a served locked request against the recycle budget."""
        self.locked_requests += 1
        if (
            self.max_requests is not None
            and not self._recycled
            and self.locked_requests >= self.max_requests
        ):
            # planned retirement: fire the recycle callback exactly once;
            # the worker main loop drains and exits EXIT_RECYCLED, and the
            # supervisor respawns a fresh generation
            self._recycled = True
            self.draining = True
            if self.on_recycle is not None:
                self.on_recycle()


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP plumbing around :class:`SynthesisService`."""

    server_version = "repro-serve/1"
    #: persistent connections: one socket serves a client's requests in turn
    protocol_version = "HTTP/1.1"
    #: each response is one write, which Nagle would only hold back
    disable_nagle_algorithm = True
    #: the socket timeout: an idle (or stalled) connection is closed
    timeout = IDLE_TIMEOUT
    #: set by :func:`create_server`
    service: SynthesisService

    # quiet by default; ``create_server(verbose=True)`` restores logging
    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send(self, status: int, payload, headers: Optional[dict] = None) -> None:
        """A JSON response, or plain text for a ``str`` payload (the
        ``/metrics`` exposition)."""
        if isinstance(payload, str):
            body, kind = payload.encode("utf-8"), "text/plain; version=0.0.4; charset=utf-8"
        else:
            body, kind = json.dumps(payload).encode("utf-8"), "application/json"
        self.send_response(status)
        self.send_header("Content-Type", kind)
        self.send_header("Content-Length", str(len(body)))
        if self.service.worker_id is not None:
            # which fleet worker answered (slot.generation) — the bench and
            # the chaos tests use this to observe kernel load-balancing
            self.send_header("X-Repro-Worker", self.service.worker_id)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection or self.service.draining or self.server.closing:
            self.send_header("Connection", "close")
        # head and body in one write: a kept-alive peer must not sit on a
        # delayed ACK between two small segments
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def _dispatch_traced(self, method: str, body: Optional[dict]):
        """Dispatch under an ``http:<path>`` span when tracing is active.

        The headers live here (``dispatch`` only sees path + body), so this
        is where a propagated ``X-Repro-Trace`` context is adopted: the
        span joins the client's trace and every pipeline stage span nests
        under it.  Probe GETs without a propagated context stay untraced —
        readiness polls must not flood the sink.
        """
        obs = self.service.obs
        if obs is None:
            return self.service.dispatch(method, self.path, body)
        parent = parse_header(self.headers.get(TRACE_HEADER))
        if parent is None and method != "POST":
            return self.service.dispatch(method, self.path, body)
        with obs.tracer.span(
            "http:" + self.path,
            parent=parent,
            method=method,
            worker=self.service.worker_id or "",
        ):
            return self.service.dispatch(method, self.path, body)

    def _read_body(self) -> Optional[dict]:
        """The JSON object a POST carries (``None`` for a GET);
        ``ValueError`` when it is none.

        A body the server leaves unread — a GET's, a chunked one, one with
        a bad length or one past :data:`MAX_BODY_BYTES` — closes the
        connection after the reply: on a kept-alive socket its bytes would
        parse as the next request.
        """
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        chunked = "Transfer-Encoding" in self.headers
        if self.command != "POST":
            if length or chunked:
                self.close_connection = True
            return None
        if length < 0 or length > MAX_BODY_BYTES or chunked:
            self.close_connection = True
        if length < 0:
            raise ValueError("Content-Length must be a non-negative integer")
        if length > MAX_BODY_BYTES:
            raise PayloadTooLargeError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte bound"
            )
        try:  # a body that is not UTF-8 is malformed too
            body = json.loads(self.rfile.read(length).decode("utf-8") or "{}")
        except ValueError as error:
            raise ValueError(f"malformed JSON body: {error}") from None
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        return body

    def _handle(self, method: str) -> None:
        try:
            result = self._dispatch_traced(method, self._read_body())
        except PayloadTooLargeError as error:
            self._send(413, _error_body("payload_too_large", str(error)))
            return
        except ServerOverloadedError as error:  # a deadline miss, too
            self._send(
                error.status,
                _error_body(error.code, str(error), retryable=True),
                headers={"Retry-After": str(int(error.retry_after))},
            )
            return
        except _CLIENT_ERRORS as error:
            self._send(400, _error_body(_error_code(error), str(error)))
            return
        except Exception as error:  # noqa: BLE001 — the daemon must not die
            # the traceback stays server-side: clients get a stable code and
            # the exception summary, never internal frames
            import traceback

            self.log_error(
                "unhandled %s in %s %s", type(error).__name__, method, self.path
            )
            traceback.print_exc()
            self._send(
                500,
                _error_body("internal", f"{type(error).__name__}: {error}"),
            )
            return
        if result is None:
            self._send(
                404,
                _error_body("not_found", f"unknown endpoint {method} {self.path}"),
            )
            return
        if method == "GET" and self.path == "/metrics":
            self._send(200, result["prometheus"])
            return
        if self.path == "/ready" and result.get("ready") is False:
            # readiness failure travels as 503 so load balancers drain us
            self._send(503, result, headers={"Retry-After": "5"})
            return
        self._send(200, result)

    def handle(self) -> None:
        """Serve the connection's requests until either side closes it.

        Between requests the connection is *idle*: parked with the server,
        which shuts idle sockets down when it closes.  Once a request line
        has arrived it is *busy* and runs to its response, and a closing
        server lets it park no more.
        """
        try:
            while self.server.park(self.connection):
                self.close_connection = True
                self.handle_one_request()
                if self.close_connection:
                    break
        finally:
            self.server.unpark(self.connection)

    def parse_request(self) -> bool:
        # the request line is in: the connection is busy, unless the server
        # closed meanwhile — then it goes unanswered and the client replays
        # it on a fresh connection
        if not self.server.unpark(self.connection):
            self.close_connection = True
            return False
        return super().parse_request()

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        self._handle("POST")


class FleetHTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` that can share its port via SO_REUSEPORT.

    Fleet workers all bind the same ``(host, port)``; the kernel then
    load-balances incoming connections across their accept queues.  The
    flag is set between socket creation and bind (``server_bind``), which
    is why this is a subclass rather than a post-hoc ``setsockopt``.
    """

    #: set by :func:`create_server` before binding
    reuse_port = False

    #: ``ThreadingHTTPServer`` marks handler threads as daemons, and the
    #: mixin's ``_Threads`` registry silently *skips* daemon threads — so
    #: ``server_close()`` would join nothing and a drain could drop an
    #: in-flight response on the floor.  Non-daemon handler threads make
    #: ``server_close()`` the drain barrier the fleet contract needs.  It
    #: first shuts down every kept-alive connection that is idle between
    #: requests, and a busy one parks no more once its response is out, so
    #: joins are bounded by request time, never by an idle keep-alive.
    daemon_threads = False

    def __init__(self, *args, **kwargs):
        # connections idle between requests, and whether the server is
        # closing: one lock, so a handler cannot park after the sweep
        self._connections_lock = threading.Lock()
        self._idle: set = set()
        self.closing = False
        super().__init__(*args, **kwargs)

    def park(self, connection) -> bool:
        """Mark ``connection`` idle; ``False`` once the server is closing."""
        with self._connections_lock:
            if self.closing:
                return False
            self._idle.add(connection)
            return True

    def unpark(self, connection) -> bool:
        """Mark ``connection`` busy; ``False`` once the server is closing."""
        with self._connections_lock:
            self._idle.discard(connection)
            return not self.closing

    def server_close(self) -> None:
        with self._connections_lock:
            self.closing = True
            idle = list(self._idle)
        for connection in idle:
            try:
                # wakes the handler thread blocked in its next readline
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer has closed it already
        super().server_close()

    def server_bind(self) -> None:
        if self.reuse_port:
            if not hasattr(socket, "SO_REUSEPORT"):
                raise OSError("SO_REUSEPORT is not supported on this platform")
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()


def create_server(
    host: str = "127.0.0.1",
    port: int = 8765,
    store=None,
    pipeline: Optional[Pipeline] = None,
    verbose: bool = False,
    max_queue: int = 8,
    request_timeout: Optional[float] = None,
    reuse_port: bool = False,
    worker_id: Optional[str] = None,
    max_requests: Optional[int] = None,
    on_recycle=None,
    chaos=None,
    ready_ttl: float = 1.0,
    obs: ObsLike = None,
) -> ThreadingHTTPServer:
    """Build a ready-to-serve (but not yet serving) HTTP server.

    ``port=0`` binds an ephemeral port; read the actual one from
    ``server.server_address[1]``.  The in-process tests and the CI smoke
    job drive the returned server from a background thread.  The fleet
    knobs (``reuse_port`` through ``ready_ttl``) are documented on
    :class:`SynthesisService`; single-process callers never pass them.
    """
    service = SynthesisService(
        store=store,
        pipeline=pipeline,
        max_queue=max_queue,
        request_timeout=request_timeout,
        worker_id=worker_id,
        max_requests=max_requests,
        on_recycle=on_recycle,
        chaos=chaos,
        ready_ttl=ready_ttl,
        obs=obs,
    )
    handler = type("_BoundHandler", (_Handler,), {"service": service})
    server_cls = type("_BoundServer", (FleetHTTPServer,), {"reuse_port": reuse_port})
    server = server_cls((host, port), handler)
    server.verbose = verbose
    server.service = service  # type: ignore[attr-defined]
    return server


def run_server(
    host: str = "127.0.0.1",
    port: int = 8765,
    store=None,
    verbose: bool = False,
    max_queue: int = 8,
    request_timeout: Optional[float] = None,
    obs: ObsLike = None,
) -> int:
    """Bind, announce, and serve until interrupted (the CLI's serve loop)."""
    store = get_store(store)  # accept a path like every other entry point
    if store is not None:
        # startup maintenance: a previous daemon killed mid-write leaves
        # *.tmp orphans; a crashed writer may have left damage behind
        swept = store.sweep(tmp_older_than=TMP_SWEEP_AGE)
        if swept["tmp_removed"] or swept["stale_quarantined"]:
            print(
                f"repro serve: store sweep removed {swept['tmp_removed']} orphaned "
                f"temp file(s), quarantined {swept['stale_quarantined']} stale "
                f"entr(y/ies)",
                flush=True,
            )
    server = create_server(
        host=host,
        port=port,
        store=store,
        verbose=verbose,
        max_queue=max_queue,
        request_timeout=request_timeout,
        obs=obs,
    )
    bound_host, bound_port = server.server_address[:2]
    print(
        f"repro serve: listening on http://{bound_host}:{bound_port} "
        f"(store: {store.root if store is not None else 'disabled'})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    """``python -m repro.api.server`` entry point.

    Delegates to the CLI's ``serve`` subcommand so there is exactly one
    argument parser for the daemon's flags.
    """
    import sys

    from repro.api.cli import main as cli_main

    return cli_main(["serve", *(argv if argv is not None else sys.argv[1:])])


if __name__ == "__main__":
    raise SystemExit(main())
