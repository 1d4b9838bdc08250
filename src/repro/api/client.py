"""Python client for the ``repro serve`` daemon.

A stdlib-only (``http.client``) client for the server's JSON endpoints, so
experiments, CI and notebooks can run against a *warm* long-lived pipeline
instead of paying process start-up and front-end analysis per invocation::

    from repro.api.client import Client

    with Client("http://127.0.0.1:8765") as client:
        result = client.synthesize("sequencer", level=5, verify=True)
        result.report.literals          # a full typed Report, rebuilt locally
        result.resolution["computed"]   # 0 when the server had it cached

Spec arguments accept everything :meth:`repro.api.spec.Spec.load` accepts
*locally*: registry names and inline ``.g`` text travel as-is, while
``Spec``/STG instances and local file paths are canonicalized to ``.g``
text before being sent (the server reads no path a request names).  Each
request body is built by :func:`repro.api.request.build`.

Connections persist: a ``Client`` keeps its HTTP/1.1 connections in a
lock-guarded LIFO pool, as many as threads have called it at once, so each
thread's calls reuse one socket and a shared ``Client`` stays thread-safe.  A connection returns to the pool only after
its response was read in full and the server did not ask to close it; any
error discards it, and a pooled socket found closed is dropped before use.
The server closes idle connections, so a request can meet a socket it
closed an instant earlier: a request that fails on a *reused* connection
before any response byte arrives is sent once more on a fresh connection.
That replay is safe because every endpoint is idempotent — a pure function
over a content-addressed store — and it does not count against
``retries``.  ``close()`` (or leaving a ``with`` block) releases the pool.
Against a fleet, one pooled connection stays with the one worker that
accepted it: the kernel balances *connections*, not requests.

Server-side request errors (HTTP 4xx/5xx) surface as :class:`ClientError`
carrying the server's structured error document (stable ``code``, the
human ``message``, and the ``retryable`` flag); a connection that cannot be
made raises ``urllib.error.URLError``.  Responses the server marks retryable
— overload shedding (503), deadline misses (504) — and transient transport
failures (connection refused/reset, a worker killed mid-response, a fleet
member restarting) are retried automatically with exponential backoff,
honouring the server's ``Retry-After`` header in both its delta-seconds
and HTTP-date forms; ``Client(retries=0)`` restores the single-shot
behaviour and ``retry_budget`` caps the total retry wall-clock so a
flapping server cannot hang callers indefinitely.

Fleet hardening (PR 9): a per-endpoint *circuit breaker* trips to ``open``
after ``breaker_threshold`` consecutive exhausted failures — further calls
fail fast with :class:`CircuitOpenError` instead of piling onto a dead
endpoint — and probes half-open after ``breaker_reset`` seconds.
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import time
import urllib.error
import urllib.parse
from dataclasses import dataclass, field
from email.utils import parsedate_to_datetime
from typing import Optional

#: transport-level failures worth retrying: the connection never happened
#: (refused, DNS), died mid-flight (reset, a killed fleet worker answering
#: with a truncated response), or timed out.  ``URLError`` must come first
#: in except clauses only where ordering matters; membership here is what
#: the retry loop checks.
TRANSPORT_ERRORS = (
    urllib.error.URLError,
    http.client.HTTPException,
    ConnectionError,
    TimeoutError,
)

#: how a kept-alive connection the server closed fails a request before
#: any response byte: the cue to replay it on a fresh connection
STALE_CONNECTION_ERRORS = (
    http.client.RemoteDisconnected,
    ConnectionResetError,
    BrokenPipeError,
)

from repro.api.artifacts import Report
from repro.api.request import build
from repro.api.spec import SpecLike
from repro.obs import ObsLike, TRACE_HEADER, get_obs


class ClientError(RuntimeError):
    """A request the server rejected.

    Carries the server's structured error document: ``status`` (HTTP),
    ``code`` (stable machine-readable identifier, e.g. ``spec_error`` or
    ``overloaded``), ``message`` (human-readable) and ``retryable``.
    """

    def __init__(
        self,
        status: int,
        message: str,
        code: str = "",
        retryable: bool = False,
        retry_after: Optional[float] = None,
    ):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.code = code
        self.retryable = retryable
        self.retry_after = retry_after


class CircuitOpenError(RuntimeError):
    """The endpoint's circuit breaker is open; the call failed fast.

    Raised without touching the network: the endpoint exhausted
    ``breaker_threshold`` consecutive calls (including their in-call
    retries), so further traffic is pointless until the breaker half-opens
    after ``breaker_reset`` seconds.  ``retry_in`` says how long that is.
    """

    def __init__(self, endpoint: str, retry_in: float):
        super().__init__(
            f"circuit open for {endpoint} (retry in {retry_in:.1f}s)"
        )
        self.endpoint = endpoint
        self.retry_in = retry_in


@dataclass
class _Breaker:
    """Per-endpoint circuit state: closed → open → half-open → closed."""

    threshold: int
    reset: float
    failures: int = 0
    opened_at: Optional[float] = None
    lock: threading.Lock = field(default_factory=threading.Lock)

    def admit(self, endpoint: str) -> None:
        """Raise :class:`CircuitOpenError` while the circuit is open.

        After ``reset`` seconds the next caller is admitted as the
        half-open probe (the breaker stays open for everyone else until
        that probe reports success).
        """
        with self.lock:
            if self.opened_at is None:
                return
            elapsed = time.monotonic() - self.opened_at
            if elapsed < self.reset:
                raise CircuitOpenError(endpoint, self.reset - elapsed)
            # half-open: admit this probe, push the next window out so
            # concurrent callers keep failing fast until the probe lands
            self.opened_at = time.monotonic()

    def record(self, ok: bool) -> None:
        with self.lock:
            if ok:
                self.failures = 0
                self.opened_at = None
            else:
                self.failures += 1
                if self.failures >= self.threshold:
                    self.opened_at = time.monotonic()


def parse_retry_after(value: Optional[str]) -> Optional[float]:
    """Seconds encoded by a ``Retry-After`` header, or ``None``.

    Accepts both forms of RFC 9110 §10.2.3: delta-seconds (``"5"``) and
    the HTTP-date (``"Fri, 08 Aug 2026 12:00:00 GMT"``); a date in the
    past clamps to zero, garbage parses to ``None``.
    """
    if not value:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        pass
    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if when.tzinfo is None:
        from datetime import timezone

        when = when.replace(tzinfo=timezone.utc)
    from datetime import datetime, timezone

    return max(0.0, (when - datetime.now(timezone.utc)).total_seconds())


def _parse_error_body(payload: bytes, reason: str) -> tuple[str, str, bool]:
    """(code, message, retryable) from a structured or legacy error body."""
    try:
        document = json.loads(payload.decode("utf-8")).get("error", "")
    except ValueError:
        return "", reason, False
    if isinstance(document, dict):
        return (
            str(document.get("code", "")),
            str(document.get("message", "")),
            bool(document.get("retryable", False)),
        )
    return "", str(document), False


def _is_open(sock) -> bool:
    """Whether an idle pooled socket can carry a request.

    A zero-timeout readability check: an idle connection that is readable
    was closed by the server (EOF) or holds bytes no request asked for, and
    is useless either way.
    """
    if sock is None:
        return False
    poller = select.poll()  # select.select fails on descriptors past 1023
    poller.register(sock, select.POLLIN)
    return not poller.poll(0)


@dataclass
class SynthesisResult:
    """One ``/synthesize`` response: the typed report plus cache telemetry."""

    report: Report
    #: {"computed": n, "memory": n, "store": n, "stages": [...]} — how the
    #: server resolved each stage of this request
    resolution: dict
    raw: dict

    @property
    def cached(self) -> bool:
        """True when the server computed nothing for this request."""
        return self.resolution.get("computed", 0) == 0


class Client:
    """HTTP client bound to one ``repro serve`` base URL.

    ``retries`` bounds *additional* attempts after the first (0 disables
    retrying); only responses the server marks ``retryable`` (and transport
    errors such as a connection reset mid-restart) are retried, after an
    exponential backoff starting at ``backoff`` seconds — or after the
    server's ``Retry-After`` hint when one is sent and is larger.
    ``retry_budget`` caps the *total* wall-clock a single logical call may
    spend waiting between attempts (``None``: uncapped).

    ``breaker_threshold`` consecutive *exhausted* calls (retries included)
    against one endpoint trip its circuit breaker: further calls raise
    :class:`CircuitOpenError` instantly until a half-open probe succeeds
    after ``breaker_reset`` seconds.  ``breaker_threshold=0`` disables the
    breaker.

    ``obs`` (an :class:`repro.obs.Obs`, a grammar string, or ``None`` to
    consult ``$REPRO_OBS``) arms distributed tracing: every logical call
    runs inside a ``client:`` span (covering all its retries) whose context
    travels in the ``X-Repro-Trace`` header, so the server's spans stitch
    under the client's in a cross-process trace.

    Connections are pooled and kept alive (see the module docstring);
    ``close()`` or a ``with`` block releases them.
    """

    def __init__(
        self,
        base_url: str = "http://127.0.0.1:8765",
        timeout: float = 300.0,
        retries: int = 3,
        backoff: float = 0.25,
        retry_budget: Optional[float] = None,
        breaker_threshold: int = 0,
        breaker_reset: float = 5.0,
        obs: ObsLike = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.retry_budget = retry_budget
        self.breaker_threshold = breaker_threshold
        self.breaker_reset = breaker_reset
        self.obs = get_obs(obs)
        self._breakers: dict[str, _Breaker] = {}
        self._breakers_lock = threading.Lock()
        url = urllib.parse.urlsplit(self.base_url)
        if url.scheme != "http":
            raise ValueError(f"repro serve speaks http, not {url.scheme!r}")
        self._netloc, self._prefix = url.netloc, url.path
        self._pool: list[http.client.HTTPConnection] = []  # LIFO, idle only
        self._pool_lock = threading.Lock()

    def close(self) -> None:
        """Close the pooled connections; a later call opens a new one."""
        with self._pool_lock:
            pool, self._pool = self._pool, []
        for connection in pool:
            connection.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #

    def _connect(self) -> http.client.HTTPConnection:
        connection = http.client.HTTPConnection(self._netloc, timeout=self.timeout)
        try:
            connection.connect()
        except OSError as error:
            # a connection that never happened is a URLError, as urlopen
            # reports it (the breaker tests and callers rely on that type)
            raise urllib.error.URLError(error) from error
        return connection

    def _checkout(self) -> tuple[http.client.HTTPConnection, bool]:
        """The newest pooled connection that is still open, else a fresh
        one; the flag says whether it was reused."""
        while True:
            with self._pool_lock:
                if not self._pool:
                    break
                connection = self._pool.pop()
            if _is_open(connection.sock):
                return connection, True
            connection.close()
        return self._connect(), False

    def _exchange(
        self, method: str, path: str, data: Optional[bytes], headers: dict
    ) -> tuple[http.client.HTTPResponse, bytes]:
        """One request and its whole response, on a pooled connection.

        A reused connection that fails before any response byte (the server
        closed it while it sat in the pool) is replaced by a fresh one and
        the request sent once more; every endpoint is idempotent.
        """
        connection, reused = self._checkout()
        try:
            while True:
                try:
                    connection.request(
                        method, self._prefix + path, body=data, headers=headers
                    )
                    response = connection.getresponse()
                    break
                except STALE_CONNECTION_ERRORS:
                    if not reused:
                        raise
                    connection.close()
                    connection, reused = self._connect(), False
            payload = response.read()
        except BaseException:
            connection.close()
            raise
        if response.will_close:
            connection.close()
        else:
            with self._pool_lock:
                self._pool.append(connection)
        return response, payload

    def _request_once(self, method: str, path: str, body: Optional[dict] = None) -> dict:
        data = None
        headers = {"Accept": "application/json"}
        if self.obs is not None:
            context = self.obs.tracer.current()
            if context is not None:
                headers[TRACE_HEADER] = context.to_header()
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        response, payload = self._exchange(method, path, data, headers)
        if not 200 <= response.status < 300:
            code, message, retryable = _parse_error_body(payload, response.reason)
            raise ClientError(
                response.status, message, code=code, retryable=retryable,
                retry_after=parse_retry_after(response.getheader("Retry-After")),
            )
        return json.loads(payload.decode("utf-8"))

    def _breaker_for(self, path: str) -> Optional[_Breaker]:
        if not self.breaker_threshold:
            return None
        with self._breakers_lock:
            breaker = self._breakers.get(path)
            if breaker is None:
                breaker = _Breaker(self.breaker_threshold, self.breaker_reset)
                self._breakers[path] = breaker
            return breaker

    def _request(self, method: str, path: str, body: Optional[dict] = None) -> dict:
        if self.obs is None:
            return self._request_guarded(method, path, body)
        # one span per *logical* call: retries are all children
        # of the same client span, and its context rides every attempt's
        # X-Repro-Trace header
        with self.obs.tracer.span(f"client:{method} {path}"):
            return self._request_guarded(method, path, body)

    def _request_guarded(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> dict:
        breaker = self._breaker_for(path)
        if breaker is not None:
            breaker.admit(path)
        try:
            result = self._retry_loop(method, path, body)
        except (ClientError, *TRANSPORT_ERRORS) as error:
            # only failures that exhausted their retries reach here; a 4xx
            # the server calls non-retryable is the caller's bug, not the
            # endpoint's health, and must not trip the breaker
            if breaker is not None:
                retryable = not isinstance(error, ClientError) or error.retryable
                if retryable:
                    breaker.record(ok=False)
            raise
        if breaker is not None:
            breaker.record(ok=True)
        return result

    def _retry_loop(self, method: str, path: str, body: Optional[dict] = None) -> dict:
        attempt = 0
        started = time.monotonic()
        while True:
            attempt += 1
            try:
                return self._request_once(method, path, body)
            except ClientError as error:
                if not error.retryable or attempt > self.retries:
                    raise
                delay = self.backoff * 2.0 ** (attempt - 1)
                if error.retry_after is not None:
                    delay = max(delay, error.retry_after)
                last_error: BaseException = error
            except TRANSPORT_ERRORS as error:
                # connection refused/reset, a worker killed mid-response,
                # the daemon restarting — the fleet contract is that a
                # retry lands on a healthy sibling
                if attempt > self.retries:
                    raise
                delay = self.backoff * 2.0 ** (attempt - 1)
                last_error = error
            if self.retry_budget is not None:
                elapsed = time.monotonic() - started
                if elapsed + delay > self.retry_budget:
                    # the budget is spent: surface the last failure now
                    # instead of sleeping past the caller's patience
                    raise last_error
            time.sleep(delay)

    def _post(self, path: str, arguments: dict, **overrides) -> dict:
        """POST the body an endpoint method's arguments (its ``locals()``)
        make; see :func:`repro.api.request.build`."""
        return self._request("POST", path, build(path, arguments, **overrides))

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #

    def health(self) -> dict:
        return self._request("GET", "/health")

    def benchmarks(self) -> list[str]:
        return self._request("GET", "/benchmarks")["benchmarks"]

    def cache_stats(self) -> dict:
        return self._request("GET", "/cache/stats")

    def cache_clear(self, disk: bool = False) -> dict:
        return self._post("/cache/clear", locals())

    def synthesize(
        self,
        spec: SpecLike,
        level: int = 5,
        backend: str = "structural",
        assume_csc: bool = False,
        map_technology: bool = False,
        verify: bool = False,
        verify_mapped: bool = False,
        library: Optional[str] = None,
        max_markings: Optional[int] = None,
    ) -> SynthesisResult:
        """Run one spec through the server's pipeline; returns the typed report."""
        payload = self._post("/synthesize", locals())
        return SynthesisResult(
            report=Report.from_json(payload["report"]),
            resolution=payload.get("resolution", {}),
            raw=payload,
        )

    def synthesize_many(
        self,
        specs: list,
        level: int = 5,
        backend: str = "structural",
        assume_csc: bool = False,
        map_technology: bool = False,
        verify: bool = False,
        verify_mapped: bool = False,
        library: Optional[str] = None,
        max_markings: Optional[int] = None,
        jobs: Optional[int] = None,
    ) -> list[SynthesisResult]:
        """Synthesize a batch of specs in one ``/synthesize/batch`` request.

        The server feeds the batch straight into its process-pool scheduler
        (``jobs`` caps the pool width; ``None`` leaves it to the server).
        Returns one :class:`SynthesisResult` per spec, in input order.  When
        any item fails, raises :class:`ClientError` naming every failed
        spec — the successes are on the exception as ``.results``.
        """
        arguments = dict(locals())
        items = [build("/synthesize", arguments, spec=spec) for spec in specs]
        payload = self._post("/synthesize/batch", arguments, items=items)
        results: list[Optional[SynthesisResult]] = []
        failures: list[str] = []
        for entry in payload.get("results", []):
            if entry.get("ok"):
                results.append(
                    SynthesisResult(
                        # pool mode has no per-item resolution (the work
                        # happened in a child process) — an empty dict
                        # reads as "nothing known", not "nothing computed"
                        resolution=entry.get("resolution") or {},
                        report=Report.from_json(entry["report"]),
                        raw=entry,
                    )
                )
            else:
                results.append(None)
                detail = entry.get("error", {})
                failures.append(
                    f"{entry.get('spec', '?')}: "
                    f"[{detail.get('code', 'internal')}] {detail.get('message', '')}"
                )
        if failures:
            error = ClientError(
                200,
                f"{len(failures)} of {len(results)} batch item(s) failed: "
                + "; ".join(failures),
                code="batch_partial_failure",
            )
            error.results = results  # type: ignore[attr-defined]
            raise error
        return results  # type: ignore[return-value]

    def verify(
        self,
        spec: SpecLike,
        level: int = 5,
        backend: str = "structural",
        assume_csc: bool = False,
        mapped: bool = False,
        library: Optional[str] = None,
        max_markings: Optional[int] = None,
    ) -> dict:
        return self._post("/verify", locals())

    def compare(
        self,
        spec: SpecLike,
        level: int = 5,
        assume_csc: bool = False,
        max_markings: Optional[int] = None,
    ) -> dict:
        """Differential mode on the server; returns the comparison document."""
        return self._post("/compare", locals())

    def export(
        self,
        spec: SpecLike,
        fmt: str = "verilog",
        level: int = 5,
        assume_csc: bool = False,
        library: Optional[str] = None,
    ) -> str:
        """Map on the server and return the rendered netlist text."""
        payload = self._post("/export", locals())
        return payload["text"]
