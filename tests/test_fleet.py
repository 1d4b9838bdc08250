"""Tests of the supervised prefork serving fleet (``repro serve --workers``).

The real thing — a :class:`~repro.api.fleet.FleetSupervisor` running
worker *subprocesses* on one ``SO_REUSEPORT`` port: respawn after SIGKILL,
recycling after ``max_requests``, hung-worker detection, graceful drain of
an in-flight request, a seeded chaos campaign that must finish with zero
client-visible failures, and the cold-herd bound: concurrent cold requests
for one spec are computed at most once per worker and leave one store
entry per stage key.

The client-side fleet hardening (``Retry-After`` dates, retry budget,
circuit breaker) is tested against stub servers at the end.
"""

from __future__ import annotations

import io
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import os
import signal

import pytest

from repro.api.client import (
    CircuitOpenError,
    Client,
    ClientError,
    parse_retry_after,
)
from repro.api.events import EventLog
from repro.api.fleet import (
    EXIT_DRAINED,
    EXIT_RECYCLED,
    FleetConfig,
    FleetSupervisor,
)
from repro.api.server import create_server
from repro.api.store import ArtifactStore

def poll_until(predicate, timeout: float = 15.0, interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ---------------------------------------------------------------------- #
# The fleet itself (worker subprocesses)
# ---------------------------------------------------------------------- #


def _wait_http_ready(port: int, timeout: float = 20.0) -> None:
    def probe() -> bool:
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/health", timeout=2
            ) as response:
                return response.status == 200
        except (urllib.error.URLError, ConnectionError, OSError):
            return False

    assert poll_until(probe, timeout=timeout), "fleet never became reachable"


@contextmanager
def running_fleet(tmp_path, log=None, client_retries: int = 8, **overrides):
    """A started fleet plus a supervision thread driving ``poll()``.

    ``run()`` installs signal handlers and so only works on the main
    thread; tests drive the public ``poll()`` from a plain loop instead —
    the same supervision semantics, minus the signals.
    """
    settings = dict(
        port=0,
        workers=2,
        store=str(tmp_path / "store"),
        run_dir=str(tmp_path / "run"),
        heartbeat_interval=0.1,
    )
    settings.update(overrides)
    config = FleetConfig(**settings)
    supervisor = FleetSupervisor(config, on_event=log, log_stream=io.StringIO())
    supervisor.start()
    stop = threading.Event()

    def supervise() -> None:
        while not stop.is_set():
            supervisor.poll()
            stop.wait(0.05)

    thread = threading.Thread(target=supervise, daemon=True)
    thread.start()
    try:
        _wait_http_ready(supervisor.port)
        client = Client(
            f"http://127.0.0.1:{supervisor.port}",
            retries=client_retries,
            backoff=0.1,
            timeout=60,
        )
        yield supervisor, client
    finally:
        stop.set()
        thread.join(timeout=5)
        supervisor.stop()


class TestFleet:
    def test_fleet_serves_shared_store_and_drains_gracefully(self, tmp_path):
        with running_fleet(tmp_path) as (supervisor, client):
            health = client.health()
            assert "worker" in health and "pid" in health
            first = client.synthesize("sequencer", level=5, assume_csc=True)
            assert first.report.speed_independent is not False
            assert first.resolution["computed"] > 0
            # any sibling serves the repeat from the shared store: nothing
            # is recomputed no matter which worker the kernel picks
            second = client.synthesize("sequencer", level=5, assume_csc=True)
            assert second.resolution["computed"] == 0
            stats = client.cache_stats()
            assert "worker" in stats
            handles = [w for w in supervisor.workers if w is not None]
            supervisor.stop()  # graceful drain
            assert all(h.process.returncode == EXIT_DRAINED for h in handles)
        assert supervisor.respawns == 0

    def test_sigkilled_worker_is_respawned_and_serving_continues(self, tmp_path):
        log = EventLog()
        with running_fleet(tmp_path, log=log) as (supervisor, client):
            assert client.synthesize("sequencer").report is not None
            victim = supervisor.workers[0]
            os.kill(victim.pid, signal.SIGKILL)
            assert poll_until(lambda: supervisor.respawns >= 1)
            replacement = supervisor.workers[0]
            assert replacement.pid != victim.pid
            assert replacement.generation == victim.generation + 1
            # the fleet kept serving throughout (shared store: no recompute)
            result = client.synthesize("sequencer")
            assert result.resolution["computed"] == 0
        respawn_events = [e for e in log.of_kind("worker") if e.status == "respawn"]
        assert len(respawn_events) >= 1
        assert respawn_events[0].index == 0

    def test_worker_recycles_after_its_request_budget(self, tmp_path):
        log = EventLog()
        with running_fleet(tmp_path, log=log, workers=1, max_requests=2) as (
            supervisor,
            client,
        ):
            client.synthesize("sequencer")
            client.synthesize("sequencer")
            assert poll_until(lambda: supervisor.recycles >= 1)
            # a fresh generation picks the load back up (client retries
            # cover the respawn window)
            result = client.synthesize("sequencer")
            assert result.resolution["computed"] == 0
            worker = supervisor.workers[0]
            assert worker.generation >= 2
        recycle_events = [e for e in log.of_kind("worker") if e.status == "recycle"]
        assert len(recycle_events) >= 1
        assert supervisor.respawns == 0  # planned retirement, not a crash

    def test_recycling_worker_closes_the_kept_connection(self, tmp_path):
        # the budget's last response carries Connection: close, so the
        # client drops the connection it kept, and its next call lands on
        # the fresh generation instead of on the retiring worker
        with running_fleet(tmp_path, workers=1, max_requests=2) as (
            supervisor,
            client,
        ):
            assert client.health()["worker"] == "0.1"
            client.synthesize("sequencer")
            assert len(client._pool) == 1  # kept alive after the first
            client.synthesize("sequencer")
            assert client._pool == []
            assert poll_until(lambda: supervisor.recycles >= 1)
            assert client.health()["worker"] == "0.2"
        assert supervisor.respawns == 0

    def test_hung_worker_is_killed_and_respawned(self, tmp_path):
        with running_fleet(
            tmp_path, workers=1, heartbeat_timeout=2.5
        ) as (supervisor, client):
            assert client.health()["worker"] == "0.1"
            victim = supervisor.workers[0]
            os.kill(victim.pid, signal.SIGSTOP)  # alive but not beating
            assert poll_until(lambda: supervisor.hung_kills >= 1, timeout=20)
            assert supervisor.workers[0].pid != victim.pid
            assert client.health()["worker"] == "0.2"

    def test_graceful_drain_completes_the_in_flight_request(self, tmp_path):
        # the drain contract: SIGTERM while a request is mid-synthesis
        # (stretched to ~1s by an injected delay) must finish that request
        # and only then let the worker exit 0
        with running_fleet(
            tmp_path,
            workers=1,
            faults="stage.delay@synthesize=1~1.0",
            drain_timeout=15.0,
        ) as (supervisor, client):
            client.health()
            outcome = {}

            def request() -> None:
                solo = Client(client.base_url, retries=0, timeout=60)
                try:
                    outcome["result"] = solo.synthesize("sequencer")
                except Exception as error:  # noqa: BLE001 — asserted below
                    outcome["error"] = error

            thread = threading.Thread(target=request)
            thread.start()
            time.sleep(0.4)  # the request is now inside the stage delay
            handle = supervisor.workers[0]
            supervisor.stop(drain=True)
            thread.join(timeout=30)
            assert "error" not in outcome, outcome.get("error")
            assert outcome["result"].report is not None
            assert handle.process.returncode == EXIT_DRAINED

    def test_seeded_chaos_campaign_loses_no_request(self, tmp_path):
        # the PR's acceptance bar: kills + delays under concurrent load,
        # zero client-visible failures.  A deterministic SIGKILL guarantees
        # at least one respawn regardless of how the kernel spreads the
        # chaos opportunities across workers.
        log = EventLog()
        faults = "seed=11;worker.kill@synthesize=0.15;stage.delay@synthesize=0.2~0.05"
        with running_fleet(
            tmp_path, log=log, workers=3, faults=faults, client_retries=10
        ) as (supervisor, client):
            specs = ["sequencer", "fig1", "handshake_seq"]
            failures: list[str] = []
            served = [0]
            lock = threading.Lock()

            def hammer(worker_index: int) -> None:
                hammer_client = Client(
                    client.base_url, retries=10, backoff=0.05, timeout=60
                )
                for step in range(15):
                    spec = specs[(worker_index + step) % len(specs)]
                    try:
                        result = hammer_client.synthesize(
                            spec, level=5, assume_csc=True
                        )
                        assert result.report is not None
                        with lock:
                            served[0] += 1
                    except Exception as error:  # noqa: BLE001 — collected
                        with lock:
                            failures.append(f"{spec}: {type(error).__name__}: {error}")

            threads = [
                threading.Thread(target=hammer, args=(i,)) for i in range(3)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.5)
            try:
                os.kill(supervisor.workers[1].pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # chaos beat us to this worker; a respawn happened anyway
            for thread in threads:
                thread.join(timeout=120)
            assert failures == []
            assert served[0] == 45
            assert supervisor.respawns >= 1
        assert any(e.status == "respawn" for e in log.of_kind("worker"))

    def test_cold_herd_computes_at_most_once_per_worker(self, tmp_path):
        # each worker's service lock serializes its own requests, so a herd
        # of cold requests for one spec is computed at most once per
        # worker, every report is the same, and the atomic store writes
        # leave one entry per stage key.  The delay holds the first
        # computation open while the herd lands.
        herd_size = 6
        with running_fleet(tmp_path, faults="stage.delay@synthesize=1~0.3") as (
            supervisor,
            client,
        ):
            barrier = threading.Barrier(herd_size)
            results = [None] * herd_size
            failures: list[str] = []

            def stampede(slot: int) -> None:
                herd_client = Client(client.base_url, retries=8, backoff=0.1, timeout=60)
                barrier.wait()
                try:
                    results[slot] = herd_client.synthesize(
                        "sequencer", level=5, assume_csc=True
                    )
                except Exception as error:  # noqa: BLE001 — asserted below
                    failures.append(f"{type(error).__name__}: {error}")

            herd = [threading.Thread(target=stampede, args=(i,)) for i in range(herd_size)]
            for thread in herd:
                thread.start()
            for thread in herd:
                thread.join(timeout=120)
            assert supervisor.respawns == 0
        assert failures == []

        def zero_seconds(value):
            if isinstance(value, dict):
                return {
                    key: 0 if key.endswith("seconds") else zero_seconds(item)
                    for key, item in value.items()
                }
            if isinstance(value, list):
                return [zero_seconds(item) for item in value]
            return value

        reports = {
            json.dumps(zero_seconds(result.report.to_json()), sort_keys=True)
            for result in results
        }
        assert len(reports) == 1
        computed = sum(
            1
            for result in results
            for stage in result.resolution["stages"]
            if stage == {"stage": "synthesize", "status": "computed"}
        )
        assert 1 <= computed <= 2, [result.resolution for result in results]
        stats = ArtifactStore(tmp_path / "store").stats()
        assert stats["per_stage"] == {"analyze": 1, "refine": 1, "synthesize": 1}
        assert stats["entries"] == 3 and stats["tmp_files"] == 0


# ---------------------------------------------------------------------- #
# Client hardening: Retry-After dates, budget, breaker, hedging
# ---------------------------------------------------------------------- #


class TestParseRetryAfter:
    def test_delta_seconds(self):
        assert parse_retry_after("2.5") == 2.5
        assert parse_retry_after("0") == 0.0
        assert parse_retry_after("-3") == 0.0  # clamped

    def test_http_date(self):
        future = formatdate(time.time() + 5, usegmt=True)
        parsed = parse_retry_after(future)
        assert parsed is not None and 2.0 < parsed <= 6.0
        past = formatdate(time.time() - 60, usegmt=True)
        assert parse_retry_after(past) == 0.0

    def test_garbage_and_missing(self):
        assert parse_retry_after("soon-ish") is None
        assert parse_retry_after(None) is None
        assert parse_retry_after("") is None

    def test_malformed_dates_degrade_to_none(self):
        # shapes real proxies emit when misconfigured: almost-dates must
        # degrade to None (caller falls back to its own backoff), never raise
        for value in (
            "Fri, 99 Zan 2026 12:00:00 GMT",
            "Friday the 8th",
            "5 seconds",
            "2026-08-08T12:00:00Z",  # ISO 8601 is not an HTTP-date
            "   ",
        ):
            assert parse_retry_after(value) is None, value

    def test_naive_http_date_is_treated_as_utc(self):
        # some origins drop the zone; RFC 9110 says GMT is implied
        naive = formatdate(time.time() + 5, usegmt=True).replace(" GMT", "")
        parsed = parse_retry_after(naive)
        assert parsed is not None and 2.0 < parsed <= 6.0
        stale = formatdate(time.time() - 3600, usegmt=True).replace(" GMT", "")
        assert parse_retry_after(stale) == 0.0

    def test_distant_past_and_nonsense_numbers(self):
        assert parse_retry_after("Thu, 01 Jan 1970 00:00:00 GMT") == 0.0
        assert parse_retry_after("-0.0") == 0.0
        assert parse_retry_after("1e3") == 1000.0  # float grammar is fine


@pytest.fixture()
def overloaded_server(tmp_path):
    """A real server that sheds every locked request with 503 + Retry-After."""
    server = create_server(port=0, store=tmp_path / "store", max_queue=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestClientHardening:
    def test_retry_budget_caps_the_waiting(self, overloaded_server):
        port = overloaded_server.server_address[1]
        client = Client(
            f"http://127.0.0.1:{port}", retries=5, backoff=0.05, retry_budget=0.3
        )
        started = time.monotonic()
        with pytest.raises(ClientError) as excinfo:
            client.synthesize("sequencer")
        # the server's Retry-After hint (1s) would blow the 0.3s budget:
        # the client surfaces the failure instead of sleeping past it
        assert excinfo.value.code == "overloaded"
        assert time.monotonic() - started < 1.0
        assert overloaded_server.service.shed == 1  # a single attempt went out

    def test_http_date_retry_after_exhausts_the_budget_mid_backoff(self):
        """A far-future HTTP-date hint must not be slept on past the budget."""
        attempts = [0]

        class _DatedShedder(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 (stdlib naming)
                attempts[0] += 1
                self.rfile.read(int(self.headers.get("Content-Length") or 0))
                body = json.dumps(
                    {
                        "error": {
                            "code": "overloaded",
                            "message": "shedding",
                            "retryable": True,
                        }
                    }
                ).encode()
                self.send_response(503)
                # 30 s out: any attempt's backoff would blow a 0.5 s budget
                self.send_header(
                    "Retry-After", formatdate(time.time() + 30, usegmt=True)
                )
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # noqa: A002 (stdlib signature)
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), _DatedShedder)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = Client(
                f"http://127.0.0.1:{server.server_address[1]}",
                retries=5,
                backoff=0.01,
                retry_budget=0.5,
            )
            started = time.monotonic()
            with pytest.raises(ClientError) as excinfo:
                client.synthesize("sequencer")
            elapsed = time.monotonic() - started
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert excinfo.value.code == "overloaded"
        assert excinfo.value.retry_after == pytest.approx(30.0, abs=2.0)
        assert attempts[0] == 1  # the hinted delay never fit the budget
        assert elapsed < 2.0  # the client did not honour the 30 s hint

    def test_past_http_date_defers_to_exponential_backoff(self):
        """A stale date clamps to 0: the client's own backoff still applies."""
        attempts = [0]

        class _StaleShedder(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 (stdlib naming)
                attempts[0] += 1
                self.rfile.read(int(self.headers.get("Content-Length") or 0))
                if attempts[0] >= 3:
                    body = json.dumps({"report": None, "ok": True}).encode()
                    self.send_response(200)
                else:
                    body = json.dumps(
                        {
                            "error": {
                                "code": "overloaded",
                                "message": "shedding",
                                "retryable": True,
                            }
                        }
                    ).encode()
                    self.send_response(503)
                    self.send_header(
                        "Retry-After", formatdate(time.time() - 60, usegmt=True)
                    )
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # noqa: A002 (stdlib signature)
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), _StaleShedder)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = Client(
                f"http://127.0.0.1:{server.server_address[1]}",
                retries=5,
                backoff=0.01,
                retry_budget=5.0,
            )
            started = time.monotonic()
            payload = client._request("POST", "/anything", {})
            elapsed = time.monotonic() - started
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert payload["ok"] is True
        assert attempts[0] == 3  # two shed attempts, then success
        assert elapsed < 2.0  # max(backoff, 0.0) kept the waits tiny

    def test_breaker_opens_after_consecutive_transport_failures(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()  # nothing listens there now
        client = Client(
            f"http://127.0.0.1:{dead_port}",
            retries=0,
            breaker_threshold=2,
            breaker_reset=60.0,
        )
        for _ in range(2):
            with pytest.raises(urllib.error.URLError):
                client.health()
        started = time.monotonic()
        with pytest.raises(CircuitOpenError) as excinfo:
            client.health()
        assert time.monotonic() - started < 0.1  # failed fast, no network
        assert excinfo.value.endpoint == "/health"
        assert excinfo.value.retry_in > 0

    def test_breaker_half_opens_after_the_reset_window(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        client = Client(
            f"http://127.0.0.1:{dead_port}",
            retries=0,
            breaker_threshold=1,
            breaker_reset=0.15,
        )
        with pytest.raises(urllib.error.URLError):
            client.health()
        with pytest.raises(CircuitOpenError):
            client.health()
        time.sleep(0.2)
        # half-open: the probe is admitted to the network again (and fails
        # there, re-opening the circuit for the next caller)
        with pytest.raises(urllib.error.URLError):
            client.health()
        with pytest.raises(CircuitOpenError):
            client.health()

    def test_breakers_are_per_endpoint(self, overloaded_server):
        port = overloaded_server.server_address[1]
        client = Client(
            f"http://127.0.0.1:{port}",
            retries=0,
            breaker_threshold=1,
            breaker_reset=60.0,
        )
        with pytest.raises(ClientError):
            client.synthesize("sequencer")  # trips /synthesize
        with pytest.raises(CircuitOpenError):
            client.synthesize("sequencer")
        # /health has its own (untripped) breaker and still goes through
        assert client.health()["status"] == "ok"


# ---------------------------------------------------------------------- #
# Worker-facing server features (in-process)
# ---------------------------------------------------------------------- #


class TestWorkerServer:
    def _get(self, port: int, path: str):
        request = urllib.request.Request(f"http://127.0.0.1:{port}{path}")
        with urllib.request.urlopen(request, timeout=10) as response:
            return (
                response.status,
                dict(response.headers),
                json.loads(response.read().decode()),
            )

    def test_ready_probe_is_ttl_cached(self, tmp_path):
        server = create_server(port=0, store=tmp_path / "store", ready_ttl=30.0)
        service = server.service
        probes = [0]
        real_probe = service.pipeline.store.probe

        def counting_probe():
            probes[0] += 1
            return real_probe()

        service.pipeline.store.probe = counting_probe
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        try:
            for _ in range(3):
                status, _, body = self._get(port, "/ready")
                assert status == 200 and body["ready"] is True
            assert probes[0] == 1  # two of the three were TTL-cached
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_draining_worker_reports_not_ready(self, tmp_path):
        server = create_server(port=0, store=tmp_path / "store", worker_id="4.2")
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        try:
            status, _, body = self._get(port, "/ready")
            assert status == 200 and body["worker"] == "4.2"
            server.service.draining = True
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(port, "/ready")
            assert excinfo.value.code == 503
            payload = json.loads(excinfo.value.read().decode())
            assert payload["ready"] is False
            assert payload["reason"] == "draining"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_worker_identity_header(self, tmp_path):
        server = create_server(port=0, store=tmp_path / "store", worker_id="7.3")
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        try:
            status, headers, body = self._get(port, "/health")
            assert status == 200
            assert headers.get("X-Repro-Worker") == "7.3"
            assert body["worker"] == "7.3"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_plain_server_has_no_worker_header(self, tmp_path):
        server = create_server(port=0, store=tmp_path / "store")
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        try:
            _, headers, body = self._get(port, "/health")
            assert "X-Repro-Worker" not in headers
            assert "worker" not in body
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_recycle_budget_fires_exactly_once(self, tmp_path):
        recycles = []
        server = create_server(
            port=0,
            store=tmp_path / "store",
            worker_id="0.1",
            max_requests=2,
            on_recycle=lambda: recycles.append(time.monotonic()),
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        try:
            client = Client(f"http://127.0.0.1:{port}", retries=0)
            client.synthesize("sequencer")
            assert recycles == []
            client.synthesize("sequencer")
            assert len(recycles) == 1
            assert server.service.draining is True
            # the budget fires once even if more requests sneak in before
            # the worker's main loop reacts
            client.cache_stats()
            assert len(recycles) == 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
