"""Tests of the supervised prefork serving fleet (``repro serve --workers``).

Three layers, bottom-up:

* :class:`~repro.api.fleet.SingleFlight` and the store's hot LRU tier as
  plain in-process units;
* pipeline-level coalescing: two pipelines racing the same cold spec over
  one shared store compute every stage exactly once between them;
* the real thing — a :class:`~repro.api.fleet.FleetSupervisor` running
  worker *subprocesses* on one ``SO_REUSEPORT`` port: respawn after
  SIGKILL, recycling after ``max_requests``, hung-worker detection,
  graceful drain of an in-flight request, and a seeded chaos campaign that
  must finish with zero client-visible failures.

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

from repro.api import SynthesisOptions
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
    SingleFlight,
)
from repro.api.pipeline import Pipeline
from repro.api.server import create_server
from repro.api.store import ArtifactStore

OPTIONS = SynthesisOptions(level=5, assume_csc=True)


def poll_until(predicate, timeout: float = 15.0, interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ---------------------------------------------------------------------- #
# SingleFlight
# ---------------------------------------------------------------------- #


class TestSingleFlight:
    def test_leader_election_is_exclusive_and_released(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        first = SingleFlight(store)
        second = SingleFlight(store)
        assert first.acquire("d1") is True
        assert second.acquire("d1") is False
        assert second.acquire("d2") is True  # other digests are independent
        first.release("d1")
        assert second.acquire("d1") is True
        assert first.led == 1 and second.led == 2

    def test_follower_returns_the_leaders_write(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        leader = SingleFlight(store)
        follower = SingleFlight(store, poll_interval=0.005)
        assert leader.acquire("d1")
        reads = iter([None, None, {"value": 42}])
        document = follower.wait("d1", lambda: next(reads))
        assert document == {"value": 42}
        assert follower.followed == 1 and follower.degraded == 0

    def test_absent_lock_resolves_with_one_final_read(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        flight = SingleFlight(store)
        # leader released and its write landed: coalesce on the final read
        # without ever sleeping
        reads = iter([None, {"v": 1}])
        assert flight.wait("gone", lambda: next(reads)) == {"v": 1}
        assert flight.followed == 1
        # no lock and nothing stored: degrade to local computation — but
        # never loop forever on an unlocked digest
        assert flight.wait("gone2", lambda: None) is None
        assert flight.degraded == 1

    def test_dead_leader_lock_is_stolen(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        flight = SingleFlight(store, poll_interval=0.005)
        store.flight_dir.mkdir(parents=True, exist_ok=True)
        lock = store.flight_dir / "d1.flight"
        # a pid far above any real pid space: certainly not alive
        lock.write_text(json.dumps({"pid": 2**31 - 19, "at": 0}))
        assert flight.wait("d1", lambda: None) is None
        assert flight.degraded == 1
        assert not lock.exists()  # stolen, so the next herd is not blocked
        assert flight.acquire("d1") is True

    def test_live_leader_and_deadline_degrade(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        leader = SingleFlight(store)
        assert leader.acquire("d1")  # our own pid: counts as alive
        follower = SingleFlight(store, wait_timeout=0.05, poll_interval=0.01)
        started = time.monotonic()
        assert follower.wait("d1", lambda: None) is None
        assert time.monotonic() - started < 2.0
        assert follower.degraded == 1
        assert (store.flight_dir / "d1.flight").exists()  # not stolen


# ---------------------------------------------------------------------- #
# Store hot tier
# ---------------------------------------------------------------------- #


class TestStoreHotTier:
    def test_hot_entries_are_served_without_disk(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", lru_size=4)
        key = ("stage", "spec", 1)
        store.put(key, {"value": 1})
        # remove the backing file: the hot tier must still answer
        store.path_of(store.digest_of(key)).unlink()
        assert store.get(key) == {"value": 1}
        assert store.lru_hits == 1
        assert store.hits == 1 and store.misses == 0

    def test_hot_tier_is_bounded_lru(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", lru_size=2)
        for index in range(3):
            store.put(("k", index), {"value": index})
        stats = store.stats()["session"]
        assert stats["lru_entries"] == 2
        assert stats["lru_size"] == 2
        # the oldest entry was evicted from the tier but survives on disk
        assert store.get(("k", 0)) == {"value": 0}

    def test_disk_reads_populate_the_hot_tier(self, tmp_path):
        root = tmp_path / "store"
        writer = ArtifactStore(root)
        writer.put(("k", 1), {"value": 1})
        reader = ArtifactStore(root, lru_size=4)
        assert reader.get(("k", 1)) == {"value": 1}  # disk read
        assert reader.lru_hits == 0
        assert reader.get(("k", 1)) == {"value": 1}  # hot now
        assert reader.lru_hits == 1

    def test_peek_does_not_move_the_counters(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.peek(("k", 1)) is None
        store.put(("k", 1), {"value": 1})
        assert store.peek(("k", 1)) == {"value": 1}
        assert store.hits == 0 and store.misses == 0

    def test_lru_disabled_by_default(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(("k", 1), {"value": 1})
        assert store.stats()["session"]["lru_entries"] == 0
        assert store.lru_hits == 0

    def test_sweep_removes_stale_flight_locks(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.flight_dir.mkdir(parents=True, exist_ok=True)
        stale = store.flight_dir / "dead.flight"
        stale.write_text("{}")
        old = time.time() - 3600
        os.utime(stale, (old, old))
        fresh = store.flight_dir / "live.flight"
        fresh.write_text("{}")
        swept = store.sweep(tmp_older_than=60)
        assert swept["flight_removed"] == 1
        assert not stale.exists() and fresh.exists()


# ---------------------------------------------------------------------- #
# Pipeline coalescing
# ---------------------------------------------------------------------- #


class TestPipelineCoalescing:
    def test_racing_pipelines_compute_each_stage_once(self, tmp_path):
        root = tmp_path / "store"
        logs = [EventLog(), EventLog()]
        pipelines = []
        for log in logs:
            store = ArtifactStore(root)
            pipelines.append(
                Pipeline(
                    store=store,
                    flights=SingleFlight(store, poll_interval=0.005),
                    on_event=log,
                    # stretch analyze so the second runner reliably lands
                    # inside the first runner's flight
                    faults="stage.delay@analyze=1~0.3",
                )
            )
        reports = [None, None]
        errors = []

        def runner(index: int) -> None:
            try:
                if index:
                    time.sleep(0.08)
                reports[index] = pipelines[index].run("sequencer", OPTIONS)
            except Exception as error:  # noqa: BLE001 — surfaced below
                errors.append(error)

        threads = [threading.Thread(target=runner, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert reports[0].literals == reports[1].literals
        # the coalescing invariant: between the two pipelines every stage
        # was computed exactly once — the other side followed the flight
        events = [e for log in logs for e in log.events if e.kind == "stage"]
        computed = {}
        for event in events:
            if event.status == "computed":
                computed[event.stage] = computed.get(event.stage, 0) + 1
        assert computed and all(count == 1 for count in computed.values()), computed
        # the late runner coalesced the outermost stage it first needed
        # (stage memos nest: the synthesize key subsumes refine/analyze)
        assert sum(pipelines[1].coalesced.values()) >= 1
        assert "coalesced" in logs[1].stage_statuses("synthesize")
        total_flights = [p.flights for p in pipelines]
        assert sum(f.led for f in total_flights) == len(computed)
        assert sum(f.degraded for f in total_flights) == 0


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
            assert "flights" in stats and "worker" in stats
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
