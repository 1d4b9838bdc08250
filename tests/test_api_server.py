"""Tests of the ``repro serve`` daemon and its Python client.

The server is driven in-process: ``create_server(port=0)`` binds an
ephemeral port and a background thread serves it — the same harness the CI
smoke job uses from a separate process.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import Pipeline, SynthesisOptions
from repro.api.client import Client, ClientError
from repro.api.server import create_server
from repro.benchmarks.classic import load_classic
from repro.stg.writer import write_g


@pytest.fixture()
def served(tmp_path):
    """A serving (server, client) pair with a per-test store."""
    server = create_server(port=0, store=tmp_path / "store")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    try:
        yield server, Client(f"http://127.0.0.1:{port}")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestEndpoints:
    def test_health_and_benchmarks(self, served):
        _, client = served
        health = client.health()
        assert health["status"] == "ok"
        assert "sequencer" in client.benchmarks()

    def test_synthesize_returns_a_typed_report(self, served):
        _, client = served
        result = client.synthesize(
            "sequencer", assume_csc=True, map_technology=True, verify=True
        )
        assert result.report.literals > 0
        assert result.report.mapping.total_area > 0
        assert result.report.verification.speed_independent is True
        assert not result.cached

    def test_repeated_request_is_served_from_cache(self, served):
        _, client = served
        first = client.synthesize("sequencer", assume_csc=True, verify=True)
        second = client.synthesize("sequencer", assume_csc=True, verify=True)
        assert not first.cached
        assert second.cached
        assert second.resolution["computed"] == 0
        assert second.report.literals == first.report.literals

    def test_warm_store_survives_a_server_restart(self, served, tmp_path):
        server, client = served
        client.synthesize("handshake_seq", assume_csc=True)
        # a brand-new service over the same store resolves from disk
        restarted = create_server(port=0, store=tmp_path / "store")
        thread = threading.Thread(target=restarted.serve_forever, daemon=True)
        thread.start()
        try:
            fresh = Client(f"http://127.0.0.1:{restarted.server_address[1]}")
            result = fresh.synthesize("handshake_seq", assume_csc=True)
            assert result.cached
            assert result.resolution["store"] > 0
        finally:
            restarted.shutdown()
            restarted.server_close()
            thread.join(timeout=5)

    def test_inline_g_text_spec(self, served):
        _, client = served
        text = write_g(load_classic("sequencer"))
        result = client.synthesize(text, assume_csc=True)
        assert result.report.spec_name == "sequencer"

    def test_verify_and_mapped(self, served):
        _, client = served
        payload = client.verify("sequencer", assume_csc=True, mapped=True)
        assert payload["verify"]["speed_independent"] is True
        assert payload["verify_mapped"]["equivalent"] is True

    def test_compare(self, served):
        _, client = served
        payload = client.compare("handshake_seq")
        assert payload["comparison"]["matching"] is True
        assert payload["comparison"]["checked_markings"] > 0

    def test_export(self, served):
        _, client = served
        text = client.export("sequencer", "verilog", assume_csc=True)
        assert "module" in text
        from repro.gates import validate_verilog

        validate_verilog(text)

    def test_cache_stats_and_clear(self, served):
        _, client = served
        client.synthesize("fig1", assume_csc=True)
        stats = client.cache_stats()
        assert stats["stage_calls"]["synthesize"] >= 1
        assert stats["store"]["entries"] > 0
        cleared = client.cache_clear(disk=True)
        assert cleared["cleared"] is True
        assert cleared["disk_entries_removed"] > 0
        assert client.cache_stats()["store"]["entries"] == 0


class TestErrors:
    def test_unknown_spec_is_a_400(self, served):
        _, client = served
        with pytest.raises(ClientError) as excinfo:
            client.synthesize("no_such_benchmark_at_all")
        assert excinfo.value.status == 400
        assert "no_such_benchmark_at_all" in excinfo.value.message

    def test_synthesis_error_is_a_400(self, served):
        _, client = served
        # fig5 has structural CSC conflicts; without assume_csc it must fail
        with pytest.raises(ClientError) as excinfo:
            client.synthesize("fig5")
        assert excinfo.value.status == 400
        assert "CSC" in excinfo.value.message

    def test_structural_verify_over_the_bound_is_a_state_space_limit(self, served):
        # without the bound reaching the verifier this request would try to
        # enumerate all 2^40 markings of independent_cells_20
        server, client = served
        with pytest.raises(ClientError) as excinfo:
            client.synthesize("independent_cells_20", verify=True, max_markings=1000)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "state_space_limit"
        status, body = _post_json(
            server.server_address[1],
            "/synthesize",
            {"spec": "independent_cells_20", "verify": True, "max_markings": 1000},
        )
        assert status == 400
        assert body["error"]["code"] == "state_space_limit"

    def test_unknown_endpoint_is_a_404(self, served):
        _, client = served
        with pytest.raises(ClientError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_malformed_body_is_a_400(self, served):
        server, client = served
        request = urllib.request.Request(
            client.base_url + "/synthesize",
            data=b"{ not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("length", ["abc", "-5", "-1"])
    def test_invalid_content_length_is_a_400(self, served, length):
        """A non-numeric or negative Content-Length gets a structured 400.

        It used to kill the request thread without a response; ``-1``
        blocked the thread reading until the client hung up.
        """
        server, _ = served
        request = (
            "POST /synthesize HTTP/1.1\r\n"
            "Host: 127.0.0.1\r\n"
            f"Content-Length: {length}\r\n"
            "Content-Type: application/json\r\n\r\n"
            '{"spec": "sequencer"}'
        ).encode()
        with socket.create_connection(server.server_address, timeout=10) as sock:
            sock.sendall(request)
            response = b""
            while chunk := sock.recv(65536):  # the server closes after replying
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == b"400"
        assert json.loads(body) == {
            "error": {
                "code": "bad_request",
                "message": "Content-Length must be a non-negative integer",
                "retryable": False,
            }
        }

    def test_a_body_that_is_not_utf8_is_a_400(self, served):
        """It used to kill the request thread without a response."""
        server, _ = served
        body = b'{"spec": "\xff"}'
        request = (
            b"POST /synthesize HTTP/1.0\r\n"
            b"Content-Length: %d\r\nContent-Type: application/json\r\n\r\n" % len(body)
        ) + body
        with socket.create_connection(server.server_address, timeout=10) as sock:
            sock.sendall(request)
            response = b""
            while chunk := sock.recv(65536):
                response += chunk
        head, _, payload = response.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == b"400"
        assert json.loads(payload)["error"]["code"] == "bad_request"

    def test_memory_cache_is_bounded_by_eviction(self, tmp_path):
        """A stream of distinct requests must not grow memory without bound."""
        from repro.api.server import SynthesisService

        service = SynthesisService(store=tmp_path / "store", max_cached_artifacts=3)
        for name in ("fig1", "sequencer", "handshake_seq", "glatch_3"):
            service.dispatch("POST", "/synthesize", {"spec": name, "assume_csc": True})
        assert service.evictions >= 1
        assert sum(service.pipeline.cache_info().values()) <= 3 + 6
        # evicted artifacts reload from the store, not recompute
        before = dict(service.pipeline.stage_calls)
        service.dispatch("POST", "/synthesize", {"spec": "fig1", "assume_csc": True})
        assert dict(service.pipeline.stage_calls) == before

    def test_caller_pipeline_event_callback_is_composed_not_replaced(self):
        from repro.api import EventLog

        log = EventLog()
        server = create_server(port=0, pipeline=Pipeline(on_event=log))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = Client(f"http://127.0.0.1:{server.server_address[1]}")
            result = client.synthesize("fig1", assume_csc=True)
            # both consumers saw the stage events: the caller's log...
            assert log.stage_statuses("synthesize") == ["computed"]
            # ...and the per-request resolution summary
            assert result.resolution["computed"] > 0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_server_without_store_still_serves(self):
        server = create_server(port=0, store=None, pipeline=Pipeline())
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = Client(f"http://127.0.0.1:{server.server_address[1]}")
            result = client.synthesize("fig1", assume_csc=True)
            assert result.report.literals > 0
            assert "store" not in client.cache_stats()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


def _post_json(port: int, path: str, body: dict) -> tuple[int, dict]:
    """Raw POST for asserting on the server-side response document."""
    import json

    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


class TestBatchEndpoint:
    def test_sequential_batch_preserves_order_and_resolutions(self, served):
        _, client = served
        names = ["sequencer", "handshake_seq", "sequencer"]
        results = client.synthesize_many(names, assume_csc=True)
        assert [r.raw["spec"] for r in results] == names
        assert all(r.report.literals > 0 for r in results)
        # sequential mode slices the per-item stage resolution: the first
        # sequencer computes, the repeat resolves from this worker's memory
        assert results[0].resolution["computed"] > 0
        assert not results[0].cached
        assert results[2].resolution["computed"] == 0
        assert results[2].resolution["memory"] > 0
        assert results[2].cached

    def test_batch_item_failure_is_reported_in_place(self, served):
        server, _ = served
        port = server.server_address[1]
        status, payload = _post_json(
            port,
            "/synthesize/batch",
            {
                "items": [
                    {"spec": "sequencer", "assume_csc": True},
                    {"spec": "no_such_benchmark_anywhere"},
                ]
            },
        )
        assert status == 200  # item failures never become a batch-wide error
        good, bad = payload["results"]
        assert good["ok"] and good["report"]["synthesize"]["literals"] > 0
        assert not bad["ok"] and "report" not in bad
        assert bad["error"]["code"] != "internal"
        assert "no_such_benchmark_anywhere" in bad["error"]["message"]

    def test_batch_validates_its_body(self, served):
        server, _ = served
        port = server.server_address[1]
        for body in ({}, {"items": []}, {"items": "sequencer"}, {"items": [7]}):
            status, payload = _post_json(port, "/synthesize/batch", body)
            assert status == 400
            assert payload["error"]["code"] == "bad_request"
        status, payload = _post_json(
            port, "/synthesize/batch", {"items": [{"spec": "sequencer"}], "jobs": "x"}
        )
        assert status == 400

    def test_pool_mode_fans_out_over_the_scheduler(self, served):
        server, _ = served
        port = server.server_address[1]
        status, payload = _post_json(
            port,
            "/synthesize/batch",
            {
                "items": [
                    {"spec": "sequencer", "assume_csc": True},
                    {"spec": "handshake_seq", "assume_csc": True},
                ],
                "jobs": 2,
            },
        )
        assert status == 200
        assert payload["pool"] is True
        assert all(entry["ok"] for entry in payload["results"])
        # pool items resolve in child processes: no per-item resolution
        assert all(entry["resolution"] is None for entry in payload["results"])
        # ...but the children warmed the shared store, so a follow-up
        # sequential request resolves from disk without recomputing
        status, payload = _post_json(
            port, "/synthesize", {"spec": "sequencer", "assume_csc": True}
        )
        assert status == 200
        assert payload["resolution"]["computed"] == 0

    def test_pool_without_a_store_degrades_to_sequential(self):
        server = create_server(port=0, store=None, pipeline=Pipeline())
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            status, payload = _post_json(
                port,
                "/synthesize/batch",
                {
                    "items": [
                        {"spec": "fig1", "assume_csc": True},
                        {"spec": "sequencer", "assume_csc": True},
                    ],
                    "jobs": 4,
                },
            )
            assert status == 200
            assert payload["pool"] is False
            assert all(e["ok"] and e["resolution"] for e in payload["results"])
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_synthesize_many_pool_results_are_typed(self, served):
        _, client = served
        results = client.synthesize_many(
            ["sequencer", "handshake_seq"], assume_csc=True, jobs=2
        )
        assert [type(r).__name__ for r in results] == ["SynthesisResult"] * 2
        assert all(r.report.literals > 0 for r in results)
        assert all(r.resolution == {} for r in results)  # pool: unknown, not zero

    def test_synthesize_many_partial_failure_carries_the_successes(self, served):
        _, client = served
        with pytest.raises(ClientError) as excinfo:
            client.synthesize_many(
                ["sequencer", "no_such_benchmark_anywhere"], assume_csc=True
            )
        error = excinfo.value
        assert error.code == "batch_partial_failure"
        assert "no_such_benchmark_anywhere" in str(error)
        assert len(error.results) == 2
        assert error.results[0].report.literals > 0
        assert error.results[1] is None


class TestUntrustedFields:
    """Request fields are untrusted input: the server reads no path a
    request names, and an ill-typed value is a 400, never a 500."""

    @staticmethod
    def _expect(port: int, path: str, body: dict, code: str) -> dict:
        status, payload = _post_json(port, path, body)
        assert (status, payload["error"]["code"]) == (400, code), payload
        return payload["error"]

    def test_a_spec_path_on_the_server_is_a_spec_error(self, served, tmp_path):
        server, _ = served
        port = server.server_address[1]
        source = tmp_path / "mine.g"
        source.write_text(write_g(load_classic("sequencer")))
        body = {"spec": str(source), "assume_csc": True}
        self._expect(port, "/synthesize", body, "spec_error")
        status, payload = _post_json(port, "/synthesize/batch", {"items": [body]})
        assert status == 200
        (entry,) = payload["results"]
        assert not entry["ok"] and entry["error"]["code"] == "spec_error"

    def test_a_missing_path_does_not_reveal_the_os_error(self, served, tmp_path):
        server, _ = served
        error = self._expect(
            server.server_address[1],
            "/synthesize",
            {"spec": str(tmp_path / "absent.g")},
            "spec_error",
        )
        assert "Errno" not in error["message"]
        assert "No such file" not in error["message"]

    def test_a_library_path_on_the_server_is_a_bad_request(self, served, tmp_path):
        from repro.gates.library import default_library

        server, _ = served
        port = server.server_address[1]
        library = tmp_path / "mine.json"
        library.write_text(json.dumps(default_library().to_json()))
        common = {"spec": "sequencer", "assume_csc": True, "library": str(library)}
        self._expect(port, "/synthesize", {**common, "map": True}, "bad_request")
        self._expect(port, "/verify", {**common, "mapped": True}, "bad_request")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_markings", "abc"),
            ("max_markings", -3),
            ("max_markings", True),
            ("level", "3"),
            ("level", True),
            ("map", 1),
        ],
    )
    def test_an_ill_typed_field_is_a_bad_request(self, served, field, value):
        server, _ = served
        self._expect(
            server.server_address[1],
            "/synthesize",
            {"spec": "sequencer", "assume_csc": True, field: value},
            "bad_request",
        )

    def test_a_string_false_does_not_assume_csc(self, served):
        # latch_ctrl violates CSC: bool("false") used to assume it away
        server, _ = served
        self._expect(
            server.server_address[1],
            "/synthesize",
            {"spec": "latch_ctrl", "assume_csc": "false"},
            "bad_request",
        )

    def test_a_batch_pool_is_never_wider_than_its_items(self, served, monkeypatch):
        import repro.api.server as server_module

        widths = []
        scheduler = server_module.Scheduler

        def recording(**kwargs):
            widths.append(kwargs["jobs"])
            assert kwargs["jobs"] <= 2  # never start the 64 workers asked for
            return scheduler(**kwargs)

        monkeypatch.setattr(server_module, "Scheduler", recording)
        server, _ = served
        items = [{"spec": name, "assume_csc": True} for name in ("fig1", "sequencer")]
        status, payload = _post_json(
            server.server_address[1], "/synthesize/batch", {"items": items, "jobs": 64}
        )
        assert status == 200 and payload["pool"] is True
        assert widths == [2]


def _exchange(address, request: bytes) -> tuple[int, dict, bytes, bool]:
    """One raw request: ``(status, headers, body, closed)``.

    The response is framed by its ``Content-Length``; ``closed`` says
    whether the server then closed the connection (EOF within 1 s).
    """
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(request)
        response = b""
        while b"\r\n\r\n" not in response:
            response += sock.recv(65536)
        head, _, body = response.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines[1:])
        while len(body) < int(headers["Content-Length"]):
            body += sock.recv(65536)
        sock.settimeout(1.0)
        try:
            closed = sock.recv(1) == b""
        except socket.timeout:
            closed = False
    return int(lines[0].split()[1]), headers, body, closed


@pytest.fixture()
def plain_server(tmp_path):
    """A serving server without a client: tests make their own."""
    server = create_server(port=0, store=tmp_path / "store")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _eventually(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _count_accepted(server) -> list:
    """Record every connection ``server`` accepts from now on."""
    accepted = []
    accept = server.get_request

    def counting():
        request = accept()
        accepted.append(request)
        return request

    server.get_request = counting
    return accepted


class TestKeepAlive:
    """One connection per client thread, on both ends of ``repro serve``."""

    def test_two_calls_from_one_client_share_one_connection(self, plain_server):
        accepted = _count_accepted(plain_server)
        with Client(f"http://127.0.0.1:{plain_server.server_address[1]}") as client:
            assert client.health()["status"] == "ok"
            assert client.synthesize("fig1", assume_csc=True).report.literals > 0
        assert len(accepted) == 1

    def test_a_shared_client_keeps_one_connection_per_thread(self, plain_server):
        accepted = _count_accepted(plain_server)
        client = Client(f"http://127.0.0.1:{plain_server.server_address[1]}")
        failures = []

        def calls() -> None:
            try:
                for _ in range(10):
                    client.health()
            except Exception as error:  # noqa: BLE001 — asserted below
                failures.append(error)

        threads = [threading.Thread(target=calls) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        client.close()
        assert failures == []
        assert 1 <= len(accepted) <= 4
        assert client._pool == []

    def test_a_client_speaks_plain_http_only(self):
        with pytest.raises(ValueError, match="https"):
            Client("https://127.0.0.1:8765")

    def test_close_does_not_wait_on_an_idle_pooled_connection(self, tmp_path):
        server = create_server(port=0, store=tmp_path / "store")
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = Client(f"http://127.0.0.1:{server.server_address[1]}")
        client.health()  # its connection now sits idle in the client's pool
        started = time.monotonic()
        server.shutdown()
        server.server_close()
        assert time.monotonic() - started < 1.0
        thread.join(timeout=5)
        client.close()

    def test_closing_the_client_ends_the_server_side_connection(self, plain_server):
        with Client(f"http://127.0.0.1:{plain_server.server_address[1]}") as client:
            client.health()
            # the handler parks the connection just after its reply is out
            assert _eventually(lambda: len(plain_server._idle) == 1)
        assert _eventually(lambda: plain_server._idle == set())

    def test_an_idle_connection_is_closed_and_the_next_call_reconnects(
        self, tmp_path, monkeypatch
    ):
        import repro.api.server as server_module

        monkeypatch.setattr(server_module._Handler, "timeout", 0.2)
        server = create_server(port=0, store=tmp_path / "store")
        accepted = _count_accepted(server)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = Client(f"http://127.0.0.1:{server.server_address[1]}", retries=0)
            client.health()
            time.sleep(0.5)  # past the idle timeout: the server closes it
            assert _eventually(lambda: not server._idle)
            assert client.health()["status"] == "ok"
            assert len(accepted) == 2
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_a_request_on_a_connection_closed_under_it_is_replayed(
        self, plain_server, monkeypatch
    ):
        """The readability check can miss a close racing the request; the
        request then fails before any response byte and is sent once more,
        outside ``retries``."""
        import repro.api.client as client_module

        accepted = _count_accepted(plain_server)
        client = Client(f"http://127.0.0.1:{plain_server.server_address[1]}", retries=0)
        client.health()
        (connection,) = accepted
        connection[0].shutdown(socket.SHUT_RDWR)  # the server closes it...
        time.sleep(0.1)
        # ...and the client does not notice before it sends
        monkeypatch.setattr(client_module, "_is_open", lambda sock: True)
        result = client.synthesize("fig1", assume_csc=True)
        assert result.report.literals > 0
        assert len(accepted) == 2
        client.close()

    def test_a_draining_server_closes_the_connection_after_replying(self, plain_server):
        plain_server.service.draining = True
        status, headers, _, closed = _exchange(
            plain_server.server_address,
            b"GET /health HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
        )
        assert status == 200
        assert headers["Connection"] == "close" and closed


class TestRequestFraming:
    """On a kept-alive connection a body the server does not read would
    parse as the next request: the server closes the connection instead."""

    def test_an_oversized_body_is_a_413_read_not_at_all(self, plain_server):
        from repro.api.server import MAX_BODY_BYTES

        request = (
            "POST /synthesize HTTP/1.1\r\n"
            "Host: 127.0.0.1\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n"
            "Content-Type: application/json\r\n\r\n"
        ).encode()
        # no body byte is ever sent: a server that read it would time out
        status, headers, body, closed = _exchange(plain_server.server_address, request)
        assert status == 413
        assert json.loads(body)["error"] == {
            "code": "payload_too_large",
            "message": f"request body of {MAX_BODY_BYTES + 1} bytes exceeds "
            f"the {MAX_BODY_BYTES}-byte bound",
            "retryable": False,
        }
        assert headers["Connection"] == "close" and closed

    def test_a_body_at_the_bound_is_read(self, plain_server, monkeypatch):
        import repro.api.server as server_module

        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 64)
        body = json.dumps({"spec": "fig1", "assume_csc": True}).encode().ljust(64)
        request = (
            b"POST /synthesize HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Length: 64\r\nContent-Type: application/json\r\n\r\n"
        ) + body
        status, _, payload, closed = _exchange(plain_server.server_address, request)
        assert status == 200 and "report" in json.loads(payload)
        assert not closed

    @pytest.mark.parametrize("version", ["HTTP/1.1", "HTTP/1.0"])
    @pytest.mark.parametrize("length", ["abc", "-5", "-1"])
    def test_an_invalid_content_length_is_a_400_and_a_close(
        self, plain_server, version, length
    ):
        request = (
            f"POST /synthesize {version}\r\n"
            "Host: 127.0.0.1\r\n"
            f"Content-Length: {length}\r\n"
            "Content-Type: application/json\r\n\r\n"
        ).encode()
        status, headers, body, closed = _exchange(plain_server.server_address, request)
        assert status == 400
        assert json.loads(body)["error"]["code"] == "bad_request"
        assert headers["Connection"] == "close" and closed

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /health HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 5\r\n\r\nhello",
            b"POST /cache/stats HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
        ],
        ids=["get-with-body", "chunked-post"],
    )
    def test_an_unread_body_closes_the_connection(self, plain_server, request_bytes):
        status, headers, _, closed = _exchange(plain_server.server_address, request_bytes)
        assert status == 200
        assert headers["Connection"] == "close" and closed
