"""The synthesis request wire format, pinned byte for byte.

``tests/data/request_wire.json`` holds two golden tables:

* ``requests`` — the exact JSON text each :class:`~repro.api.client.Client`
  method sends (captured through a stub ``_request``), with default and
  with non-default arguments;
* ``responses`` — the ``/synthesize``, ``/verify``, ``/compare`` and
  ``/export`` responses of a fresh store-less service for ``sequencer`` and
  ``handshake_seq``, with the timing fields zeroed.

Regenerate (only when the wire format changes on purpose) with::

    PYTHONPATH=src python tests/test_request_wire.py > tests/data/request_wire.json
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import Pipeline, Spec
from repro.api.client import Client
from repro.api.server import SynthesisService

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "request_wire.json"

#: (label, Client method, positional args, keyword args)
CLIENT_CALLS = (
    ("health", "health", (), {}),
    ("benchmarks", "benchmarks", (), {}),
    ("cache_stats", "cache_stats", (), {}),
    ("cache_clear/default", "cache_clear", (), {}),
    ("cache_clear/disk", "cache_clear", (), {"disk": True}),
    ("synthesize/default", "synthesize", ("sequencer",), {}),
    (
        "synthesize/all",
        "synthesize",
        ("handshake_seq",),
        {
            "level": 3,
            "backend": "statebased",
            "assume_csc": True,
            "map_technology": True,
            "verify": True,
            "verify_mapped": True,
            "library": "two-input-only",
            "max_markings": 5000,
        },
    ),
    ("synthesize/inline", "synthesize", ("@spec:fig1",), {"assume_csc": True}),
    ("synthesize/path", "synthesize", ("@path:examples/quickstart.g",), {"level": 2}),
    ("synthesize_many/default", "synthesize_many", (["sequencer", "handshake_seq"],), {}),
    (
        "synthesize_many/all",
        "synthesize_many",
        (["sequencer", "@spec:glatch_3"],),
        {
            "level": 2,
            "backend": "sat",
            "assume_csc": True,
            "map_technology": True,
            "verify": True,
            "verify_mapped": True,
            "library": "latch-free",
            "max_markings": 100,
            "jobs": 2,
        },
    ),
    ("verify/default", "verify", ("sequencer",), {}),
    (
        "verify/all",
        "verify",
        ("fig1",),
        {
            "level": 4,
            "backend": "statebased",
            "assume_csc": True,
            "mapped": True,
            "library": "generic-cmos",
            "max_markings": 64,
        },
    ),
    ("compare/default", "compare", ("handshake_seq",), {}),
    (
        "compare/all",
        "compare",
        ("fig1",),
        {"level": 2, "assume_csc": True, "max_markings": 10},
    ),
    ("export/default", "export", ("sequencer",), {}),
    (
        "export/all",
        "export",
        ("glatch_3", "blif"),
        {"level": 2, "assume_csc": True, "library": "two-input-only"},
    ),
)

#: the (path, body) of each golden response, for every RESPONSE_SPECS name
RESPONSE_BODIES = (
    ("/synthesize", {"assume_csc": True, "map": True, "verify": True, "verify_mapped": True}),
    ("/verify", {"assume_csc": True, "mapped": True}),
    ("/compare", {"assume_csc": True}),
    ("/export", {"assume_csc": True, "format": "blif"}),
)
RESPONSE_SPECS = ("sequencer", "handshake_seq")

#: response keys that carry wall-clock time
TIMING_KEYS = {"seconds", "total_seconds", "speedup"}


class _Sent(Exception):
    """Raised by the stub transport once the request is captured."""


def _argument(value):
    """A call argument: ``@spec:<name>`` is that registry ``Spec`` object,
    ``@path:<file>`` a ``Path`` under the repository root."""
    if isinstance(value, list):
        return [_argument(item) for item in value]
    if isinstance(value, str) and value.startswith("@spec:"):
        return Spec.from_benchmark(value[len("@spec:"):])
    if isinstance(value, str) and value.startswith("@path:"):
        return ROOT / value[len("@path:"):]
    return value


def capture_requests() -> dict:
    """The request each Client call sends: method, path and body text."""
    sent: list = []

    def stub(method, path, body=None):
        sent.append({"method": method, "path": path, "body": json.dumps(body)})
        raise _Sent

    client = Client("http://127.0.0.1:1")
    client._request = stub  # type: ignore[method-assign]
    captured = {}
    for label, method, args, kwargs in CLIENT_CALLS:
        with pytest.raises(_Sent):
            getattr(client, method)(*_argument(list(args)), **kwargs)
        captured[label] = sent.pop()
    return captured


def _zero_timings(document):
    if isinstance(document, dict):
        return {
            key: (0.0 if key in TIMING_KEYS and value is not None else _zero_timings(value))
            for key, value in document.items()
        }
    if isinstance(document, list):
        return [_zero_timings(item) for item in document]
    return document


def capture_responses() -> dict:
    """Each golden response of a fresh service without a store."""
    responses = {}
    for name in RESPONSE_SPECS:
        for path, extra in RESPONSE_BODIES:
            service = SynthesisService(pipeline=Pipeline())
            response = service.dispatch("POST", path, {"spec": name, **extra})
            responses[f"{path} {name}"] = _zero_timings(response)
    return responses


def build_golden() -> dict:
    return {"requests": capture_requests(), "responses": capture_responses()}


def _text(document) -> str:
    return json.dumps(document, indent=1)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def requests() -> dict:
    return capture_requests()


@pytest.fixture(scope="module")
def responses() -> dict:
    return capture_responses()


@pytest.mark.parametrize("label", [call[0] for call in CLIENT_CALLS])
def test_client_request_is_byte_identical(golden, requests, label):
    assert requests[label] == golden["requests"][label]


@pytest.mark.parametrize(
    "case", [f"{path} {name}" for name in RESPONSE_SPECS for path, _ in RESPONSE_BODIES]
)
def test_server_response_is_identical_up_to_timings(golden, responses, case):
    assert _text(responses[case]) == _text(golden["responses"][case])


def test_golden_covers_every_case(golden):
    assert set(golden["requests"]) == {call[0] for call in CLIENT_CALLS}
    assert len(golden["responses"]) == len(RESPONSE_SPECS) * len(RESPONSE_BODIES)


def test_every_body_key_is_declared():
    from dataclasses import fields

    from repro.api.request import BODIES, FIELDS, JOB_KEYS
    from repro.api.scheduler import Job

    assert all(key in FIELDS for keys in BODIES.values() for key in keys)
    attributes = {field.name for field in fields(Job)}
    assert {FIELDS[key].param for key in JOB_KEYS} - {"level", "assume_csc"} <= attributes


def test_parse_ignores_unknown_keys_and_keys_of_other_endpoints():
    from repro.api.request import parse

    job, extras = parse("/compare", {"spec": "fig1", "map": "not read here", "x": 1})
    assert (job.spec.name, job.options.level, job.map_technology) == ("fig1", 5, False)
    assert extras == {}
    _, extras = parse("/export", {"spec": "fig1", "format": "blif"})
    assert extras == {"format": "blif"}


def test_build_takes_the_declared_arguments_in_wire_order():
    from repro.api.request import build

    body = build("/export", {"self": None, "library": None, "fmt": "blif", "spec": "fig1"})
    assert list(body.items()) == [("spec", "fig1"), ("format", "blif"), ("library", None)]
    # an extra that is None is left out; keys of other endpoints are not sent
    body = build("/synthesize/batch", {"items": [{}], "jobs": None, "level": 3})
    assert body == {"items": [{}]}


if __name__ == "__main__":
    print(json.dumps(build_golden(), indent=1))
