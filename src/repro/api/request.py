"""The synthesis request: one declared wire schema for server and client.

A request names a spec and the paper's choices: the minimization level
M1–M5 (Fig. 13), the CSC assumption, a backend, technology mapping
(Appendix F) and verification.  :data:`FIELDS` declares each wire key once,
:data:`BODIES` the keys of each endpoint's body in wire order; :func:`parse`
turns a body into a :class:`~repro.api.scheduler.Job` on the server and
:func:`build` turns a :class:`~repro.api.client.Client` call into a body.

Fields are untrusted.  ``spec`` is a registry name or multi-line inline
``.g`` text and ``library`` a built-in library name: the server never reads
a path a request names.  A bad value raises ``ValueError`` (``400
bad_request``), an unknown spec name :class:`~repro.api.spec.SpecError`.
"""

from __future__ import annotations

import os
from typing import Callable, NamedTuple, Optional

from repro.api.scheduler import Job
from repro.api.spec import Spec, SpecError, SpecLike
from repro.gates.exporters import EXPORT_FORMATS
from repro.gates.library import BUILTIN_LIBRARIES
from repro.synthesis.engine import SynthesisOptions


def _spec(key: str, value) -> Spec:
    if not isinstance(value, str) or not value:
        raise ValueError(f"request body must include a non-empty {key!r}")
    if "\n" in value:
        return Spec.from_text(value)
    try:
        return Spec.from_benchmark(value)
    except SpecError:
        raise SpecError(
            f"{value!r:.120} is not a registered benchmark (see `python -m repro "
            f"list`); send any other specification as inline .g text"
        ) from None


def _sent_spec(spec: SpecLike) -> str:
    """Registry names and inline text go out as they are; paths, STGs and
    Spec objects as their canonical ``.g`` text."""
    if isinstance(spec, str) and (
        "\n" in spec or not (os.path.exists(spec) or spec.endswith(".g"))
    ):
        return spec
    return Spec.load(spec).text


def _format(key: str, value) -> str:
    if value not in EXPORT_FORMATS:
        raise ValueError(
            f"unknown export format {value!r:.60} "
            f"(available: {', '.join(EXPORT_FORMATS)})"
        )
    return value


def _items(key: str, value) -> list:
    if not isinstance(value, list) or not value:
        raise ValueError(f"batch body must include a non-empty {key!r} list")
    if not all(isinstance(item, dict) for item in value):
        raise ValueError("each batch item must be a JSON object")
    return value


def _check(accepts: Callable[[object], bool], expected: str) -> Callable:
    """A parser that passes the values ``accepts`` through."""

    def read(key: str, value):
        if not accepts(value):
            raise ValueError(f"{key!r} must be {expected}, got {value!r:.60}")
        return value

    return read


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_LIBRARIES = tuple(sorted(BUILTIN_LIBRARIES))
_BOOLEAN = _check(lambda value: isinstance(value, bool), "a JSON boolean")
_INTEGER = _check(_integer, "a JSON integer")
_STRING = _check(lambda value: isinstance(value, str), "a string")
_LIBRARY = _check(
    lambda value: value is None or value in _LIBRARIES, f"null or a built-in library {_LIBRARIES}"
)
_BOUND = _check(
    lambda value: value is None or (_integer(value) and value > 0), "null or a positive integer"
)
_WIDTH = _check(lambda value: value is None or _integer(value), "null or an integer")


class Field(NamedTuple):
    """One wire key: what Client and Job call it, and how to read it."""

    param: str
    #: ``(key, wire value) -> value``; raises ValueError on a bad value
    read: Callable
    default: object = None


FIELDS = {
    "spec": Field("spec", _spec),
    "format": Field("fmt", _format, "verilog"),
    "level": Field("level", _INTEGER, 5),
    "backend": Field("backend", _STRING, "structural"),
    "assume_csc": Field("assume_csc", _BOOLEAN, False),
    "map": Field("map_technology", _BOOLEAN, False),
    "mapped": Field("mapped", _BOOLEAN, False),
    "verify": Field("verify", _BOOLEAN, False),
    "verify_mapped": Field("verify_mapped", _BOOLEAN, False),
    "library": Field("library", _LIBRARY),
    "max_markings": Field("max_markings", _BOUND),
    "items": Field("items", _items),
    "jobs": Field("jobs", _WIDTH),
    "disk": Field("disk", _BOOLEAN, False),
}

#: the keys of a job; an endpoint's other keys are its extras
JOB_KEYS = (
    "spec", "level", "backend", "assume_csc", "map", "verify", "verify_mapped",
    "library", "max_markings",
)

#: the keys each POST endpoint reads, in wire order
BODIES = {
    "/synthesize": JOB_KEYS,
    "/synthesize/batch": ("items", "jobs"),
    "/verify": ("spec", "level", "backend", "assume_csc", "mapped", "library", "max_markings"),
    "/compare": ("spec", "level", "assume_csc", "max_markings"),
    "/export": ("spec", "format", "level", "backend", "assume_csc", "library", "max_markings"),
    "/cache/clear": ("disk",),
}


def parse(path: str, body: dict) -> tuple[Optional[Job], dict]:
    """The :class:`Job` a POST body of ``path`` names (``None`` without a
    spec) and the endpoint's extras by wire key; other keys are ignored."""
    values = {
        key: FIELDS[key].read(key, body.get(key, FIELDS[key].default))
        for key in BODIES[path]
    }
    if "spec" not in values:
        return None, values
    options = SynthesisOptions(level=values.pop("level"), assume_csc=values.pop("assume_csc"))
    job = Job(
        options=options,
        **{FIELDS[key].param: values.pop(key) for key in JOB_KEYS if key in values},
    )
    return job, values


def build(path: str, arguments: dict, **overrides) -> dict:
    """The body of a POST to ``path`` from the arguments of a Client call.

    ``arguments`` is the calling method's ``locals()``: its parameters carry
    the :data:`FIELDS` names, and the declared ones among them become the
    body, in wire order.  An extra that is ``None`` is left out, so the
    server's default applies.
    """
    arguments = {**arguments, **overrides}
    body = {}
    for key in BODIES[path]:
        param = FIELDS[key].param
        if param in arguments and (arguments[param] is not None or key in JOB_KEYS):
            value = arguments[param]
            body[key] = _sent_spec(value) if key == "spec" else value
    return body


def spec_label(body: dict) -> str:
    """The spec a body names, shortened, for a failed batch item's entry."""
    return str(body.get("spec", ""))[:120]
