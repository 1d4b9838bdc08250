"""``repro.obs`` — end-to-end observability for the serving stack.

One :class:`Obs` object bundles a metrics :class:`~repro.obs.metrics.Registry`
and a :class:`~repro.obs.trace.Tracer`, plus the well-known instrument set
every layer shares (stage timers, store read outcomes, HTTP request
latencies, SAT solver work, fleet supervision).

The wiring follows the :mod:`repro.api.faults` seam exactly:

* every layer takes ``obs=None`` and resolves it through :func:`get_obs` —
  an :class:`Obs` instance, a text config, or ``None`` (which consults the
  ``REPRO_OBS`` environment variable);
* when observability is off the layer holds ``None`` and pays a single
  ``is None`` check per operation — nothing else changes;
* the text grammar is lossless transport (:meth:`Obs.to_text`), which is
  how the fleet supervisor configures workers and the scheduler configures
  pool processes.

Grammar (``;``-separated clauses)::

    REPRO_OBS="on"                          # in-memory metrics + trace ctx
    REPRO_OBS="dir=/tmp/run"                # + JSONL trace sink, snapshots
    REPRO_OBS="dir=/tmp/run;service=cli"    # explicit service name
    REPRO_OBS="dir=/tmp/run;trace=off"      # metrics only
    REPRO_OBS="off"                         # force-disable

The keys are ``dir``, ``service`` and ``trace``; any other key is a
``ValueError``.  Metrics have no switch: an active bundle always records
them, and ``trace=off`` only drops the trace sink.

Deep layers that cannot take a parameter (the SAT descent inside a
backend) read the thread-local set by :func:`activate` — the pipeline
activates its ``Obs`` around every stage compute, so
:func:`current_obs` inside :func:`repro.sat.synthesize.minimize_problem`
sees the right registry without any signature change.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Optional, Union

from repro.obs.expose import load_snapshots, merge_snapshots, render_prometheus
from repro.obs.metrics import Registry
from repro.obs.trace import TRACE_HEADER, Tracer, parse_header

__all__ = [
    "Obs",
    "OBS_ENV_VAR",
    "TRACE_HEADER",
    "activate",
    "current_obs",
    "get_obs",
    "parse_header",
]

OBS_ENV_VAR = "REPRO_OBS"

_OFF_TOKENS = {"", "off", "0", "false", "no", "none"}


class Obs:
    """A process's observability bundle: registry + tracer + sink location.

    With no ``dir`` the registry is in-memory only (still scrapable via
    ``/metrics``) and trace records are counted but dropped; with a ``dir``
    the tracer appends ``trace-<service>.jsonl`` and
    :meth:`write_snapshot` persists ``metrics-<service>.json`` there.
    """

    def __init__(
        self,
        dir: Union[str, os.PathLike, None] = None,  # noqa: A002 - grammar key
        service: Optional[str] = None,
        trace: bool = True,
    ):
        self.dir = Path(dir) if dir is not None else None
        self.service = service or f"pid{os.getpid()}"
        self.trace_enabled = bool(trace)
        self.registry = Registry(service=self.service)
        sink = None
        if self.dir is not None and self.trace_enabled:
            self.dir.mkdir(parents=True, exist_ok=True)
            sink = self.dir / f"trace-{self.service}.jsonl"
        self.tracer = Tracer(sink=sink, service=self.service)

        # The shared instrument set.  Creating these eagerly keeps the hot
        # paths to one attribute access; any layer may add its own via
        # ``obs.registry`` as well.
        r = self.registry
        self.stage_seconds = r.histogram(
            "repro_stage_seconds", "wall time per computed pipeline stage", ("stage",)
        )
        self.stage_cpu_seconds = r.histogram(
            "repro_stage_cpu_seconds", "CPU time per computed pipeline stage", ("stage",)
        )
        self.stage_resolutions = r.counter(
            "repro_stage_resolutions_total",
            "pipeline stage resolutions by source",
            ("stage", "source"),
        )
        self.store_reads = r.counter(
            "repro_store_reads_total", "artifact store reads by outcome", ("outcome",)
        )
        self.store_writes = r.counter(
            "repro_store_writes_total", "artifact store documents written"
        )
        self.store_quarantined = r.counter(
            "repro_store_quarantined_total", "artifacts quarantined as damaged"
        )
        self.requests = r.counter(
            "repro_requests_total", "HTTP requests served", ("endpoint",)
        )
        self.request_seconds = r.histogram(
            "repro_request_seconds", "HTTP request wall time", ("endpoint",)
        )
        self.request_errors = r.counter(
            "repro_request_errors_total", "HTTP requests answered with an error", ("endpoint",)
        )
        self.jobs = r.counter(
            "repro_jobs_total", "scheduler job events", ("status",)
        )
        self.sat_work = r.counter(
            "repro_sat_total", "SAT solver work counters", ("kind",)
        )
        self.sat_phase_seconds = r.histogram(
            "repro_sat_phase_seconds", "wall time per SAT descent phase", ("phase",)
        )
        self.kernel_codes_per_second = r.gauge(
            "repro_kernel_codes_per_second",
            "mapped-verification state codes checked per second (most recent run)",
        )
        self.fleet_workers = r.gauge("repro_fleet_workers", "live fleet worker processes")
        self.fleet_events = r.counter(
            "repro_fleet_events_total", "fleet supervision events", ("kind",)
        )

    # -- transport ------------------------------------------------------ #

    @classmethod
    def parse(cls, text: str) -> Optional["Obs"]:
        """Build from the grammar; off-tokens give ``None``."""
        text = (text or "").strip()
        if text.lower() in _OFF_TOKENS:
            return None
        fields: dict = {}
        for clause in text.split(";"):
            clause = clause.strip()
            if not clause or clause.lower() in {"on", "1", "true"}:
                continue
            key, sep, value = clause.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep:
                raise ValueError(f"obs clause {clause!r} is not 'on' or 'key=value'")
            if key == "dir":
                fields["dir"] = value
            elif key == "service":
                fields["service"] = value
            elif key == "trace":
                fields["trace"] = value.lower() not in _OFF_TOKENS
            else:
                raise ValueError(f"unknown obs key {key!r} in {clause!r}")
        return cls(**fields)

    def to_text(self, include_service: bool = False) -> str:
        """Lossless text form (service omitted so children name themselves)."""
        clauses = []
        if self.dir is not None:
            clauses.append(f"dir={self.dir}")
        if include_service:
            clauses.append(f"service={self.service}")
        if not self.trace_enabled:
            clauses.append("trace=off")
        return ";".join(clauses) if clauses else "on"

    def reconfigure(
        self,
        service: Optional[str] = None,
        dir: Union[str, os.PathLike, None] = None,  # noqa: A002
    ) -> "Obs":
        """A fresh Obs with overrides (used before anything is recorded)."""
        return Obs(
            dir=dir if dir is not None else self.dir,
            service=service if service is not None else self.service,
            trace=self.trace_enabled,
        )

    # -- persistence ---------------------------------------------------- #

    @property
    def snapshot_path(self) -> Optional[Path]:
        if self.dir is None:
            return None
        return self.dir / f"metrics-{self.service}.json"

    def write_snapshot(self) -> Optional[Path]:
        """Persist this process's metrics for supervisor aggregation."""
        path = self.snapshot_path
        if path is None:
            return None
        try:
            return self.registry.write_snapshot(path)
        except OSError:
            return None  # observability must never take down the worker

    def render_metrics(self) -> str:
        return render_prometheus(self.registry.snapshot())


ObsLike = Union[Obs, str, None]


def get_obs(obs: ObsLike = None) -> Optional[Obs]:
    """Resolve an obs argument the way :func:`repro.api.faults.get_injector`
    resolves faults: instance → as-is, text → parsed, ``None`` → the
    ``REPRO_OBS`` environment variable, absent → off (``None``)."""
    if isinstance(obs, Obs):
        return obs
    if obs is not None:
        return Obs.parse(obs)
    env = os.environ.get(OBS_ENV_VAR)
    if env:
        return Obs.parse(env)
    return None


# -- thread-local activation (the SAT layer's seam) ---------------------- #

_ACTIVE = threading.local()


def current_obs() -> Optional[Obs]:
    """The Obs activated on this thread, if any (see :func:`activate`)."""
    return getattr(_ACTIVE, "obs", None)


@contextmanager
def activate(obs: Optional[Obs]):
    """Make ``obs`` visible to :func:`current_obs` for the duration.

    The pipeline activates its Obs around each stage compute so that code
    deep inside a backend — the SAT descent, notably — can record solver
    counters and phase spans without threading ``obs`` through every
    signature.
    """
    previous = getattr(_ACTIVE, "obs", None)
    _ACTIVE.obs = obs
    try:
        yield obs
    finally:
        _ACTIVE.obs = previous


def fleet_metrics(run_dir: Union[str, os.PathLike]) -> dict:
    """Merge every per-process snapshot in a fleet run directory (exact)."""
    return merge_snapshots(load_snapshots(run_dir))
