"""Unified public API: one spec-to-circuit entry point.

This package is the front door of the reproduction.  It redesigns the
public surface around three concepts:

* :class:`Spec` — one constructor for every input kind (``.g`` file,
  benchmark-registry name, in-memory STG) with a stable content hash;
* :class:`Pipeline` — the staged flow ``analyze → refine → synthesize →
  map → verify`` with per-stage memoisation keyed on spec hash + options,
  so sweeps and batches reuse the shared analysis front-end;
* backends — the fixed set :data:`BACKEND_NAMES`:
  :class:`StructuralBackend` (the paper's contribution),
  :class:`StateBasedBackend` (the exhaustive baseline) and ``sat`` (the
  exact CDCL backend), plus the *differential* mode :func:`compare` that
  runs two of them and cross-checks the circuits' next-state functions.
  ``Pipeline().synthesize(spec, options, backend=...)`` is the one path
  from a spec to a circuit.

Since PR 5 the API is *durable*: every artifact is losslessly
JSON-serializable, a content-addressed on-disk store
(:class:`~repro.api.store.ArtifactStore`) can back the pipeline cache so
results survive processes, a :class:`~repro.api.scheduler.Scheduler` runs
batches through a process pool with structured progress events, and the
whole pipeline can be served as a long-lived HTTP daemon
(``python -m repro serve`` / :class:`repro.api.client.Client`).

Since PR 6 the execution layers are *fault-tolerant*, and provably so:
deterministic, seedable fault injection (:mod:`repro.api.faults`, the
``faults=`` keyword, ``$REPRO_FAULTS``) drives a chaos suite over retrying
(:class:`~repro.api.scheduler.RetryPolicy`), per-job deadlines, crashed
worker-pool recovery (:class:`~repro.api.scheduler.PoisonJobError`
quarantines repeat killers), store corruption quarantine, and graceful
server degradation (bounded admission, ``/ready``, structured errors).

Since PR 9 the daemon *scales out*: ``repro serve --workers N`` runs a
supervised prefork fleet (:mod:`repro.api.fleet`) of ``SO_REUSEPORT``
workers sharing one store — crashed or hung workers are respawned,
recycled workers drain gracefully, every worker resolves a stage like any
other process (memory → store → compute), and the
:class:`~repro.api.client.Client` grows a per-endpoint circuit breaker
and a retry wall-clock budget.

Since PR 10 the system is *observable* end to end (:mod:`repro.obs`, the
``obs=`` keyword, ``$REPRO_OBS``): spans propagate across process
boundaries — client → fleet worker → pipeline stages → pool jobs → SAT
descent phases — into per-process JSON-lines sinks stitched by trace id,
a zero-dependency metrics registry (counters/gauges/histograms with fixed
buckets, so cross-process merges are exact) feeds every worker's
``GET /metrics`` and the supervisor's fleet-wide aggregation, and
``repro top`` / ``repro trace`` render the live dashboard and span trees.

Convenience entry points::

    from repro.api import run, compare, synthesize_many

    report = run("sequencer", level=5, verify=True)      # one spec
    report = run("sequencer", store="~/.cache/repro")    # durable artifacts
    reports = synthesize_many(["fig1", "sequencer"], jobs=4)
    diff = compare("muller_pipeline_4")                  # both backends

The CLI (``python -m repro``) is a thin wrapper over the same calls.
"""

from __future__ import annotations

from typing import Optional

from repro.api.artifacts import (
    AnalysisArtifact,
    MappedVerificationArtifact,
    MappingArtifact,
    RefinementArtifact,
    Report,
    SynthesisArtifact,
    VerificationArtifact,
)
from repro.api.backends import (
    BACKEND_NAMES,
    ComparisonReport,
    StateBasedBackend,
    StructuralBackend,
    compare,
    get_backend,
)
from repro.api.batch import synthesize_many
from repro.api.client import Client, ClientError, CircuitOpenError
from repro.api.events import Event, EventLog, progress_printer
from repro.api.faults import (
    FaultInjector,
    FaultRule,
    InjectedFault,
    TransientError,
    get_injector,
)
from repro.api.fleet import FleetConfig, FleetSupervisor
from repro.api.pipeline import Pipeline
from repro.api.scheduler import (
    NO_RETRY,
    Job,
    JobResult,
    JobTimeoutError,
    PoisonJobError,
    RetryPolicy,
    Scheduler,
    make_jobs,
)
from repro.api.spec import Spec, SpecError, SpecLike
from repro.api.store import ArtifactStore, default_store_path, get_store
from repro.obs import Obs, get_obs
from repro.synthesis.engine import SynthesisError, SynthesisOptions


def run(
    spec: SpecLike,
    level: int = 5,
    backend: str = "structural",
    assume_csc: bool = False,
    map_technology: bool = False,
    verify: bool = False,
    verify_mapped: bool = False,
    library=None,
    max_markings: Optional[int] = None,
    options: Optional[SynthesisOptions] = None,
    pipeline: Optional[Pipeline] = None,
    store=None,
) -> Report:
    """One-call spec-to-circuit synthesis returning a typed :class:`Report`.

    ``options`` overrides the individual ``level``/``assume_csc`` knobs;
    pass a ``pipeline`` to share cached artifacts across calls, or ``store``
    (an :class:`ArtifactStore` or a path) to persist and reuse artifacts
    across processes.  ``verify_mapped`` differentially checks the mapped
    gate-level netlist (implies ``map_technology``); ``library`` selects the
    gate library (a :class:`repro.gates.GateLibrary`, a built-in name, or a
    JSON path).
    """
    if options is None:
        options = SynthesisOptions(level=level, assume_csc=assume_csc)
    if pipeline is None:
        pipeline = Pipeline(store=store)
    elif store is not None:
        # an explicitly requested store wins over (and is attached to) the
        # reused pipeline — same contract as the Scheduler
        resolved = get_store(store)
        if pipeline.store is not resolved:
            pipeline.store = resolved
    return pipeline.run(
        spec,
        options,
        backend=backend,
        map_technology=map_technology,
        verify=verify,
        verify_mapped=verify_mapped,
        library=library,
        max_markings=max_markings,
    )


__all__ = [
    "AnalysisArtifact",
    "ArtifactStore",
    "BACKEND_NAMES",
    "CircuitOpenError",
    "Client",
    "ClientError",
    "ComparisonReport",
    "Event",
    "EventLog",
    "FaultInjector",
    "FaultRule",
    "FleetConfig",
    "FleetSupervisor",
    "InjectedFault",
    "Job",
    "JobResult",
    "JobTimeoutError",
    "MappedVerificationArtifact",
    "MappingArtifact",
    "NO_RETRY",
    "Obs",
    "Pipeline",
    "PoisonJobError",
    "RefinementArtifact",
    "Report",
    "RetryPolicy",
    "Scheduler",
    "Spec",
    "SpecError",
    "SpecLike",
    "StateBasedBackend",
    "StructuralBackend",
    "SynthesisArtifact",
    "SynthesisError",
    "SynthesisOptions",
    "TransientError",
    "VerificationArtifact",
    "compare",
    "default_store_path",
    "get_backend",
    "get_injector",
    "get_obs",
    "get_store",
    "make_jobs",
    "progress_printer",
    "run",
    "synthesize_many",
]
