"""The layers the traced run times, and how their spans become metrics.

Each layer is one or more public functions or methods of the program.  A
function is wrapped wherever a ``repro`` module bound it (the pipeline
imports ``compute_concurrency_relation`` by name, so the binding in
``repro.api.pipeline`` is replaced, and so is the one in its home module
that function-local imports read at call time).  Methods are wrapped on
their class.  Nothing in the program is edited; the end-to-end runs
install no wrappers.
"""

from __future__ import annotations

import importlib
import sys

from spans import Recorder, calls, counts, inclusive_times, self_times

#: (layer, module, function name, result count or None)
FUNCTIONS = (
    ("structural.concurrency", "repro.structural.concurrency", "compute_concurrency_relation", None),
    ("structural.consistency", "repro.structural.consistency", "check_consistency_structural", None),
    ("structural.approximation", "repro.structural.approximation", "approximate_signal_regions", None),
    ("petri.smcover", "repro.petri.smcover", "compute_sm_components", None),
    ("petri.smcover", "repro.petri.smcover", "compute_sm_cover", None),
    ("structural.refinement", "repro.structural.refinement", "refine_cover_functions", None),
    ("structural.csc", "repro.structural.csc", "check_csc_structural", None),
    ("synthesis.engine", "repro.synthesis.engine", "synthesize", None),
    ("synthesis.conditions", "repro.synthesis.conditions", "check_cover_correctness", None),
    ("synthesis.conditions", "repro.synthesis.conditions", "check_monotonicity_structural", None),
    ("synthesis.conditions", "repro.synthesis.conditions", "check_monotonicity_state_based", None),
    ("boolean.minimize", "repro.boolean.minimize", "minimize_cover", None),
    ("synthesis.mapping", "repro.synthesis.mapping", "map_circuit", None),
    ("petri.reachability", "repro.petri.reachability", "build_reachability_graph", len),
    ("stg.encoding", "repro.stg.encoding", "encode_reachability_graph", None),
    ("statebased.regions", "repro.statebased.regions", "compute_signal_regions", None),
    ("statebased.synthesis", "repro.statebased.synthesis", "synthesize_state_based", None),
    ("verify.speed_independence", "repro.verify.speed_independence", "verify_speed_independence", None),
    ("gates.verify", "repro.gates.verify", "verify_mapped_netlist", lambda report: report.checked_codes),
    ("sat.encode", "repro.sat.encode", "build_encoding", None),
    ("sat.synthesize", "repro.sat.synthesize", "minimize_problem", None),
)

_ARTIFACTS = (
    "Report",
    "AnalysisArtifact",
    "RefinementArtifact",
    "SynthesisArtifact",
    "MappingArtifact",
    "VerificationArtifact",
    "MappedVerificationArtifact",
)

#: (layer, module, class, method names)
METHODS = (
    ("api.spec.load", "repro.api.spec", "Spec", ("load",)),
    (
        "api.pipeline.resolve",
        "repro.api.pipeline",
        "Pipeline",
        ("run", "analyze", "refine", "synthesize", "map", "verify", "verify_mapped"),
    ),
    ("api.store.read", "repro.api.store", "ArtifactStore", ("get", "peek")),
    ("api.store.write", "repro.api.store", "ArtifactStore", ("put",)),
    *(("api.artifacts.to_json", "repro.api.artifacts", cls, ("to_json",)) for cls in _ARTIFACTS),
    *(("api.artifacts.from_json", "repro.api.artifacts", cls, ("from_json",)) for cls in _ARTIFACTS),
    ("api.server.service", "repro.api.server", "SynthesisService", ("synthesize",)),
    ("api.client.call", "repro.api.client", "Client", ("synthesize",)),
)

#: the layers a client process times; a server or compute process times
#: every layer but the client call
CLIENT_LAYERS = frozenset({"api.client.call", "api.artifacts.from_json"})


def _rebind(original, wrapper) -> None:
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(recorder: Recorder, side: str) -> None:
    """Wrap the layers of one process: ``side`` is ``client`` or ``program``."""
    def wanted(layer: str) -> bool:
        if side == "client":
            return layer in CLIENT_LAYERS
        return layer != "api.client.call"

    for layer, module_name, attr, count in FUNCTIONS:
        if wanted(layer):
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            _rebind(original, recorder.wrap(layer, original, count))
    for layer, module_name, class_name, methods in METHODS:
        if not wanted(layer):
            continue
        cls = getattr(importlib.import_module(module_name), class_name)
        for method in methods:
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(recorder.wrap(layer, raw.__func__)))
            else:
                setattr(cls, method, recorder.wrap(layer, raw))


#: ``<layer>.self_ms`` metrics read straight from the self-time table
_SELF_MS = {
    "api.spec.load_ms": "api.spec.load",
    "api.pipeline.resolve_ms": "api.pipeline.resolve",
    "api.artifacts.to_json_ms": "api.artifacts.to_json",
    "api.store.read_ms": "api.store.read",
    "api.store.write_ms": "api.store.write",
    **{
        f"{layer}.self_ms": layer
        for layer in (
            "structural.concurrency",
            "structural.consistency",
            "structural.approximation",
            "petri.smcover",
            "structural.refinement",
            "structural.csc",
            "synthesis.engine",
            "synthesis.conditions",
            "boolean.minimize",
            "synthesis.mapping",
            "petri.reachability",
            "stg.encoding",
            "statebased.regions",
            "statebased.synthesis",
            "verify.speed_independence",
            "gates.verify",
            "sat.encode",
            "sat.synthesize",
        )
    },
}

#: per-operation call counts
_CALLS = {
    "api.store.reads": "api.store.read",
    "api.store.writes": "api.store.write",
    "boolean.minimize.calls": "boolean.minimize",
    "petri.reachability.enumerations_per_spec": "petri.reachability",
    "stg.encoding.calls_per_spec": "stg.encoding",
}


def layer_metrics(program_spans, client_spans, operations: int) -> dict[str, float]:
    """Per-operation layer figures from the spans of one traced phase.

    ``program_spans`` come from the process running the program's layers
    (the compute worker, or the server), ``client_spans`` from the client
    process (empty for compute workloads).
    """
    ops = max(1, operations)
    own = self_times(program_spans)
    client_own = self_times(client_spans)
    inclusive = inclusive_times(program_spans)
    client_inclusive = inclusive_times(client_spans)
    n_calls = calls(program_spans)
    n_counts = counts(program_spans)
    metrics = {name: own.get(layer, 0.0) * 1000.0 / ops for name, layer in _SELF_MS.items()}
    metrics.update({name: n_calls.get(layer, 0) / ops for name, layer in _CALLS.items()})
    client_from_json = client_own.get("api.artifacts.from_json", 0.0)
    metrics["api.artifacts.from_json_ms"] = (
        own.get("api.artifacts.from_json", 0.0) + client_from_json
    ) * 1000.0 / ops
    call = client_inclusive.get("api.client.call", 0.0)
    service = inclusive.get("api.server.service", 0.0)
    metrics["api.client.call_ms"] = call * 1000.0 / ops
    metrics["api.server.service_ms"] = service * 1000.0 / ops
    metrics["api.server.transport_ms"] = (
        (call - service - client_from_json) * 1000.0 / ops if call else 0.0
    )
    metrics["petri.reachability.markings"] = n_counts.get("petri.reachability", 0) / ops
    verify_seconds = inclusive.get("gates.verify", 0.0)
    metrics["gates.verify.codes_per_s"] = (
        n_counts.get("gates.verify", 0) / verify_seconds if verify_seconds else 0.0
    )
    return metrics


def self_coverage(spans, wall: float) -> float:
    """Share of the wall time that some layer's self time accounts for."""
    return sum(self_times(spans).values()) / wall if wall > 0 else 0.0

