"""Typed, JSON-serializable artifacts produced by the pipeline stages.

Every stage of :class:`repro.api.pipeline.Pipeline` returns one of these
dataclasses.  Each artifact separates two layers:

* plain-data fields (numbers, strings, lists, dicts) that ``to_dict()``
  summarizes for reports, the CLI text output, and perf records;
* in-memory *handles* (the approximation object, the circuit, the mapping)
  that downstream stages consume.

Since PR 5 every artifact also carries a *lossless, versioned* serial form:
``to_json()`` emits every plain field verbatim (no rounding) plus the
serializable payload of the handles a later stage may need — refined cover
functions, the concurrency relation's bitset rows, the SM-cover, the
circuit, the gate netlist — and ``from_json()`` reconstructs the artifact in
any process (cubes re-intern their packed masks exactly like
``Cube.__reduce__`` does for pickling).  This is what lets the on-disk
:class:`repro.api.store.ArtifactStore` back the pipeline cache across
processes: a stage artifact loaded from the store behaves identically to a
freshly computed one.

Heavy handles are *rehydrated lazily*: a deserialized analysis/refinement
artifact keeps its serialized payload in ``frozen_handles`` and only
rebuilds the approximation object when a downstream cache miss actually
needs it (:meth:`AnalysisArtifact.ensure_handles`).

:class:`Report` aggregates the stage artifacts of one spec-to-circuit run;
it is picklable (process-pool batch execution ships it back whole) and
JSON round-trippable (``Report.to_json``/``Report.from_json``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from repro.structural.approximation import SignalRegionApproximation
from repro.synthesis.netlist import Circuit

#: Schema version of the artifact JSON documents.  Bump when a field changes
#: meaning; the on-disk store additionally gates on its own code version.
ARTIFACT_VERSION = 1


def _clean(value):
    """Best-effort conversion to JSON-serializable data."""
    if isinstance(value, dict):
        return {str(k): _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_clean(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _envelope(stage: str, fields: dict) -> dict:
    """The common document envelope of one serialized artifact."""
    data = {"stage": stage, "version": ARTIFACT_VERSION}
    data.update(fields)
    return data


def _check_envelope(data: dict, stage: str) -> dict:
    """Validate stage tag and schema version; raises :class:`ValueError`."""
    if data.get("stage") != stage:
        raise ValueError(
            f"expected a {stage!r} artifact document, got {data.get('stage')!r}"
        )
    if data.get("version") != ARTIFACT_VERSION:
        raise ValueError(
            f"unsupported {stage} artifact version {data.get('version')!r} "
            f"(this code reads version {ARTIFACT_VERSION})"
        )
    return data


@dataclass
class AnalysisArtifact:
    """Stage ``analyze``: concurrency, consistency, approximation, SM-cover."""

    spec_name: str
    spec_hash: str
    places: int
    transitions: int
    signals: list[str]
    non_input_signals: list[str]
    consistent: bool
    sm_components: int
    sm_cover_size: int
    seconds: float
    #: in-memory handles (rebuilt lazily after deserialization)
    approximation: Optional[SignalRegionApproximation] = field(
        default=None, repr=False, compare=False
    )
    concurrency: object = field(default=None, repr=False, compare=False)
    sm_cover: object = field(default=None, repr=False, compare=False)
    #: serialized handle payload kept by ``from_json`` for lazy rehydration
    frozen_handles: Optional[dict] = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return _clean(
            {
                "stage": "analyze",
                "spec": self.spec_name,
                "spec_hash": self.spec_hash,
                "places": self.places,
                "transitions": self.transitions,
                "signals": self.signals,
                "non_input_signals": self.non_input_signals,
                "consistent": self.consistent,
                "sm_components": self.sm_components,
                "sm_cover_size": self.sm_cover_size,
                "seconds": round(self.seconds, 6),
            }
        )

    # ------------------------------------------------------------------ #
    # Lossless serialization
    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        """Lossless, versioned JSON document of the analysis stage.

        Besides the plain fields, the document carries the handle payloads a
        downstream ``refine`` miss needs: the concurrency relation's bitset
        rows, the structural initial values, and the SM-cover.  The raw
        (single-cube) cover functions are *not* shipped — they are a
        deterministic function of those three and are rebuilt on demand.
        """
        handles = self.frozen_handles
        if handles is None and self.approximation is not None:
            handles = {
                "concurrency": self.concurrency.to_json(),
                "initial_values": dict(self.approximation.initial_values),
                "sm_cover": [component.to_json() for component in self.sm_cover],
            }
        return _envelope(
            "analyze",
            {
                "spec": self.spec_name,
                "spec_hash": self.spec_hash,
                "places": self.places,
                "transitions": self.transitions,
                "signals": list(self.signals),
                "non_input_signals": list(self.non_input_signals),
                "consistent": self.consistent,
                "sm_components": self.sm_components,
                "sm_cover_size": self.sm_cover_size,
                "seconds": self.seconds,
                "handles": handles,
            },
        )

    @classmethod
    def from_json(cls, data: dict) -> "AnalysisArtifact":
        """Rebuild the artifact; handles stay frozen until ``ensure_handles``."""
        _check_envelope(data, "analyze")
        return cls(
            spec_name=data["spec"],
            spec_hash=data["spec_hash"],
            places=int(data["places"]),
            transitions=int(data["transitions"]),
            signals=list(data["signals"]),
            non_input_signals=list(data["non_input_signals"]),
            consistent=bool(data["consistent"]),
            sm_components=int(data["sm_components"]),
            sm_cover_size=int(data["sm_cover_size"]),
            seconds=float(data["seconds"]),
            frozen_handles=data.get("handles"),
        )

    def ensure_handles(self, stg) -> "AnalysisArtifact":
        """Rehydrate ``approximation``/``concurrency``/``sm_cover`` from ``stg``.

        A no-op when the handles are live.  Deserialized artifacts rebuild
        them from the frozen payload (cheap: the concurrency fixed point and
        the Farkas SM-enumeration are *loaded*, not recomputed); artifacts
        stripped by the batch layer fall back to a full recomputation.
        """
        if self.approximation is not None:
            return self
        from repro.petri.smcover import StateMachineComponent, compute_sm_components, compute_sm_cover
        from repro.structural.approximation import approximate_signal_regions
        from repro.structural.concurrency import (
            ConcurrencyRelation,
            compute_concurrency_relation,
        )

        frozen = self.frozen_handles
        if frozen is not None:
            concurrency = ConcurrencyRelation.from_json(stg, frozen["concurrency"])
            initial_values = {
                signal: int(value)
                for signal, value in frozen["initial_values"].items()
            }
            sm_cover = [
                StateMachineComponent.from_json(component)
                for component in frozen["sm_cover"]
            ]
        else:
            concurrency = compute_concurrency_relation(stg)
            initial_values = None
            sm_cover = compute_sm_cover(stg.net, compute_sm_components(stg.net))
        self.approximation = approximate_signal_regions(
            stg, concurrency, initial_values=initial_values
        )
        self.concurrency = concurrency
        self.sm_cover = sm_cover
        return self


@dataclass
class RefinementArtifact:
    """Stage ``refine``: cover-function refinement plus the structural CSC check."""

    spec_name: str
    spec_hash: str
    conflicts_before: int
    conflicts_after: int
    csc_certified: bool
    unresolved_places: list[str]
    cubes: int
    seconds: float
    approximation: Optional[SignalRegionApproximation] = field(
        default=None, repr=False, compare=False
    )
    #: the analysis artifact this refinement was computed from
    analysis: Optional[AnalysisArtifact] = field(default=None, repr=False, compare=False)
    #: serialized handle payload kept by ``from_json`` for lazy rehydration
    frozen_handles: Optional[dict] = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return _clean(
            {
                "stage": "refine",
                "spec": self.spec_name,
                "spec_hash": self.spec_hash,
                "conflicts_before": self.conflicts_before,
                "conflicts_after": self.conflicts_after,
                "csc_certified": self.csc_certified,
                "unresolved_places": self.unresolved_places,
                "cubes": self.cubes,
                "seconds": round(self.seconds, 6),
            }
        )

    # ------------------------------------------------------------------ #
    # Lossless serialization
    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        """Lossless JSON document: plain fields plus the *refined* cover
        functions (the product of the Section VII algorithm — the one handle
        that cannot be recomputed cheaply).

        The linked analysis artifact is deliberately **not** nested: it has
        its own document (and its own store entry), and every reader that
        needs it — the pipeline's ``refine`` stage, ``Report.from_json`` —
        re-links it; ``ensure_handles`` can also rebuild without it.
        """
        handles = self.frozen_handles
        if handles is None and self.approximation is not None:
            handles = {
                "cover_functions": {
                    place: cover.to_json()
                    for place, cover in self.approximation.cover_functions.items()
                },
            }
        return _envelope(
            "refine",
            {
                "spec": self.spec_name,
                "spec_hash": self.spec_hash,
                "conflicts_before": self.conflicts_before,
                "conflicts_after": self.conflicts_after,
                "csc_certified": self.csc_certified,
                "unresolved_places": list(self.unresolved_places),
                "cubes": self.cubes,
                "seconds": self.seconds,
                "handles": handles,
            },
        )

    @classmethod
    def from_json(cls, data: dict) -> "RefinementArtifact":
        """Rebuild the artifact; handles stay frozen until ``ensure_handles``."""
        _check_envelope(data, "refine")
        return cls(
            spec_name=data["spec"],
            spec_hash=data["spec_hash"],
            conflicts_before=int(data["conflicts_before"]),
            conflicts_after=int(data["conflicts_after"]),
            csc_certified=bool(data["csc_certified"]),
            unresolved_places=list(data["unresolved_places"]),
            cubes=int(data["cubes"]),
            seconds=float(data["seconds"]),
            frozen_handles=data.get("handles"),
        )

    def ensure_handles(self, stg) -> "RefinementArtifact":
        """Rehydrate the refined approximation object from ``stg``.

        Mirrors the original ``refine`` computation: the analysis
        approximation (itself rehydrated on demand) is cloned with the
        deserialized refined cover functions, so a store-loaded artifact
        feeds the structural backend the same object a fresh run would.
        Without a linked analysis, the approximation scaffolding is rebuilt
        directly from the STG (deterministic) around the frozen refined
        covers.
        """
        if self.approximation is not None:
            return self
        from repro.boolean.cover import Cover

        frozen = self.frozen_handles
        cover_functions = None
        if frozen is not None:
            cover_functions = {
                place: Cover.from_json(cover)
                for place, cover in frozen["cover_functions"].items()
            }
        analysis = self.analysis
        if analysis is not None:
            analysis.ensure_handles(stg)
            if cover_functions is None:
                from repro.structural.refinement import refine_cover_functions

                refinement = refine_cover_functions(
                    stg,
                    analysis.approximation.cover_functions,
                    analysis.sm_cover,
                    analysis.concurrency,
                )
                cover_functions = refinement.cover_functions
            self.approximation = dataclasses.replace(
                analysis.approximation, cover_functions=cover_functions
            )
            return self
        if cover_functions is None:
            raise ValueError(
                "cannot rehydrate a refinement artifact without either its "
                "analysis or its frozen cover functions"
            )
        from repro.structural.approximation import approximate_signal_regions

        self.approximation = approximate_signal_regions(
            stg, cover_functions=cover_functions
        )
        return self


@dataclass
class SynthesisArtifact:
    """Stage ``synthesize``: the circuit of one backend at one level."""

    spec_name: str
    spec_hash: str
    backend: str
    level: int
    literals: int
    transistors: int
    latches: int
    architectures: dict[str, str]
    seconds: float
    markings: Optional[int] = None
    #: backend-specific extras (e.g. the SAT backend's per-signal minima,
    #: candidate counts and solver statistics); must stay JSON-serializable
    details: Optional[dict] = None
    circuit: Optional[Circuit] = field(default=None, repr=False, compare=False)
    #: the refinement artifact the structural backend synthesized from
    refinement: Optional[RefinementArtifact] = field(
        default=None, repr=False, compare=False
    )

    def to_dict(self) -> dict:
        data = {
            "stage": "synthesize",
            "spec": self.spec_name,
            "spec_hash": self.spec_hash,
            "backend": self.backend,
            "level": self.level,
            "literals": self.literals,
            "transistors": self.transistors,
            "latches": self.latches,
            "architectures": self.architectures,
            "seconds": round(self.seconds, 6),
        }
        if self.markings is not None:
            data["markings"] = self.markings
        if self.details is not None:
            data["details"] = self.details
        return _clean(data)

    # ------------------------------------------------------------------ #
    # Lossless serialization
    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        """Lossless JSON document including the full circuit.

        The ``refinement`` handle is deliberately dropped: a store-backed
        pipeline re-resolves the refinement through its own ``refine`` stage
        (a store hit).
        """
        return _envelope(
            "synthesize",
            {
                "spec": self.spec_name,
                "spec_hash": self.spec_hash,
                "backend": self.backend,
                "level": self.level,
                "literals": self.literals,
                "transistors": self.transistors,
                "latches": self.latches,
                "architectures": dict(self.architectures),
                "seconds": self.seconds,
                "markings": self.markings,
                "details": self.details,
                "circuit": self.circuit.to_json() if self.circuit is not None else None,
            },
        )

    @classmethod
    def from_json(cls, data: dict) -> "SynthesisArtifact":
        _check_envelope(data, "synthesize")
        circuit = data.get("circuit")
        return cls(
            spec_name=data["spec"],
            spec_hash=data["spec_hash"],
            backend=data["backend"],
            level=int(data["level"]),
            literals=int(data["literals"]),
            transistors=int(data["transistors"]),
            latches=int(data["latches"]),
            architectures=dict(data["architectures"]),
            seconds=float(data["seconds"]),
            markings=None if data.get("markings") is None else int(data["markings"]),
            details=data.get("details"),
            circuit=Circuit.from_json(circuit) if circuit else None,
        )


@dataclass
class MappingArtifact:
    """Stage ``map``: technology mapping onto the gate library.

    Besides the area report, the artifact carries the constructed
    gate-level netlist (:class:`repro.gates.ir.GateNetlist`) — the input of
    the exporters and of the ``verify_mapped`` stage.
    """

    spec_name: str
    spec_hash: str
    total_area: int
    per_signal_area: dict[str, int]
    cells_used: dict[str, list[str]]
    seconds: float
    library: str = ""
    gate_count: int = 0
    net_count: int = 0
    latch_count: int = 0
    mapped: object = field(default=None, repr=False, compare=False)
    #: the typed gate-graph IR (repro.gates.ir.GateNetlist)
    netlist: object = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return _clean(
            {
                "stage": "map",
                "spec": self.spec_name,
                "spec_hash": self.spec_hash,
                "library": self.library,
                "total_area": self.total_area,
                "gates": self.gate_count,
                "nets": self.net_count,
                "latches": self.latch_count,
                "per_signal_area": self.per_signal_area,
                "cells_used": self.cells_used,
                "seconds": round(self.seconds, 6),
            }
        )

    # ------------------------------------------------------------------ #
    # Lossless serialization
    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        """Lossless JSON document including the gate-level netlist (the
        exporters' and ``verify_mapped``'s input); the transient
        ``mapped`` handle is derived data and is not shipped."""
        return _envelope(
            "map",
            {
                "spec": self.spec_name,
                "spec_hash": self.spec_hash,
                "total_area": self.total_area,
                "per_signal_area": dict(self.per_signal_area),
                "cells_used": {s: list(c) for s, c in self.cells_used.items()},
                "seconds": self.seconds,
                "library": self.library,
                "gate_count": self.gate_count,
                "net_count": self.net_count,
                "latch_count": self.latch_count,
                "netlist": self.netlist.to_json() if self.netlist is not None else None,
            },
        )

    @classmethod
    def from_json(cls, data: dict) -> "MappingArtifact":
        from repro.gates.ir import GateNetlist

        _check_envelope(data, "map")
        netlist = data.get("netlist")
        return cls(
            spec_name=data["spec"],
            spec_hash=data["spec_hash"],
            total_area=int(data["total_area"]),
            per_signal_area={k: int(v) for k, v in data["per_signal_area"].items()},
            cells_used={s: list(c) for s, c in data["cells_used"].items()},
            seconds=float(data["seconds"]),
            library=data.get("library", ""),
            gate_count=int(data.get("gate_count", 0)),
            net_count=int(data.get("net_count", 0)),
            latch_count=int(data.get("latch_count", 0)),
            netlist=GateNetlist.from_json(netlist) if netlist else None,
        )


@dataclass
class VerificationArtifact:
    """Stage ``verify``: state-based speed-independence verification."""

    spec_name: str
    spec_hash: str
    speed_independent: bool
    checked_markings: int
    functional_errors: list[str]
    hazard_errors: list[str]
    seconds: float

    def __bool__(self) -> bool:
        return self.speed_independent

    def to_dict(self) -> dict:
        return _clean(
            {
                "stage": "verify",
                "spec": self.spec_name,
                "spec_hash": self.spec_hash,
                "speed_independent": self.speed_independent,
                "checked_markings": self.checked_markings,
                "functional_errors": self.functional_errors,
                "hazard_errors": self.hazard_errors,
                "seconds": round(self.seconds, 6),
            }
        )

    def to_json(self) -> dict:
        """Lossless JSON document (the artifact is pure plain data)."""
        return _envelope(
            "verify",
            {
                "spec": self.spec_name,
                "spec_hash": self.spec_hash,
                "speed_independent": self.speed_independent,
                "checked_markings": self.checked_markings,
                "functional_errors": [str(e) for e in self.functional_errors],
                "hazard_errors": [str(e) for e in self.hazard_errors],
                "seconds": self.seconds,
            },
        )

    @classmethod
    def from_json(cls, data: dict) -> "VerificationArtifact":
        _check_envelope(data, "verify")
        return cls(
            spec_name=data["spec"],
            spec_hash=data["spec_hash"],
            speed_independent=bool(data["speed_independent"]),
            checked_markings=int(data["checked_markings"]),
            functional_errors=list(data["functional_errors"]),
            hazard_errors=list(data["hazard_errors"]),
            seconds=float(data["seconds"]),
        )


@dataclass
class MappedVerificationArtifact:
    """Stage ``verify_mapped``: gate-level differential verification.

    The settled outputs of the mapped netlist's event simulation are
    compared with :meth:`Circuit.next_values` over every distinct reachable
    state code of the specification.
    """

    spec_name: str
    spec_hash: str
    equivalent: bool
    checked_codes: int
    checked_markings: int
    gate_count: int
    library: str
    mismatches: list[str]
    seconds: float

    def __bool__(self) -> bool:
        return self.equivalent

    def to_dict(self) -> dict:
        return _clean(
            {
                "stage": "verify_mapped",
                "spec": self.spec_name,
                "spec_hash": self.spec_hash,
                "equivalent": self.equivalent,
                "checked_codes": self.checked_codes,
                "checked_markings": self.checked_markings,
                "gates": self.gate_count,
                "library": self.library,
                "mismatches": self.mismatches,
                "seconds": round(self.seconds, 6),
            }
        )

    def to_json(self) -> dict:
        """Lossless JSON document (the artifact is pure plain data)."""
        return _envelope(
            "verify_mapped",
            {
                "spec": self.spec_name,
                "spec_hash": self.spec_hash,
                "equivalent": self.equivalent,
                "checked_codes": self.checked_codes,
                "checked_markings": self.checked_markings,
                "gate_count": self.gate_count,
                "library": self.library,
                "mismatches": [str(m) for m in self.mismatches],
                "seconds": self.seconds,
            },
        )

    @classmethod
    def from_json(cls, data: dict) -> "MappedVerificationArtifact":
        _check_envelope(data, "verify_mapped")
        return cls(
            spec_name=data["spec"],
            spec_hash=data["spec_hash"],
            equivalent=bool(data["equivalent"]),
            checked_codes=int(data["checked_codes"]),
            checked_markings=int(data["checked_markings"]),
            gate_count=int(data["gate_count"]),
            library=data["library"],
            mismatches=list(data["mismatches"]),
            seconds=float(data["seconds"]),
        )


@dataclass
class Report:
    """The typed result of one spec-to-circuit run.

    Replaces the ad-hoc ``statistics`` dicts: every stage that ran
    contributes its artifact, and the circuit rides along as a picklable
    handle.  ``to_dict()`` yields a pure-JSON summary.
    """

    spec_name: str
    spec_hash: str
    backend: str
    level: int
    synthesis: SynthesisArtifact
    analysis: Optional[AnalysisArtifact] = None
    refinement: Optional[RefinementArtifact] = None
    mapping: Optional[MappingArtifact] = None
    verification: Optional[VerificationArtifact] = None
    mapped_verification: Optional[MappedVerificationArtifact] = None

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #

    @property
    def circuit(self) -> Optional[Circuit]:
        return self.synthesis.circuit

    @property
    def literals(self) -> int:
        return self.synthesis.literals

    @property
    def netlist(self):
        """The mapped gate-level netlist, when the ``map`` stage ran."""
        if self.mapping is None:
            return None
        return self.mapping.netlist

    @property
    def total_seconds(self) -> float:
        return sum(
            stage.seconds
            for stage in (
                self.analysis,
                self.refinement,
                self.synthesis,
                self.mapping,
                self.verification,
                self.mapped_verification,
            )
            if stage is not None
        )

    @property
    def speed_independent(self) -> Optional[bool]:
        if self.verification is None:
            return None
        return self.verification.speed_independent

    def to_dict(self) -> dict:
        data = {
            "spec": self.spec_name,
            "spec_hash": self.spec_hash,
            "backend": self.backend,
            "level": self.level,
            "total_seconds": round(self.total_seconds, 6),
            "synthesize": self.synthesis.to_dict(),
        }
        for key, stage in (
            ("analyze", self.analysis),
            ("refine", self.refinement),
            ("map", self.mapping),
            ("verify", self.verification),
            ("verify_mapped", self.mapped_verification),
        ):
            if stage is not None:
                data[key] = stage.to_dict()
        return data

    # ------------------------------------------------------------------ #
    # Lossless serialization
    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        """Versioned, lossless JSON document of the full run.

        Unlike :meth:`to_dict` (a rounded summary), this document round-trips
        through :meth:`from_json` identically — it is what the CLI ``--json``
        mode emits and what the HTTP server ships to :class:`repro.api.client.Client`.
        """
        data = {
            "format": "repro-report",
            "version": ARTIFACT_VERSION,
            "spec": self.spec_name,
            "spec_hash": self.spec_hash,
            "backend": self.backend,
            "level": self.level,
            "total_seconds": self.total_seconds,
            "synthesize": self.synthesis.to_json(),
        }
        for key, stage in (
            ("analyze", self.analysis),
            ("refine", self.refinement),
            ("map", self.mapping),
            ("verify", self.verification),
            ("verify_mapped", self.mapped_verification),
        ):
            data[key] = stage.to_json() if stage is not None else None
        return data

    @classmethod
    def from_json(cls, data: dict) -> "Report":
        """Rebuild a report from :meth:`to_json` output."""
        if data.get("format") != "repro-report":
            raise ValueError(
                f"not a report document (format={data.get('format')!r})"
            )
        if data.get("version") != ARTIFACT_VERSION:
            raise ValueError(
                f"unsupported report version {data.get('version')!r} "
                f"(this code reads version {ARTIFACT_VERSION})"
            )

        def load(key, artifact_cls):
            stage = data.get(key)
            return artifact_cls.from_json(stage) if stage else None

        analysis = load("analyze", AnalysisArtifact)
        refinement = load("refine", RefinementArtifact)
        if refinement is not None and refinement.analysis is None:
            # the refine document does not nest the analysis; re-link it
            refinement.analysis = analysis
        return cls(
            spec_name=data["spec"],
            spec_hash=data["spec_hash"],
            backend=data["backend"],
            level=int(data["level"]),
            synthesis=SynthesisArtifact.from_json(data["synthesize"]),
            analysis=analysis,
            refinement=refinement,
            mapping=load("map", MappingArtifact),
            verification=load("verify", VerificationArtifact),
            mapped_verification=load("verify_mapped", MappedVerificationArtifact),
        )

    def describe(self) -> str:
        """Human readable one-run summary (circuit netlist plus stage costs)."""
        lines = []
        if self.circuit is not None:
            lines.append(self.circuit.describe())
        lines.append(
            f"backend: {self.backend}  level: M{self.level}  "
            f"total: {self.total_seconds:.3f}s"
        )
        if self.mapping is not None:
            lines.append(
                f"mapped area: {self.mapping.total_area} "
                f"({self.mapping.gate_count} gates, library "
                f"{self.mapping.library or 'generic-cmos'})"
            )
        if self.mapped_verification is not None:
            lines.append(
                f"mapped netlist equivalent: {self.mapped_verification.equivalent} "
                f"(checked {self.mapped_verification.checked_codes} state codes)"
            )
        if self.verification is not None:
            lines.append(
                f"speed independent: {self.verification.speed_independent} "
                f"(checked {self.verification.checked_markings} markings)"
            )
        return "\n".join(lines)
