"""Typed, JSON-serializable artifacts produced by the pipeline stages.

Every stage of :class:`repro.api.pipeline.Pipeline` returns one of these
dataclasses, and each dataclass declaration is its own schema:

* *plain fields* are the ``compare=True`` fields (numbers, strings, lists,
  dicts).  ``to_dict()`` summarizes them for reports, the CLI text output
  and perf records (``seconds`` rounded, unset optional fields left out).
  ``to_json()`` writes them verbatim under their own names (``spec_name``
  travels as ``spec``), and ``from_json()`` reads them back, coercing each
  value by its annotated type.  A field without a default is required on
  load; one with a default falls back to it, so a document written before
  the field existed still loads.
* *handles* are the ``compare=False`` fields: in-memory objects (the
  approximation object, the circuit, the netlist) that downstream stages
  consume.  Each class writes and reads only the payload of the handles a
  later stage may need — refined cover functions, the concurrency
  relation's bitset rows, the SM-cover, the circuit, the gate netlist (cubes
  re-intern their packed masks exactly like ``Cube.__reduce__`` does for
  pickling).

The serial form is lossless and versioned (``ARTIFACT_VERSION``), so the
on-disk :class:`repro.api.store.ArtifactStore` backs the pipeline cache
across processes: a stage artifact loaded from the store behaves
identically to a freshly computed one.

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
import functools
import types
import typing
from dataclasses import MISSING, dataclass, field
from typing import Callable, ClassVar, Optional, Union

from repro.structural.approximation import SignalRegionApproximation
from repro.synthesis.netlist import Circuit

#: Schema version of the artifact JSON documents.  Bump when a field changes
#: meaning; the on-disk store additionally gates on its own code version.
ARTIFACT_VERSION = 1

#: the ``to_json`` key of a plain field, where it is not the field name
_JSON_KEYS = {"spec_name": "spec"}
#: the ``to_dict`` key of a plain field, where it is not the ``to_json`` key
_SUMMARY_KEYS = {"gate_count": "gates", "net_count": "nets", "latch_count": "latches"}


def _clean(value):
    """Best-effort conversion to JSON-serializable data."""
    if isinstance(value, dict):
        return {str(k): _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_clean(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


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


def _optional(coerce: Optional[Callable]) -> Optional[Callable]:
    if coerce is None:
        return None
    return lambda value: None if value is None else coerce(value)


def _coercers(hint) -> tuple:
    """``(load, dump)`` of one annotated type; ``None`` passes a value as is.

    ``load`` coerces a document value: ``int``/``float``/``bool``, lists,
    dicts with coerced values, ``Optional[...]``.  ``dump`` copies a
    container on the way out; scalars are written as they are.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (Union, types.UnionType):
        (inner,) = [arg for arg in args if arg is not type(None)]
        load, dump = _coercers(inner)
        return _optional(load), _optional(dump)
    if hint is list or origin is list:
        return list, list
    if hint is dict or origin is dict:
        value = _coercers(args[1])[0] if args else None
        if value is None:
            return dict, dict

        def coerce(data):
            return {key: value(item) for key, item in data.items()}

        return coerce, coerce
    if hint in (int, float, bool):
        return hint, None
    return None, None


def _is_stage(hint) -> bool:
    """Whether ``hint`` names a stage artifact (a :class:`Report` stage)."""
    return any(
        isinstance(arg, type) and issubclass(arg, _Artifact)
        for arg in (hint, *typing.get_args(hint))
    )


@functools.cache
def _schema(cls) -> tuple:
    """The plain fields of ``cls``, resolved once per class: as ``to_json``
    writes them ``(name, key, copy)``, as ``from_json`` reads them
    ``(name, key, coerce, default)`` and as ``to_dict`` reports them
    ``(name, key, rounded, optional)``."""
    hints = typing.get_type_hints(cls)
    dump, load, summary = [], [], []
    for declared in dataclasses.fields(cls):
        hint = hints[declared.name]
        if not declared.compare or _is_stage(hint):
            continue
        key = _JSON_KEYS.get(declared.name, declared.name)
        coerce, copy = _coercers(hint)
        dump.append((declared.name, key, copy))
        load.append((declared.name, key, coerce, declared.default))
        summary_key = _SUMMARY_KEYS.get(declared.name, key)
        rounded, optional = hint is float, declared.default is None
        summary.append((declared.name, summary_key, rounded, optional))
    order = getattr(cls, "_summary_order", None)
    if order:
        summary.sort(key=lambda entry: order.index(entry[0]))
    return tuple(dump), tuple(load), tuple(summary)


def _dump(obj) -> dict:
    """The plain fields of ``obj`` as ``to_json`` writes them."""
    values = vars(obj)
    data = {}
    for name, key, copy in _schema(type(obj))[0]:
        data[key] = values[name] if copy is None else copy(values[name])
    return data


def _load(cls, data: dict) -> dict:
    """The plain-field keyword arguments of ``cls`` read from ``data``."""
    kwargs = {}
    for name, key, coerce, default in _schema(cls)[1]:
        value = data[key] if default is MISSING else data.get(key, default)
        kwargs[name] = value if coerce is None else coerce(value)
    return kwargs


def _summarize(obj) -> dict:
    """The plain fields of ``obj`` as ``to_dict`` reports them."""
    values = vars(obj)
    data = {}
    for name, key, rounded, optional in _schema(type(obj))[2]:
        value = values[name]
        if value is None and optional:
            continue  # an optional field that is not set
        data[key] = round(value, 6) if rounded else value
    return data


class _Artifact:
    """Base of the stage artifacts: serial forms derived from the fields.

    A subclass names its document tag (``class X(_Artifact, stage="map")``)
    and writes only its handle payload (``_dump_handles``/``_load_handles``).
    """

    #: the ``stage`` tag of the documents
    stage: ClassVar[str]

    def __init_subclass__(cls, stage: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.stage = stage
        # bound on every class itself: the traced benchmark wraps these
        # methods through the class's own ``__dict__``
        for name in ("to_dict", "to_json", "from_json"):
            setattr(cls, name, vars(_Artifact)[name])

    def to_dict(self) -> dict:
        """A pure-JSON summary of the plain fields."""
        return _clean({"stage": self.stage, **_summarize(self)})

    def to_json(self) -> dict:
        """Lossless, versioned document: the plain fields verbatim (no
        rounding), then the handle payload."""
        return {
            "stage": self.stage,
            "version": ARTIFACT_VERSION,
            **_dump(self),
            **self._dump_handles(),
        }

    @classmethod
    def from_json(cls, data: dict):
        """Rebuild the artifact from :meth:`to_json` output."""
        _check_envelope(data, cls.stage)
        return cls(**_load(cls, data), **cls._load_handles(data))

    def _dump_handles(self) -> dict:
        """The serialized payload of the handles a later stage needs."""
        return {}

    @classmethod
    def _load_handles(cls, data: dict) -> dict:
        """The handle keyword arguments rebuilt from a document."""
        return {}


@dataclass
class AnalysisArtifact(_Artifact, stage="analyze"):
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

    def _dump_handles(self) -> dict:
        """The payloads a downstream ``refine`` miss needs: the concurrency
        relation's bitset rows, the structural initial values, and the
        SM-cover.  The raw (single-cube) cover functions are *not* shipped —
        they are a deterministic function of those three and are rebuilt on
        demand.
        """
        handles = self.frozen_handles
        if handles is None and self.approximation is not None:
            handles = {
                "concurrency": self.concurrency.to_json(),
                "initial_values": dict(self.approximation.initial_values),
                "sm_cover": [component.to_json() for component in self.sm_cover],
            }
        return {"handles": handles}

    @classmethod
    def _load_handles(cls, data: dict) -> dict:
        # handles stay frozen until ``ensure_handles``
        return {"frozen_handles": data.get("handles")}

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
class RefinementArtifact(_Artifact, stage="refine"):
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

    def _dump_handles(self) -> dict:
        """The *refined* cover functions (the product of the Section VII
        algorithm — the one handle that cannot be recomputed cheaply).

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
        return {"handles": handles}

    @classmethod
    def _load_handles(cls, data: dict) -> dict:
        # handles stay frozen until ``ensure_handles``
        return {"frozen_handles": data.get("handles")}

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
class SynthesisArtifact(_Artifact, stage="synthesize"):
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

    def _dump_handles(self) -> dict:
        """The full circuit.  The ``refinement`` handle is deliberately
        dropped: a store-backed pipeline re-resolves the refinement through
        its own ``refine`` stage (a store hit)."""
        return {"circuit": None if self.circuit is None else self.circuit.to_json()}

    @classmethod
    def _load_handles(cls, data: dict) -> dict:
        circuit = data.get("circuit")
        return {"circuit": Circuit.from_json(circuit) if circuit else None}


@dataclass
class MappingArtifact(_Artifact, stage="map"):
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

    #: ``to_dict`` key order: the library and the counts lead the summary
    _summary_order: ClassVar[tuple] = (
        "spec_name", "spec_hash", "library", "total_area", "gate_count",
        "net_count", "latch_count", "per_signal_area", "cells_used", "seconds",
    )

    def _dump_handles(self) -> dict:
        """The gate-level netlist (the exporters' and ``verify_mapped``'s
        input); the transient ``mapped`` handle is derived data and is not
        shipped."""
        return {"netlist": None if self.netlist is None else self.netlist.to_json()}

    @classmethod
    def _load_handles(cls, data: dict) -> dict:
        from repro.gates.ir import GateNetlist

        netlist = data.get("netlist")
        return {"netlist": GateNetlist.from_json(netlist) if netlist else None}


@dataclass
class VerificationArtifact(_Artifact, stage="verify"):
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


@dataclass
class MappedVerificationArtifact(_Artifact, stage="verify_mapped"):
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


#: the optional stages of a report in document order, as (attribute, class);
#: each travels under its class's ``stage`` tag
_OPTIONAL_STAGES = (
    ("analysis", AnalysisArtifact),
    ("refinement", RefinementArtifact),
    ("mapping", MappingArtifact),
    ("verification", VerificationArtifact),
    ("mapped_verification", MappedVerificationArtifact),
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
        stages = (
            self.analysis, self.refinement, self.synthesis,
            self.mapping, self.verification, self.mapped_verification,
        )
        return sum(stage.seconds for stage in stages if stage is not None)

    @property
    def speed_independent(self) -> Optional[bool]:
        if self.verification is None:
            return None
        return self.verification.speed_independent

    def to_dict(self) -> dict:
        data = {
            **_summarize(self),
            "total_seconds": round(self.total_seconds, 6),
            "synthesize": self.synthesis.to_dict(),
        }
        for attribute, stage_cls in _OPTIONAL_STAGES:
            stage = getattr(self, attribute)
            if stage is not None:
                data[stage_cls.stage] = stage.to_dict()
        return data

    def to_json(self) -> dict:
        """Versioned, lossless JSON document of the full run.

        Unlike :meth:`to_dict` (a rounded summary), this document round-trips
        through :meth:`from_json` identically — it is what the CLI ``--json``
        mode emits and what the HTTP server ships to :class:`repro.api.client.Client`.
        """
        data = {
            "format": "repro-report",
            "version": ARTIFACT_VERSION,
            **_dump(self),
            "total_seconds": self.total_seconds,
            "synthesize": self.synthesis.to_json(),
        }
        for attribute, stage_cls in _OPTIONAL_STAGES:
            stage = getattr(self, attribute)
            data[stage_cls.stage] = stage.to_json() if stage is not None else None
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
        stages = {}
        for attribute, stage_cls in _OPTIONAL_STAGES:
            document = data.get(stage_cls.stage)
            stages[attribute] = stage_cls.from_json(document) if document else None
        refinement = stages["refinement"]
        if refinement is not None and refinement.analysis is None:
            # the refine document does not nest the analysis; re-link it
            refinement.analysis = stages["analysis"]
        return cls(
            **_load(cls, data),
            synthesis=SynthesisArtifact.from_json(data["synthesize"]),
            **stages,
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
