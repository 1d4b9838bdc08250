"""Pluggable synthesis backends and the differential comparison mode.

A backend turns a :class:`~repro.api.spec.Spec` into a
:class:`~repro.api.artifacts.SynthesisArtifact`.  Two implementations ship
with the reproduction:

* :class:`StructuralBackend` — the paper's contribution: region
  approximations, never enumerating the reachability graph.  It consumes the
  cached ``analyze``/``refine`` artifacts of the calling pipeline, so level
  sweeps share the front-end.
* :class:`StateBasedBackend` — the exhaustive SIS/ASSASSIN-style baseline:
  full reachability analysis and exact regions.
* :class:`SATBackend` — provably minimum implementations from the CDCL
  descent of :mod:`repro.sat` (ROADMAP item 2's exact backend); its
  artifacts carry the per-signal minima counts in ``details``.

:func:`compare` is the *differential* mode: it runs two backends (by
default structural vs state-based — the paper's Table VI/VII comparison,
"the structural flow synthesizes the same circuits at a fraction of the
CPU time") on the same spec and cross-checks the circuits' next-state
behaviour on every reachable state code, as a first-class API call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Protocol, Union, runtime_checkable

from repro.api.artifacts import Report, SynthesisArtifact, _clean
from repro.api.spec import Spec, SpecLike
from repro.statebased.nextstate import implied_value_bitsets, next_state_value
from repro.statebased.synthesis import synthesize_state_based
from repro.stg.encoding import state_indices
from repro.synthesis.engine import SynthesisOptions, require_csc
from repro.synthesis.engine import synthesize as _structural_synthesize


@runtime_checkable
class Backend(Protocol):
    """The backend protocol: spec + options in, synthesis artifact out."""

    name: str

    def synthesize(
        self,
        pipeline,
        spec: Spec,
        options: SynthesisOptions,
        max_markings: Optional[int] = None,
    ) -> SynthesisArtifact:
        ...


def _artifact(
    backend: str, spec: Spec, options: SynthesisOptions, circuit, start: float, **extra
) -> SynthesisArtifact:
    """The artifact of a circuit synthesized since ``start``: its cost figures."""
    return SynthesisArtifact(
        spec_name=spec.name,
        spec_hash=spec.content_hash,
        backend=backend,
        level=options.level,
        literals=circuit.literal_count(),
        transistors=circuit.transistor_estimate(),
        latches=circuit.num_latches(),
        architectures={
            signal: impl.architecture.value
            for signal, impl in circuit.implementations.items()
        },
        seconds=time.perf_counter() - start,
        circuit=circuit,
        **extra,
    )


class StructuralBackend:
    """The structural (reachability-graph-free) flow of the paper."""

    name = "structural"

    def synthesize(
        self,
        pipeline,
        spec: Spec,
        options: SynthesisOptions,
        max_markings: Optional[int] = None,
    ) -> SynthesisArtifact:
        refinement = pipeline.refine(spec)
        require_csc(refinement, options)
        # a refinement loaded from the artifact store rebuilds its
        # approximation object (refined cover functions) on demand
        refinement.ensure_handles(spec.stg)
        start = time.perf_counter()
        result = _structural_synthesize(
            spec.stg, options, approximation=refinement.approximation
        )
        return _artifact(self.name, spec, options, result.circuit, start, refinement=refinement)


class StateBasedBackend:
    """The exhaustive state-based baseline (full reachability analysis)."""

    name = "statebased"

    def synthesize(
        self,
        pipeline,
        spec: Spec,
        options: SynthesisOptions,
        max_markings: Optional[int] = None,
    ) -> SynthesisArtifact:
        # the state space is resolved inside the timed section: a cold
        # synthesis pays for its enumeration, as the baseline's column of
        # Tables VI/VII requires
        start = time.perf_counter()
        result = synthesize_state_based(
            spec.stg,
            signals=options.signals,
            regions=pipeline.states(spec, max_markings),
            assume_csc=options.assume_csc,
        )
        return _artifact(
            self.name, spec, options, result.circuit, start,
            markings=result.statistics.get("markings"),
        )


class SATBackend:
    """Exact synthesis: provably minimum circuits via CDCL descent."""

    name = "sat"

    def synthesize(
        self,
        pipeline,
        spec: Spec,
        options: SynthesisOptions,
        max_markings: Optional[int] = None,
    ) -> SynthesisArtifact:
        from repro.sat.synthesize import exact_synthesize

        start = time.perf_counter()
        result = exact_synthesize(
            spec.stg,
            signals=options.signals,
            regions=pipeline.states(spec, max_markings),
            assume_csc=options.assume_csc,
        )
        return _artifact(
            self.name, spec, options, result.circuit, start,
            markings=result.statistics.get("markings"),
            details={
                "exact": True,
                "minima": result.statistics.get("minima", {}),
                "signals": result.statistics.get("signals", {}),
            },
        )


_BACKENDS = {
    StructuralBackend.name: StructuralBackend,
    StateBasedBackend.name: StateBasedBackend,
    SATBackend.name: SATBackend,
}

BACKEND_NAMES = tuple(sorted(_BACKENDS))


def register_backend(name: str, factory) -> None:
    """Register a custom backend factory under a name."""
    _BACKENDS[name] = factory


def get_backend(backend: Union[str, Backend]) -> Backend:
    """Resolve a backend name (or pass an instance through)."""
    if isinstance(backend, str):
        try:
            return _BACKENDS[backend]()
        except KeyError as error:
            raise ValueError(
                f"unknown backend {backend!r}; available: {', '.join(sorted(_BACKENDS))}"
            ) from error
    if isinstance(backend, Backend):
        return backend
    raise TypeError(f"backend must be a name or a Backend, got {type(backend).__name__}")


# ---------------------------------------------------------------------- #
# Differential mode
# ---------------------------------------------------------------------- #


@dataclass
class ComparisonReport:
    """Cross-check of two backends' circuits on one spec.

    ``matching`` is true when, at every reachable state code, both circuits
    produce the same next value for every implemented signal *and* that
    value agrees with the specification's implied next-state function.

    ``structural``/``statebased`` hold the first and second backend's
    reports respectively — the historical names of the default pair; for
    other pairs consult ``backends`` for what each slot actually ran.
    """

    spec_name: str
    spec_hash: str
    level: int
    checked_markings: int
    matching: bool
    mismatches: list[dict] = field(default_factory=list)
    structural: Optional[Report] = None
    statebased: Optional[Report] = None
    backends: tuple[str, str] = ("structural", "statebased")

    def __bool__(self) -> bool:
        return self.matching

    @property
    def speedup(self) -> Optional[float]:
        """State-based / structural synthesis-time ratio (None if degenerate)."""
        if self.structural is None or self.statebased is None:
            return None
        structural = self.structural.total_seconds
        if structural <= 0:
            return None
        return self.statebased.total_seconds / structural

    def to_dict(self) -> dict:
        data = {
            "spec": self.spec_name,
            "spec_hash": self.spec_hash,
            "level": self.level,
            "checked_markings": self.checked_markings,
            "matching": self.matching,
            "mismatches": _clean(self.mismatches),
            "backends": list(self.backends),
        }
        if self.structural is not None:
            data["structural"] = self.structural.to_dict()
        if self.statebased is not None:
            data["statebased"] = self.statebased.to_dict()
        if self.speedup is not None:
            data["speedup"] = round(self.speedup, 3)
        return data


def compare(
    spec: SpecLike,
    options: Optional[SynthesisOptions] = None,
    pipeline=None,
    max_markings: Optional[int] = None,
    max_mismatches: int = 20,
    backends: tuple[str, str] = ("structural", "statebased"),
) -> ComparisonReport:
    """Run two backends and cross-check the circuits' next-state functions.

    Both circuits are evaluated on every reachable state at once by the
    column evaluator (:meth:`~repro.synthesis.netlist.Circuit.next_value_columns`).
    With columns ``a``/``b`` and the implied-value bitsets ``on``/``off``, a
    signal's mismatching states are ``(a ^ b) | (on & ~a) | (off & ~on & a)``,
    recorded in state order, then signal order, up to ``max_mismatches``;
    ``matching`` keys on the full count.  Requires an enumerable state space
    — the comparison *is* the state-based cost the structural flow avoids.

    ``backends`` selects the pair (first fills the report's ``structural``
    slot, second the ``statebased`` slot); the default reproduces the
    paper's comparison, ``("structural", "sat")`` or ``("statebased",
    "sat")`` cross-check the exact backend.
    """
    from repro.api.pipeline import Pipeline

    spec = Spec.load(spec)
    options = options or SynthesisOptions()
    if pipeline is None:
        pipeline = Pipeline()

    first_name, second_name = backends
    structural = pipeline.run(spec, options, backend=first_name, max_markings=max_markings)
    statebased = pipeline.run(spec, options, backend=second_name, max_markings=max_markings)

    # the pipeline's one state space: a state-based backend has already
    # resolved it, so only a structural-only pair enumerates here
    regions = pipeline.states(spec, max_markings)
    # the signals both circuits implement
    signals = options.signals if options.signals is not None else spec.stg.non_input_signals
    encoded = regions.encoded
    columns, mask = encoded.state_columns(), encoded.state_mask
    on_bits, off_bits = implied_value_bitsets(regions, signals)
    first = structural.circuit.next_value_columns(columns, mask, signals)
    second = statebased.circuit.next_value_columns(columns, mask, signals)
    mismatch_of = {
        s: (first[s] ^ second[s])
        | (on_bits[s] & ~first[s])
        | (off_bits[s] & ~on_bits[s] & first[s])
        for s in signals
    }
    # matching keys on the count; the detail records are capped
    mismatch_count = sum(mismatch_of[s].bit_count() for s in signals)
    mismatches: list[dict] = []
    for index in state_indices(*mismatch_of.values()):
        if len(mismatches) >= max_mismatches:
            break
        marking = encoded.marking_list[index]
        for signal in signals:
            if not mismatch_of[signal] >> index & 1:
                continue
            mismatches.append(
                {
                    "signal": signal,
                    "code": encoded.code_string(marking),
                    "structural": first[signal] >> index & 1,
                    "statebased": second[signal] >> index & 1,
                    "specified": next_state_value(spec.stg, regions, signal, index),
                }
            )
    del mismatches[max(max_mismatches, 0):]
    return ComparisonReport(
        spec_name=spec.name,
        spec_hash=spec.content_hash,
        level=options.level,
        checked_markings=len(encoded),
        matching=mismatch_count == 0,
        mismatches=mismatches,
        structural=structural,
        statebased=statebased,
        backends=(first_name, second_name),
    )
