"""The staged spec-to-circuit pipeline with per-stage memoisation.

The pipeline decomposes synthesis into five explicit, individually cached
stages::

    analyze  →  refine  →  synthesize  →  map  →  verify

* ``analyze``    — concurrency relation, structural consistency check,
  signal-region approximation, SM-components and SM-cover
  (the shared front-end of the structural flow);
* ``refine``     — cover-function refinement (Section VII) plus the
  structural CSC check;
* ``synthesize`` — circuit generation by a pluggable backend
  (:mod:`repro.api.backends`): the structural engine at one of the
  minimization levels M1..M5, the exhaustive state-based baseline, or the
  exact SAT backend (:mod:`repro.sat`, provably minimum circuits whose
  artifacts carry per-signal minima counts in ``details``);
* ``map``        — technology mapping onto the gate library (Appendix F):
  constructs the typed gate-level netlist (:mod:`repro.gates`);
* ``verify``     — state-based speed-independence verification, with an
  optional ``verify_mapped`` leg that differentially checks the mapped
  netlist's compiled gate-level evaluation against the behavioural circuit.

A sixth stage, ``states``, is the state-space front-end every state-based
consumer reads: the reachability graph, its encoding and the exact regions
(:func:`repro.statebased.regions.state_space`), computed once per spec and
``max_markings`` bound.  It lives in memory only — the consumers' own
artifacts are persisted, so a request served from the store never asks
for it.

Every stage memoises its artifact keyed on the spec's content hash plus the
options that influence it.  The ``analyze`` and ``refine`` stages run the
paper's one configuration of the front-end, so their keys are the spec
alone: a level sweep (like Fig. 13's M1..M5) through one pipeline reuses
the analysis/refinement front-end instead of recomputing it per level.
The later stages add the options (level, ``assume_csc``, ``signals``), the
backend, the ``max_markings`` bound where the state space is read, and the
gate library where it matters.  ``Pipeline.stage_calls`` counts actual
computations (cache misses), which the test-suite uses to pin the reuse
behaviour.

The in-memory handles on the artifacts (approximation, circuit) are shared
between cache entries, but never mutated across stages: ``refine`` returns a
*new* approximation object carrying the refined cover functions, so the
cached ``analyze`` artifact keeps the raw approximation regardless of call
order.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import Counter
from typing import Optional, Union

from repro.api.artifacts import (
    AnalysisArtifact,
    MappedVerificationArtifact,
    MappingArtifact,
    Report,
    SynthesisArtifact,
    VerificationArtifact,
    RefinementArtifact,
)
from repro.api.events import Event, EventCallback
from repro.api.faults import FaultsLike, get_injector
from repro.api.spec import Spec, SpecLike
from repro.api.store import ArtifactStore, get_store
from repro.obs import ObsLike, activate, get_obs
from repro.gates.library import get_library
from repro.gates.verify import verify_mapped_netlist
from repro.petri.smcover import compute_sm_components, compute_sm_cover
from repro.statebased.regions import SignalRegions, state_space
from repro.structural.adjacency import structural_next_relation
from repro.structural.approximation import approximate_signal_regions
from repro.structural.concurrency import compute_concurrency_relation
from repro.structural.consistency import check_consistency_structural
from repro.structural.csc import check_csc_structural
from repro.structural.refinement import refine_cover_functions
from repro.synthesis.engine import SynthesisError, SynthesisOptions
from repro.synthesis.mapping import GateLibrary, map_circuit
from repro.verify import verify_speed_independence


def _options_key(options: SynthesisOptions) -> tuple:
    """Hashable cache key of the options that influence synthesis."""
    return (
        options.level,
        options.assume_csc,
        tuple(options.signals) if options.signals is not None else None,
    )


def _library_key(library: Optional[GateLibrary]) -> Optional[tuple]:
    """Structural cache key of a gate library (names alone may collide)."""
    if library is None:
        return None
    return (
        library.name,
        library.latch_area,
        library.or2_area,
        library.allow_latch,
        tuple(
            (
                cell.name,
                cell.max_terms,
                cell.max_literals_per_term,
                cell.max_total_literals,
                cell.area,
            )
            for cell in library.cells
        ),
    )


class Pipeline:
    """A caching spec-to-circuit pipeline.

    One pipeline instance owns one in-memory artifact cache; share an
    instance across calls (sweeps, batches, experiments) to reuse the staged
    artifacts.

    ``store`` attaches a durable backing
    (:class:`~repro.api.store.ArtifactStore` instance or a path): stage
    results are then looked up memory → store → compute, and every
    computed artifact is persisted through its lossless ``to_json`` form, so
    results survive the process and are shared between CLI runs, batch
    workers, experiments and the HTTP daemon.  ``store_hits``/
    ``store_misses`` count the disk-level outcomes per stage, alongside the
    ``stage_calls`` computation counters.

    ``on_event`` receives one :class:`~repro.api.events.Event` per stage
    resolution (status ``computed``/``memory``/``store``).

    ``faults`` activates deterministic fault injection
    (:mod:`repro.api.faults`): an injector instance, a grammar string, or
    ``None`` to consult ``$REPRO_FAULTS``.  When active, the injector is
    shared with the attached store (its read/write/corrupt sites) and the
    stage computations (delay/error sites); when off — the default — the
    hot path pays a single ``is None`` check.

    ``obs`` activates the observability subsystem (:mod:`repro.obs`): an
    :class:`~repro.obs.Obs` bundle, a grammar string, or ``None`` to
    consult ``$REPRO_OBS``.  When active, every *computed* stage runs
    inside a ``stage:<name>`` trace span (nesting under the caller's span,
    e.g. the worker's HTTP span) with wall/CPU timers fed into the
    fleet-aggregatable registry, and the resolution counters are mirrored
    into labelled metric series.  The ad-hoc ``stage_calls``/
    ``store_hits``/... counters stay untouched either way; when off — the
    default — each resolution pays a single ``is None`` check.

    Every process resolves a stage the same way — a CLI run, a batch pool
    worker, the single-process daemon or one worker of the serving fleet:
    memory, then store, then computation.  Two processes that miss the
    store for one key at the same moment both compute it; their writes are
    atomic, so the store keeps one entry, the last one written.
    """

    def __init__(
        self,
        store: Union[ArtifactStore, str, os.PathLike, None] = None,
        on_event: Optional[EventCallback] = None,
        faults: FaultsLike = None,
        obs: ObsLike = None,
    ):
        self._cache: dict = {}
        self.store: Optional[ArtifactStore] = get_store(store)
        self.on_event = on_event
        self.faults = get_injector(faults)
        if self.faults is not None and self.store is not None and self.store.faults is None:
            self.store.faults = self.faults
        self.obs = get_obs(obs)
        if self.obs is not None and self.store is not None and self.store.obs is None:
            self.store.obs = self.obs
        #: number of actual stage computations (cache misses), per stage
        self.stage_calls: Counter = Counter()
        #: per-stage on-disk store outcomes (only touched when a store is set)
        self.store_hits: Counter = Counter()
        self.store_misses: Counter = Counter()

    # ------------------------------------------------------------------ #
    # Cache plumbing
    # ------------------------------------------------------------------ #

    def _emit(self, spec: Spec, stage: str, status: str, seconds: Optional[float] = None):
        if self.on_event is not None:
            self.on_event(
                Event(
                    kind="stage",
                    spec=spec.name,
                    status=status,
                    stage=stage,
                    seconds=seconds,
                )
            )

    def _memo(self, key: tuple, compute, spec: Optional[Spec] = None, artifact_cls=None):
        """Resolve one stage: memory cache → artifact store → computation."""
        stage = key[0]
        try:
            value = self._cache[key]
        except KeyError:
            pass
        else:
            if self.obs is not None:
                self.obs.stage_resolutions.inc(stage=stage, source="memory")
            if spec is not None:
                self._emit(spec, stage, "memory")
            return value
        if self.store is not None and artifact_cls is not None:
            data = self.store.get(key)
            try:
                value = None if data is None else artifact_cls.from_json(data)
            except (ValueError, KeyError, TypeError):
                value = None  # a malformed entry degrades to recomputation
            if value is not None:
                self._cache[key] = value
                self.store_hits[stage] += 1
                if self.obs is not None:
                    self.obs.stage_resolutions.inc(stage=stage, source="store")
                if spec is not None:
                    self._emit(spec, stage, "store")
                return value
            self.store_misses[stage] += 1
        return self._compute_entry(key, compute, spec, artifact_cls)

    def _compute_entry(self, key: tuple, compute, spec, artifact_cls):
        """Actually run one stage computation, cache and persist the result."""
        stage = key[0]
        start = time.perf_counter()
        cpu_start = time.process_time()
        if self.faults is not None:
            # injected latency and/or a retryable InjectedStageError —
            # nothing is cached for a failed stage, so a retry recomputes
            self.faults.stage_enter(stage)
        self.stage_calls[stage] += 1
        if self.obs is not None:
            # the span nests under the caller's current span (e.g. the
            # worker's HTTP span); `activate` exposes the bundle to layers
            # without an obs parameter, notably the SAT descent
            with self.obs.tracer.span(
                "stage:" + stage, spec=spec.name if spec is not None else ""
            ), activate(self.obs):
                value = compute()
            self.obs.stage_resolutions.inc(stage=stage, source="computed")
            self.obs.stage_seconds.observe(time.perf_counter() - start, stage=stage)
            self.obs.stage_cpu_seconds.observe(
                time.process_time() - cpu_start, stage=stage
            )
        else:
            value = compute()
        self._cache[key] = value
        if self.store is not None and artifact_cls is not None:
            try:
                self.store.put(
                    key,
                    value.to_json(),
                    stage=stage,
                    spec_name=spec.name if spec is not None else "",
                    spec_hash=spec.content_hash if spec is not None else "",
                )
            except OSError:
                pass  # an unwritable store must never fail the computation
        if spec is not None:
            self._emit(spec, stage, "computed", seconds=time.perf_counter() - start)
        return value

    def cache_info(self) -> dict:
        """Cached artifact count per stage (for introspection and tests)."""
        counts: Counter = Counter(key[0] for key in self._cache)
        return dict(counts)

    def evict_cache(self) -> int:
        """Drop the in-memory artifacts only; counters and store survive.

        With a store attached this is cheap insurance for long-lived
        processes (the daemon): evicted artifacts reload from disk on the
        next request instead of recomputing.  Returns the number of entries
        dropped.
        """
        dropped = len(self._cache)
        self._cache.clear()
        return dropped

    def clear_cache(self) -> None:
        """Drop the in-memory cache and counters (the store is untouched)."""
        self._cache.clear()
        self.stage_calls.clear()
        self.store_hits.clear()
        self.store_misses.clear()

    # ------------------------------------------------------------------ #
    # Stage: states (memory only)
    # ------------------------------------------------------------------ #

    def states(self, spec: SpecLike, max_markings: Optional[int] = None) -> SignalRegions:
        """The spec's state space: reachability graph, encoding and regions.

        Resolved from memory or computed, never from the store: every stage
        that consumes it persists its own artifact.
        """
        spec = Spec.load(spec)

        def compute() -> SignalRegions:
            return state_space(spec.stg, max_markings=max_markings)

        return self._memo(
            ("states", spec.content_hash, max_markings), compute, spec=spec
        )

    # ------------------------------------------------------------------ #
    # Stage: analyze
    # ------------------------------------------------------------------ #

    def analyze(self, spec: SpecLike) -> AnalysisArtifact:
        """Run the shared structural analysis front-end."""
        spec = Spec.load(spec)
        key = ("analyze", spec.content_hash)

        def compute() -> AnalysisArtifact:
            start = time.perf_counter()
            stg = spec.stg
            concurrency = compute_concurrency_relation(stg)
            next_relation = structural_next_relation(stg, concurrency)
            report = check_consistency_structural(
                stg, concurrency, next_relation=next_relation
            )
            if not report.consistent:
                raise SynthesisError(
                    "the STG is not consistent: "
                    f"autoconcurrent={report.autoconcurrent_transitions}, "
                    f"switchover={report.switchover_violations}"
                )
            approximation = approximate_signal_regions(
                stg, concurrency, next_relation=next_relation
            )
            components = compute_sm_components(stg.net)
            try:
                sm_cover = compute_sm_cover(stg.net, components)
            except ValueError as error:
                raise SynthesisError(f"no SM-cover found: {error}") from error
            return AnalysisArtifact(
                spec_name=spec.name,
                spec_hash=spec.content_hash,
                places=stg.net.num_places(),
                transitions=stg.net.num_transitions(),
                signals=list(stg.signal_names),
                non_input_signals=list(stg.non_input_signals),
                consistent=True,
                sm_components=len(components),
                sm_cover_size=len(sm_cover),
                seconds=time.perf_counter() - start,
                approximation=approximation,
                concurrency=concurrency,
                sm_cover=sm_cover,
            )

        return self._memo(key, compute, spec=spec, artifact_cls=AnalysisArtifact)

    # ------------------------------------------------------------------ #
    # Stage: refine
    # ------------------------------------------------------------------ #

    def refine(self, spec: SpecLike) -> RefinementArtifact:
        """Refine the cover functions and run the structural CSC check."""
        spec = Spec.load(spec)
        analysis = self.analyze(spec)
        key = ("refine", spec.content_hash)

        def compute() -> RefinementArtifact:
            start = time.perf_counter()
            stg = spec.stg
            # a store-loaded analysis artifact rebuilds its handles here
            analysis.ensure_handles(stg)
            refinement = refine_cover_functions(
                stg,
                analysis.approximation.cover_functions,
                analysis.sm_cover,
                analysis.concurrency,
            )
            # a new approximation object: the cached analysis artifact keeps
            # the raw cover functions (reassignment also drops the region
            # cache the new object must not share)
            approximation = dataclasses.replace(
                analysis.approximation, cover_functions=refinement.cover_functions
            )
            csc = check_csc_structural(stg, approximation.cover_functions, analysis.sm_cover)
            cubes = sum(len(cover) for cover in approximation.cover_functions.values())
            return RefinementArtifact(
                spec_name=spec.name,
                spec_hash=spec.content_hash,
                conflicts_before=len(refinement.eliminated_conflicts)
                + len(refinement.remaining_conflicts),
                conflicts_after=len(refinement.remaining_conflicts),
                csc_certified=csc.satisfied,
                unresolved_places=sorted(csc.unresolved_places),
                cubes=cubes,
                seconds=time.perf_counter() - start,
                approximation=approximation,
                analysis=analysis,
            )

        refinement = self._memo(key, compute, spec=spec, artifact_cls=RefinementArtifact)
        if refinement.analysis is None:
            # the serialized refine document does not nest the analysis
            # (it has its own store entry); link the one resolved above
            refinement.analysis = analysis
        return refinement

    # ------------------------------------------------------------------ #
    # Stage: synthesize
    # ------------------------------------------------------------------ #

    def synthesize(
        self,
        spec: SpecLike,
        options: Optional[SynthesisOptions] = None,
        backend: Union[str, "object"] = "structural",
        max_markings: Optional[int] = None,
    ) -> SynthesisArtifact:
        """Generate the circuit with the requested backend."""
        from repro.api.backends import get_backend

        spec = Spec.load(spec)
        options = options or SynthesisOptions()
        backend = get_backend(backend)
        if backend.name == "structural":
            # the structural flow never enumerates the state space: keep the
            # bound out of the key so bounded/unbounded calls share the cache
            max_markings = None
        key = (
            "synthesize",
            spec.content_hash,
            backend.name,
            _options_key(options),
            max_markings,
        )

        def compute() -> SynthesisArtifact:
            return backend.synthesize(self, spec, options, max_markings=max_markings)

        return self._memo(key, compute, spec=spec, artifact_cls=SynthesisArtifact)

    # ------------------------------------------------------------------ #
    # Stage: map
    # ------------------------------------------------------------------ #

    def map(
        self,
        spec: SpecLike,
        options: Optional[SynthesisOptions] = None,
        backend: Union[str, "object"] = "structural",
        library: Union[GateLibrary, str, None] = None,
        max_markings: Optional[int] = None,
    ) -> MappingArtifact:
        """Map the synthesized circuit onto the gate library.

        ``library`` accepts a :class:`GateLibrary`, a built-in name
        (``generic-cmos``, ``two-input-only``, ``latch-free``) or a path to
        a library JSON file.  The artifact carries the constructed
        :class:`~repro.gates.ir.GateNetlist`.
        """
        spec = Spec.load(spec)
        options = options or SynthesisOptions()
        library = get_library(library) if library is not None else None
        synthesis = self.synthesize(spec, options, backend=backend, max_markings=max_markings)
        if synthesis.backend == "structural":
            max_markings = None
        key = (
            "map",
            spec.content_hash,
            synthesis.backend,
            _options_key(options),
            max_markings,
            _library_key(library),
        )

        def compute() -> MappingArtifact:
            start = time.perf_counter()
            mapped = map_circuit(synthesis.circuit, library)
            netlist = mapped.netlist
            return MappingArtifact(
                spec_name=spec.name,
                spec_hash=spec.content_hash,
                total_area=mapped.total_area,
                per_signal_area=dict(mapped.per_signal_area),
                cells_used={s: list(c) for s, c in mapped.cells_used.items()},
                seconds=time.perf_counter() - start,
                library=mapped.library.name,
                gate_count=netlist.num_gates(),
                net_count=netlist.num_nets(),
                latch_count=netlist.num_latches(),
                mapped=mapped,
                netlist=netlist,
            )

        return self._memo(key, compute, spec=spec, artifact_cls=MappingArtifact)

    # ------------------------------------------------------------------ #
    # Stage: verify
    # ------------------------------------------------------------------ #

    def verify(
        self,
        spec: SpecLike,
        options: Optional[SynthesisOptions] = None,
        backend: Union[str, "object"] = "structural",
        max_markings: Optional[int] = None,
    ) -> VerificationArtifact:
        """Verify the synthesized circuit to be speed independent."""
        spec = Spec.load(spec)
        options = options or SynthesisOptions()
        synthesis = self.synthesize(spec, options, backend=backend, max_markings=max_markings)
        # the bound stays in the key for every backend: the check reads the
        # state space, even after a structural synthesis
        key = (
            "verify",
            spec.content_hash,
            synthesis.backend,
            _options_key(options),
            max_markings,
        )

        def compute() -> VerificationArtifact:
            start = time.perf_counter()
            report = verify_speed_independence(
                spec.stg, synthesis.circuit, regions=self.states(spec, max_markings)
            )
            return VerificationArtifact(
                spec_name=spec.name,
                spec_hash=spec.content_hash,
                speed_independent=report.speed_independent,
                checked_markings=report.checked_markings,
                functional_errors=list(report.functional_errors),
                hazard_errors=list(report.hazard_errors),
                seconds=time.perf_counter() - start,
            )

        return self._memo(key, compute, spec=spec, artifact_cls=VerificationArtifact)

    # ------------------------------------------------------------------ #
    # Stage: verify_mapped
    # ------------------------------------------------------------------ #

    def verify_mapped(
        self,
        spec: SpecLike,
        options: Optional[SynthesisOptions] = None,
        backend: Union[str, "object"] = "structural",
        library: Union[GateLibrary, str, None] = None,
        max_markings: Optional[int] = None,
    ) -> MappedVerificationArtifact:
        """Differentially verify the mapped netlist against the behaviour.

        The ``map`` stage's netlist runs through its compiled column
        evaluator (:func:`repro.gates.compiled.compile_netlist`) and is
        compared with ``Circuit.next_value_columns`` on every reachable
        state of the specification at once, over the state space's
        per-signal columns; each differing code is reported once.
        """
        spec = Spec.load(spec)
        options = options or SynthesisOptions()
        library = get_library(library) if library is not None else None
        synthesis = self.synthesize(spec, options, backend=backend, max_markings=max_markings)
        mapping = self.map(
            spec, options, backend=backend, library=library, max_markings=max_markings
        )
        # as in `verify`, the bound stays in the key for every backend: the
        # check reads the state space, even after a structural synthesis
        key = (
            "verify_mapped",
            spec.content_hash,
            synthesis.backend,
            _options_key(options),
            max_markings,
            _library_key(library),
        )

        def compute() -> MappedVerificationArtifact:
            start = time.perf_counter()
            report = verify_mapped_netlist(
                spec.stg,
                synthesis.circuit,
                mapping.netlist,
                encoded=self.states(spec, max_markings).encoded,
            )
            elapsed = time.perf_counter() - start
            if self.obs is not None and elapsed > 0:
                # kernel throughput: distinct state codes differentially
                # simulated per second by the gate-level check
                self.obs.kernel_codes_per_second.set(report.checked_codes / elapsed)
            return MappedVerificationArtifact(
                spec_name=spec.name,
                spec_hash=spec.content_hash,
                equivalent=report.equivalent,
                checked_codes=report.checked_codes,
                checked_markings=report.checked_markings,
                gate_count=mapping.gate_count,
                library=mapping.library,
                mismatches=list(report.mismatches),
                seconds=time.perf_counter() - start,
            )

        return self._memo(
            key, compute, spec=spec, artifact_cls=MappedVerificationArtifact
        )

    # ------------------------------------------------------------------ #
    # Full run
    # ------------------------------------------------------------------ #

    def run(
        self,
        spec: SpecLike,
        options: Optional[SynthesisOptions] = None,
        backend: Union[str, "object"] = "structural",
        map_technology: bool = False,
        verify: bool = False,
        verify_mapped: bool = False,
        library: Union[GateLibrary, str, None] = None,
        max_markings: Optional[int] = None,
    ) -> Report:
        """Run the full pipeline and return a typed :class:`Report`.

        ``verify_mapped`` adds the gate-level differential leg of the verify
        stage (and implies ``map_technology``); ``library`` selects the gate
        library for both the ``map`` and ``verify_mapped`` stages.
        """
        spec = Spec.load(spec)
        options = options or SynthesisOptions()
        synthesis = self.synthesize(spec, options, backend=backend, max_markings=max_markings)
        analysis = refinement = None
        if synthesis.backend == "structural":
            # reuse the exact front-end artifacts the circuit was built from
            refinement = synthesis.refinement
            if refinement is None:
                refinement = self.refine(spec)
            analysis = refinement.analysis
            if analysis is None:
                analysis = self.analyze(spec)
        mapping = None
        if map_technology or verify_mapped:
            mapping = self.map(
                spec, options, backend=backend, library=library, max_markings=max_markings
            )
        verification = None
        if verify:
            verification = self.verify(spec, options, backend=backend, max_markings=max_markings)
        mapped_verification = None
        if verify_mapped:
            mapped_verification = self.verify_mapped(
                spec, options, backend=backend, library=library, max_markings=max_markings
            )
        return Report(
            spec_name=spec.name,
            spec_hash=spec.content_hash,
            backend=synthesis.backend,
            level=options.level,
            synthesis=synthesis,
            analysis=analysis,
            refinement=refinement,
            mapping=mapping,
            verification=verification,
            mapped_verification=mapped_verification,
        )
