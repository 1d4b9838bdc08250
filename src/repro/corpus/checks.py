"""The differential check suite the fuzzing farm runs per corpus spec.

Every compiled/bit-parallel code path in the repository keeps its original
dict-and-set implementation as a ``_reference_*`` oracle.  This module runs
one generated spec through *all* of them — reachability, concurrency,
marked regions, encoding, consistency, state coding, both synthesis
backends in :func:`~repro.api.backends.compare` mode, mapped-netlist
verification, and (on small specs) the exact SAT backend, which must agree
with the state-based baseline on every code *and* never produce more
literals than it — and records any disagreement as a :class:`CheckFailure`.

The ``corpus.flip`` fault site plants a regression on demand: when the
bound injector fires (or ``force_flip`` is set), the first SOP literal of
the mapped netlist is inverted before verification.  The farm must then
*catch* the planted bug (a failure record marked ``injected=True``) —
missing it is itself a failure — which exercises the shrink/quarantine
machinery end to end without shipping a real bug.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.api.backends import compare
from repro.api.faults import FaultInjector
from repro.api.pipeline import Pipeline
from repro.api.spec import Spec
from repro.gates.ir import GateKind
from repro.gates.verify import _reference_verify_mapped_netlist, verify_mapped_netlist
from repro.petri.reachability import (
    StateSpaceLimitExceeded,
    _reference_build_reachability_graph,
    _reference_concurrent_pairs_from_rg,
    _reference_count_reachable_markings,
    _reference_marking_sets_of_places,
    build_reachability_graph,
    concurrent_pairs_from_rg,
    count_reachable_markings,
    marking_sets_of_places,
)
from repro.statebased.coding import _reference_analyze_state_coding, analyze_state_coding
from repro.statebased.synthesis import StateBasedSynthesisError
from repro.stg.consistency import (
    _reference_adjacent_transition_pairs,
    _reference_find_autoconcurrent_pairs,
    _reference_find_semimodularity_violations,
    adjacent_transition_pairs,
    find_autoconcurrent_pairs,
    find_semimodularity_violations,
)
from repro.stg.encoding import (
    EncodedReachabilityGraph,
    EncodingError,
    _reference_encode_reachability_graph,
    encode_reachability_graph,
)
from repro.synthesis.engine import SynthesisError, SynthesisOptions
from repro.synthesis.mapping import map_circuit

#: exact synthesis is exponential in the worst case; corpus specs above
#: this many reachable states skip the SAT cross-check (the differential
#: value concentrates in small specs anyway — minima are enumerable there)
SAT_CHECK_MAX_STATES = 200


@dataclass
class CheckFailure:
    """One differential disagreement (or crash) on one spec."""

    check: str
    detail: str
    injected: bool = False

    def to_dict(self) -> dict:
        return {"check": self.check, "detail": self.detail, "injected": self.injected}


@dataclass
class CheckReport:
    """Outcome of the full differential suite on one spec (picklable)."""

    spec_name: str
    spec_hash: str
    states: int = 0
    klass: str = "unknown"
    consistent: bool = False
    live: bool = False
    synthesized: bool = False
    failures: list = field(default_factory=list)
    total_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def event_detail(self) -> str:
        """One-line summary for the scheduler's ``done`` event."""
        verdict = "ok" if self.ok else f"{len(self.failures)} FAIL"
        return f"{self.states} states, {self.klass}, {verdict}"

    def to_dict(self) -> dict:
        return {
            "spec": self.spec_name,
            "spec_hash": self.spec_hash,
            "states": self.states,
            "class": self.klass,
            "consistent": self.consistent,
            "live": self.live,
            "synthesized": self.synthesized,
            "failures": [f.to_dict() for f in self.failures],
            "total_seconds": self.total_seconds,
        }


def _edges_of(graph) -> list:
    """Edge list in discovery order: (source, transition, target) triples."""
    edges = []
    for marking in graph:
        for transition, target in sorted(graph.successors(marking)):
            edges.append((marking, transition, target))
    return edges


def _flip_first_literal(netlist):
    """Invert one SOP literal polarity — the planted mapped-netlist bug."""
    for index, gate in enumerate(netlist.gates):
        if gate.kind is GateKind.SOP and gate.terms:
            (pin, polarity), *rest = gate.terms[0]
            terms = (((pin, 1 - polarity), *rest),) + tuple(gate.terms[1:])
            netlist.gates[index] = dataclasses.replace(gate, terms=terms)
            return True
    return False


def run_check_suite(
    spec: Spec,
    max_markings: int = 600,
    faults: Optional[FaultInjector] = None,
    pipeline=None,
    force_flip: bool = False,
) -> CheckReport:
    """Run every differential check on one spec.

    Graph-level checks (reachability, concurrency, encoding, consistency)
    run on *every* spec — inconsistent and deadlocking STGs included, since
    the compiled kernels must agree with the references off the happy path
    too.  Synthesis-level checks run only where synthesis is defined.
    """
    started = time.monotonic()
    report = CheckReport(spec_name=spec.name, spec_hash=spec.content_hash)
    stg = spec.stg
    net = stg.net

    def fail(check: str, detail: str, injected: bool = False) -> None:
        report.failures.append(CheckFailure(check, str(detail)[:500], injected))

    # ---- reachability: compiled (safe or k-bounded packed) vs reference
    graph = reference = None
    try:
        graph = build_reachability_graph(net, max_markings=max_markings)
    except StateSpaceLimitExceeded:
        graph = None
    try:
        reference = _reference_build_reachability_graph(
            net, stg.initial_marking, max_markings=max_markings
        )
    except StateSpaceLimitExceeded:
        reference = None
    if (graph is None) != (reference is None):
        fail(
            "reachability",
            "state-space limit parity: compiled "
            f"{'exceeded' if graph is None else 'completed'}, reference "
            f"{'exceeded' if reference is None else 'completed'}",
        )
        report.total_seconds = time.monotonic() - started
        return report
    if graph is None:
        report.klass = "unbounded?"
        report.total_seconds = time.monotonic() - started
        return report

    report.states = len(graph)
    # the kernel's verdict: a safe net completes on the 1-bit rung
    safe = all(marking.is_safe() for marking in reference.markings)
    if graph._compiled is not None:
        bits = graph._compiled.bits
        if (bits == 1) != safe:
            fail("reachability", f"{bits}-bit rung disagrees with reference safe={safe}")
        safe = bits == 1
    report.klass = "safe" if safe else "k-bounded"
    report.live = not graph.deadlocks()

    if list(graph.markings) != list(reference.markings):
        fail("reachability", "marking discovery order diverges from reference")
    elif _edges_of(graph) != _edges_of(reference):
        fail("reachability", "edge sets diverge from reference")

    try:
        count = count_reachable_markings(net, max_markings=max_markings)
        reference_count = _reference_count_reachable_markings(
            net, stg.initial_marking, max_markings=max_markings
        )
        if count != reference_count:
            fail("count", f"count {count} != reference {reference_count}")
    except StateSpaceLimitExceeded:
        fail("count", "count hit the limit after full exploration succeeded")

    # ---- concurrency and marked regions
    pairs = concurrent_pairs_from_rg(graph)
    reference_pairs = _reference_concurrent_pairs_from_rg(reference)
    if pairs != reference_pairs:
        fail(
            "concurrency",
            f"{len(pairs ^ reference_pairs)} concurrent pairs diverge",
        )
    sets = marking_sets_of_places(graph, net.places)
    reference_sets = _reference_marking_sets_of_places(reference, net.places)
    if sets != reference_sets:
        fail("regions", "marked-region sets diverge from reference")

    # ---- encoding (both-raise parity, then per-marking codes)
    encoded = None
    encode_error = reference_error = None
    try:
        encoded = encode_reachability_graph(stg, graph, strict=True)
    except EncodingError as error:
        encode_error = error
    reference_encoded = None
    try:
        reference_encoded = _reference_encode_reachability_graph(
            stg, reference, strict=True
        )
    except EncodingError as error:
        reference_error = error
    if (encode_error is None) != (reference_error is None):
        fail(
            "encoding",
            f"strictness parity: compiled {encode_error!r}, "
            f"reference {reference_error!r}",
        )
    elif encoded is not None and reference_encoded is not None:
        for marking in graph:
            if encoded.code_of(marking) != reference_encoded.code_of(marking):
                fail("encoding", f"code diverges at {marking}")
                break
    report.consistent = encoded is not None

    # ---- consistency analyses (well-defined with or without an encoding)
    auto = find_autoconcurrent_pairs(stg, graph)
    if auto != _reference_find_autoconcurrent_pairs(stg, reference):
        fail("autoconcurrency", "autoconcurrent pairs diverge from reference")
    satisfies_csc = False
    if report.consistent and not auto:
        semi = find_semimodularity_violations(stg, graph)
        if semi != _reference_find_semimodularity_violations(stg, reference):
            fail("semimodularity", "violation sets diverge from reference")
        adjacent = adjacent_transition_pairs(stg, graph)
        if adjacent != _reference_adjacent_transition_pairs(stg, reference):
            fail("adjacency", "next-relation diverges from reference")
        try:
            coding = analyze_state_coding(stg, encoded)
            satisfies_csc = coding.satisfies_csc
            reference_coding = _reference_analyze_state_coding(stg, reference_encoded)
            mine = (
                coding.satisfies_usc,
                coding.satisfies_csc,
                len(coding.usc_conflicts),
                len(coding.csc_conflicts),
            )
            theirs = (
                reference_coding.satisfies_usc,
                reference_coding.satisfies_csc,
                len(reference_coding.usc_conflicts),
                len(reference_coding.csc_conflicts),
            )
            if mine != theirs:
                fail("coding", f"USC/CSC verdicts diverge: {mine} != {theirs}")
        except Exception as error:  # noqa: BLE001 — any crash is a finding
            fail("coding", f"crash: {type(error).__name__}: {error}")

    # ---- synthesis: both backends cross-checked, then mapped verification.
    # CSC is a precondition: on a CSC-violating spec the implied next-state
    # value is ill-defined per code, so compare() mismatches would be
    # artifacts of the specification, not backend divergence.
    synthesizable = (
        report.consistent
        and report.live
        and not auto
        and satisfies_csc
        and bool(stg.non_input_signals)
        and report.states > 1
    )
    if synthesizable:
        options = SynthesisOptions(assume_csc=True)
        if pipeline is None:
            pipeline = Pipeline()
        try:
            comparison = compare(
                spec, options, pipeline=pipeline, max_markings=max_markings
            )
        except (SynthesisError, StateBasedSynthesisError, EncodingError):
            comparison = None  # legitimately unsynthesizable; not a finding
        except Exception as error:  # noqa: BLE001
            comparison = None
            fail("compare", f"crash: {type(error).__name__}: {error}")
        if comparison is not None:
            report.synthesized = True
            if not comparison.matching:
                fail(
                    "compare",
                    f"{len(comparison.mismatches)} backend mismatches "
                    f"over {comparison.checked_markings} markings",
                )
            else:
                _check_mapped(
                    report,
                    fail,
                    spec,
                    comparison,
                    pipeline.states(spec, max_markings).encoded,
                    faults,
                    force_flip,
                )
                if report.states <= SAT_CHECK_MAX_STATES:
                    _check_sat(report, fail, spec, options, max_markings, pipeline)

    report.total_seconds = time.monotonic() - started
    return report


def _check_sat(
    report: CheckReport,
    fail,
    spec: Spec,
    options: SynthesisOptions,
    max_markings: int,
    pipeline,
) -> None:
    """Cross-check the exact SAT backend on a small synthesizable spec.

    Two properties, both differential: the exact circuit must agree with
    the state-based baseline on every reachable code, and its literal
    count must not exceed the baseline's (the heuristic cover is a
    feasible point of the exact search space, so ``exact > baseline`` is
    a synthesis bug).  Budget exhaustion is a capacity skip, never a
    finding.
    """
    from repro.sat.encode import SatBudgetExceeded

    try:
        comparison = compare(
            spec,
            options,
            pipeline=pipeline,
            max_markings=max_markings,
            backends=("statebased", "sat"),
        )
    except SatBudgetExceeded:
        return  # candidate space too large for the corpus budget
    except (SynthesisError, StateBasedSynthesisError, EncodingError):
        return  # legitimately unsynthesizable; not a finding
    except Exception as error:  # noqa: BLE001 — any crash is a finding
        fail("sat", f"crash: {type(error).__name__}: {error}")
        return
    if not comparison.matching:
        fail(
            "sat",
            f"{len(comparison.mismatches)} exact-backend mismatches "
            f"over {comparison.checked_markings} markings",
        )
        return
    baseline = comparison.structural.synthesis  # first slot: statebased
    exact = comparison.statebased.synthesis  # second slot: sat
    if exact.literals > baseline.literals:
        fail(
            "sat",
            f"exact backend found {exact.literals} literals, worse than "
            f"the state-based baseline's {baseline.literals}",
        )


def _check_mapped(
    report: CheckReport,
    fail,
    spec: Spec,
    comparison,
    encoded: EncodedReachabilityGraph,
    faults: Optional[FaultInjector],
    force_flip: bool,
) -> None:
    """Map the structural circuit and verify the netlist (maybe corrupted)."""
    stg = spec.stg
    try:
        mapping = map_circuit(comparison.structural.circuit)
    except Exception as error:  # noqa: BLE001
        fail("mapping", f"crash: {type(error).__name__}: {error}")
        return
    netlist = mapping.netlist
    flipped = force_flip
    if not flipped and faults is not None:
        # token mode keyed on the spec hash: the decision is a pure function
        # of (seed, rate, spec) — identical in sequential and pool runs
        bound = faults.bind(1, salt=spec.content_hash)
        flipped = bound.fire("corpus.flip", scope=spec.name) is not None
    if flipped and not _flip_first_literal(netlist):
        flipped = False  # no SOP gate to corrupt; nothing planted
    try:
        verdict = verify_mapped_netlist(
            stg, comparison.structural.circuit, netlist, encoded=encoded
        )
        reference = _reference_verify_mapped_netlist(
            stg, comparison.structural.circuit, netlist, encoded=encoded
        )
    except Exception as error:  # noqa: BLE001
        fail("mapped", f"crash: {type(error).__name__}: {error}", injected=flipped)
        return
    if verdict.equivalent != reference.equivalent:
        fail(
            "mapped",
            "bit-parallel and reference verification disagree: "
            f"{verdict.equivalent} != {reference.equivalent}",
        )
    if flipped:
        if verdict.equivalent:
            fail("mapped", "planted netlist corruption went undetected")
        else:
            # the farm caught the planted bug — record it so the campaign
            # exercises shrink + quarantine on a known-injected regression
            fail(
                "mapped",
                f"injected literal flip detected "
                f"({verdict.mismatch_count} mismatching codes)",
                injected=True,
            )
    elif not verdict.equivalent:
        fail("mapped", f"netlist diverges on {verdict.mismatch_count} codes")


def run_corpus_job(job, pipeline, faults) -> CheckReport:
    """Scheduler runner entry point (``repro.corpus.checks:run_corpus_job``).

    The scheduler builds the (store-backed) pipeline and resolves the fault
    injector on both sides of the pool boundary; the job's ``payload``
    carries the campaign knobs.
    """
    payload = getattr(job, "payload", None) or {}
    return run_check_suite(
        job.spec,
        max_markings=payload.get("max_markings", job.max_markings or 600),
        faults=faults,
        pipeline=pipeline,
        force_flip=payload.get("force_flip", False),
    )
