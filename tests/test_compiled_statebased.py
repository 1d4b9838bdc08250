"""Differential tests: compiled state-based engine vs. reference oracles.

PR 4 ports the state-based back end (encoding, regions, next-state, coding,
consistency, QPS walks, gate-netlist evaluation) onto machine integers.  The
dict/set-based implementations are retained as ``_reference_*`` oracles;
these tests pin the compiled paths to them on randomized STGs (including
nets that force the unsafe-net fallback of the reachability builder) and on
registry benchmarks, mirroring the pattern of ``test_compiled_kernel.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.api import Pipeline
from repro.benchmarks.registry import get_benchmark
from repro.gates import GateLevelSimulator, GateNetlist
from repro.gates.verify import (
    _reference_verify_mapped_netlist,
    verify_mapped_netlist,
)
from repro.petri.invariants import place_invariants
from repro.petri.reachability import (
    StateSpaceLimitExceeded,
    build_reachability_graph,
)
from repro.statebased.coding import (
    _reference_analyze_state_coding,
    analyze_state_coding,
)
from repro.statebased.nextstate import next_state_value
from repro.statebased.regions import (
    _reference_signal_region_sets,
    compute_signal_regions,
)
from repro.stg.consistency import (
    _reference_adjacent_transition_pairs,
    _reference_find_autoconcurrent_pairs,
    _reference_find_semimodularity_violations,
    adjacent_transition_pairs,
    find_autoconcurrent_pairs,
    find_semimodularity_violations,
)
from repro.stg.encoding import (
    EncodingError,
    _reference_encode_reachability_graph,
    _reference_infer_initial_values,
    encode_reachability_graph,
    infer_initial_values,
)
from repro.stg.signals import SignalType
from repro.stg.stg import STG
from repro.structural.qps import (
    _directional_place_walk,
    compute_backward_place_sets,
    compute_qps,
)
from repro.synthesis import SynthesisOptions, map_circuit

MAX_MARKINGS = 400

#: registry benchmarks with enumerable graphs and consistent encodings
CONSISTENT_BENCHMARKS = (
    "fig1",
    "fig6",
    "glatch_3",
    "sequencer",
    "muller_pipeline_4",
    "philosophers_3",
)


# the randomized-STG machinery now lives in the corpus generator; these
# differential tests and the fuzzing farm draw from one implementation
from repro.corpus.generator import random_stg  # noqa: E402


def graph_for(stg: STG):
    """Bounded reachability graph, or None when the state space blows up."""
    try:
        return build_reachability_graph(stg.net, max_markings=MAX_MARKINGS)
    except StateSpaceLimitExceeded:
        return None


def usable_cases(rng: random.Random, count: int, unsafe_every: int = 4):
    """Yield ``count`` random (stg, graph) pairs with enumerable graphs."""
    produced = 0
    for attempt in range(count * 20):
        stg = random_stg(rng, allow_unsafe=attempt % unsafe_every == 0)
        graph = graph_for(stg)
        if graph is None:
            continue
        yield stg, graph
        produced += 1
        if produced >= count:
            return
    raise AssertionError(f"generator produced only {produced}/{count} cases")


def encoded_pair(stg: STG, graph):
    """Compiled and reference encodings (non-strict) over the same graph."""
    compiled = encode_reachability_graph(stg, graph, strict=False)
    reference = _reference_encode_reachability_graph(stg, graph, strict=False)
    return compiled, reference


# ---------------------------------------------------------------------- #
# Encoding
# ---------------------------------------------------------------------- #


class TestEncodingDifferential:
    def test_random_codes_match_reference(self):
        rng = random.Random(20260731)
        for stg, graph in usable_cases(rng, 30):
            assert infer_initial_values(stg, graph) == (
                _reference_infer_initial_values(stg, graph)
            )
            compiled, reference = encoded_pair(stg, graph)
            assert compiled.codes() == reference.codes()
            assert compiled.used_codes() == reference.used_codes()
            for marking in graph.markings:
                assert compiled.code_of(marking) == reference.code_of(marking)
                assert compiled.code_string(marking) == reference.code_string(marking)
            # strict mode: both raise, or both agree
            try:
                strict_reference = _reference_encode_reachability_graph(stg, graph)
            except EncodingError:
                with pytest.raises(EncodingError):
                    encode_reachability_graph(stg, graph)
            else:
                strict_compiled = encode_reachability_graph(stg, graph)
                assert strict_compiled.codes() == strict_reference.codes()

    def test_registry_codes_match_reference(self):
        for name in CONSISTENT_BENCHMARKS:
            stg = get_benchmark(name)
            graph = build_reachability_graph(stg.net)
            compiled = encode_reachability_graph(stg, graph)
            reference = _reference_encode_reachability_graph(stg, graph)
            assert compiled.codes() == reference.codes()

    def test_noncopying_accessors_share_state(self):
        stg = get_benchmark("fig1")
        encoded = encode_reachability_graph(stg)
        assert encoded.packed_codes is encoded.packed_codes
        marking = encoded.markings[0]
        assert encoded.code_view(marking) is encoded.code_view(marking)
        # code_of stays a defensive copy
        assert encoded.code_of(marking) is not encoded.code_view(marking)


# ---------------------------------------------------------------------- #
# Regions and next-state functions
# ---------------------------------------------------------------------- #


def _region_sets_match(stg, regions, reference):
    for transition in reference["er"]:
        assert regions.er(transition) == reference["er"][transition], transition
        assert regions.qr(transition) == reference["qr"][transition], transition
        assert regions.rqr(transition) == reference["rqr"][transition], transition
        assert regions.br(transition) == reference["br"][transition], transition
    for signal in stg.signal_names:
        for direction, value in (("+", 1), ("-", 0)):
            ger = set()
            gqr = set()
            for transition in stg.transitions_by_direction(signal, direction):
                if transition in reference["er"]:
                    ger |= reference["er"][transition]
                    gqr |= reference["qr"][transition]
            assert regions.ger(signal, direction) == ger
            assert regions.gqr(signal, value) == gqr


class TestRegionsDifferential:
    def test_random_regions_match_reference(self):
        rng = random.Random(42)
        for stg, graph in usable_cases(rng, 25, unsafe_every=5):
            encoded = encode_reachability_graph(stg, graph, strict=False)
            regions = compute_signal_regions(stg, encoded)
            reference = _reference_signal_region_sets(stg, encoded)
            _region_sets_match(stg, regions, reference)

    def test_registry_regions_match_reference(self):
        for name in CONSISTENT_BENCHMARKS:
            stg = get_benchmark(name)
            encoded = encode_reachability_graph(stg)
            regions = compute_signal_regions(stg, encoded)
            reference = _reference_signal_region_sets(stg, encoded)
            _region_sets_match(stg, regions, reference)

    def test_region_covers_match_region_codes(self):
        for name in ("fig1", "glatch_3", "sequencer"):
            stg = get_benchmark(name)
            encoded = encode_reachability_graph(stg)
            regions = compute_signal_regions(stg, encoded)
            order = stg.signal_names
            for transition in stg.transitions:
                cover = regions.er_codes(transition)
                expected = {
                    tuple(encoded.code_of(m)[s] for s in order)
                    for m in regions.er(transition)
                }
                actual = set()
                for cube in cover:
                    for vertex in cube.vertices(order):
                        actual.add(tuple(vertex[s] for s in order))
                assert actual == expected, transition

    def test_next_state_values_match_region_membership(self):
        for name in CONSISTENT_BENCHMARKS:
            stg = get_benchmark(name)
            encoded = encode_reachability_graph(stg)
            regions = compute_signal_regions(stg, encoded)
            reference = _reference_signal_region_sets(stg, encoded)
            for signal in stg.non_input_signals:
                on = set()
                off = set()
                for transition in stg.transitions_by_direction(signal, "+"):
                    on |= reference["er"][transition]
                    on |= reference["qr"][transition]
                for transition in stg.transitions_by_direction(signal, "-"):
                    off |= reference["er"][transition]
                    off |= reference["qr"][transition]
                for marking in encoded.markings:
                    expected = 1 if marking in on else (0 if marking in off else None)
                    assert next_state_value(stg, regions, signal, marking) == expected
                    index = encoded.index(marking)
                    assert next_state_value(stg, regions, signal, index) == expected

    def test_noncopying_region_accessors(self):
        stg = get_benchmark("fig1")
        regions = compute_signal_regions(stg)
        transition = stg.transitions[0]
        assert isinstance(regions.er_bits(transition), int)
        # set accessors materialise fresh sets (the historical contract)
        assert regions.er(transition) is not regions.er(transition)
        assert regions.er(transition) == regions.excitation[transition]


# ---------------------------------------------------------------------- #
# State coding (USC / CSC)
# ---------------------------------------------------------------------- #


def _conflict_key(conflict):
    return (
        conflict.code,
        frozenset((conflict.first, conflict.second)),
        conflict.conflicting_signals,
    )


class TestCodingDifferential:
    def test_random_coding_matches_reference(self):
        rng = random.Random(7)
        for stg, graph in usable_cases(rng, 25, unsafe_every=5):
            encoded = encode_reachability_graph(stg, graph, strict=False)
            compiled = analyze_state_coding(stg, encoded)
            reference = _reference_analyze_state_coding(stg, encoded)
            assert compiled.satisfies_usc == reference.satisfies_usc
            assert compiled.satisfies_csc == reference.satisfies_csc
            assert (
                [_conflict_key(c) for c in compiled.usc_conflicts]
                == [_conflict_key(c) for c in reference.usc_conflicts]
            )
            assert (
                [_conflict_key(c) for c in compiled.csc_conflicts]
                == [_conflict_key(c) for c in reference.csc_conflicts]
            )

    def test_registry_coding_matches_reference(self):
        for name in ("fig1", "fig5", "fig6", "latch_ctrl", "glatch_3"):
            stg = get_benchmark(name)
            encoded = encode_reachability_graph(stg)
            compiled = analyze_state_coding(stg, encoded)
            reference = _reference_analyze_state_coding(stg, encoded)
            assert compiled.satisfies_usc == reference.satisfies_usc
            assert compiled.satisfies_csc == reference.satisfies_csc
            assert (
                [_conflict_key(c) for c in compiled.csc_conflicts]
                == [_conflict_key(c) for c in reference.csc_conflicts]
            )


# ---------------------------------------------------------------------- #
# Consistency / semimodularity / next relation
# ---------------------------------------------------------------------- #


class TestConsistencyDifferential:
    def test_random_checks_match_reference(self):
        rng = random.Random(99)
        for stg, graph in usable_cases(rng, 25):
            assert find_autoconcurrent_pairs(stg, graph) == (
                _reference_find_autoconcurrent_pairs(stg, graph)
            )
            assert find_semimodularity_violations(stg, graph) == (
                _reference_find_semimodularity_violations(stg, graph)
            )
            assert adjacent_transition_pairs(stg, graph) == (
                _reference_adjacent_transition_pairs(stg, graph)
            )

    def test_registry_checks_match_reference(self):
        for name in CONSISTENT_BENCHMARKS:
            stg = get_benchmark(name)
            graph = build_reachability_graph(stg.net)
            assert find_autoconcurrent_pairs(stg, graph) == (
                _reference_find_autoconcurrent_pairs(stg, graph)
            )
            assert find_semimodularity_violations(stg, graph) == (
                _reference_find_semimodularity_violations(stg, graph)
            )
            assert adjacent_transition_pairs(stg, graph) == (
                _reference_adjacent_transition_pairs(stg, graph)
            )


# ---------------------------------------------------------------------- #
# QPS / BPS mask walks
# ---------------------------------------------------------------------- #


def _reference_qps(stg, next_relation=None):
    result = {}
    for transition in stg.transitions:
        forward, boundary = _directional_place_walk(stg, transition, forward=True)
        successors = (
            next_relation.get(transition, set())
            if next_relation is not None
            else boundary
        )
        reach_back = set()
        for successor in successors:
            places, _ = _directional_place_walk(stg, successor, forward=False)
            reach_back |= places
        result[transition] = forward & reach_back
    return result


def _reference_bps(stg, next_relation=None):
    predecessors_of: dict[str, set[str]] = {}
    if next_relation is not None:
        for source, successors in next_relation.items():
            for successor in successors:
                predecessors_of.setdefault(successor, set()).add(source)
    result = {}
    for transition in stg.transitions:
        backward, boundary = _directional_place_walk(stg, transition, forward=False)
        predecessors = (
            predecessors_of.get(transition, set())
            if next_relation is not None
            else boundary
        )
        reach_forward = set()
        for predecessor in predecessors:
            places, _ = _directional_place_walk(stg, predecessor, forward=True)
            reach_forward |= places
        result[transition] = backward & reach_forward
    return result


class TestQpsDifferential:
    def test_random_walks_match_reference(self):
        rng = random.Random(555)
        for case in range(40):
            stg = random_stg(rng)
            assert compute_qps(stg) == _reference_qps(stg)
            assert compute_backward_place_sets(stg) == _reference_bps(stg)

    def test_registry_walks_match_reference(self):
        for name in CONSISTENT_BENCHMARKS:
            stg = get_benchmark(name)
            graph = build_reachability_graph(stg.net)
            next_relation = adjacent_transition_pairs(stg, graph)
            assert compute_qps(stg, next_relation=next_relation) == (
                _reference_qps(stg, next_relation)
            )
            assert compute_backward_place_sets(stg, next_relation=next_relation) == (
                _reference_bps(stg, next_relation)
            )


# ---------------------------------------------------------------------- #
# Compiled gate-netlist evaluation
# ---------------------------------------------------------------------- #


def _random_code(rng, stg):
    return {signal: rng.randint(0, 1) for signal in stg.signal_names}


class TestNetlistEvaluatorDifferential:
    def test_settle_matches_event_driven_reference(self):
        rng = random.Random(123)
        for name in ("sequencer", "glatch_3", "parallelizer"):
            for library in ("generic-cmos", "two-input-only", "latch-free"):
                stg = get_benchmark(name)
                result = Pipeline().synthesize(stg, SynthesisOptions(level=5, assume_csc=True))
                netlist = map_circuit(result.circuit, library).netlist
                simulator = GateLevelSimulator(netlist)
                for _ in range(40):
                    code = _random_code(rng, stg)
                    assert simulator.settle(code) == simulator._reference_settle(code)

    def test_verify_mapped_matches_reference(self):
        for name in ("sequencer", "glatch_3", "muller_pipeline_4"):
            stg = get_benchmark(name)
            result = Pipeline().synthesize(stg, SynthesisOptions(level=5, assume_csc=True))
            netlist = map_circuit(result.circuit).netlist
            compiled = verify_mapped_netlist(stg, result.circuit, netlist)
            reference = _reference_verify_mapped_netlist(stg, result.circuit, netlist)
            assert compiled.equivalent and reference.equivalent
            assert compiled.checked_codes == reference.checked_codes
            assert compiled.checked_markings == reference.checked_markings

    def test_verify_mismatch_parity_on_corrupted_netlist(self):
        stg = get_benchmark("sequencer")
        result = Pipeline().synthesize(stg, SynthesisOptions(level=5, assume_csc=True))
        netlist = map_circuit(result.circuit).netlist
        data = netlist.to_json()
        corrupted = None
        for gate in data["gates"]:
            if gate["kind"] == "sop" and gate["terms"] and gate["terms"][0]:
                gate["terms"][0][0][1] = 1 - gate["terms"][0][0][1]
                corrupted = GateNetlist.from_json(data)
                break
        assert corrupted is not None
        compiled = verify_mapped_netlist(stg, result.circuit, corrupted)
        reference = _reference_verify_mapped_netlist(stg, result.circuit, corrupted)
        assert not compiled.equivalent
        assert compiled.mismatch_count == reference.mismatch_count
        assert compiled.mismatches == reference.mismatches


# ---------------------------------------------------------------------- #
# Unsafe-net fallback: the whole compiled chain on a reference-built graph
# ---------------------------------------------------------------------- #


def unsafe_stg() -> STG:
    stg = STG("unsafe")
    stg.add_signal("a", SignalType.OUTPUT)
    stg.add_transition("a+")
    stg.add_transition("a-")
    for place in ("p", "q"):
        stg.add_place(place)
    stg.add_arc("p", "a+")
    stg.add_arc("a+", "q")
    stg.add_arc("q", "a-")
    stg.add_arc("a-", "p")
    stg.set_marking(["p"])
    stg.net.set_initial_tokens("p", 2)
    return stg


class TestUnsafeFallback:
    def test_compiled_chain_on_fallback_graph(self):
        stg = unsafe_stg()
        graph = build_reachability_graph(stg.net)
        # the safe kernel refused the net; the k-bounded kernel took over
        # and the graph still carries a packed payload
        from repro.petri.compiled import CompiledBoundedNet

        assert isinstance(graph._compiled, CompiledBoundedNet)
        assert graph._packed is not None
        compiled, reference = encoded_pair(stg, graph)
        assert compiled.codes() == reference.codes()
        regions = compute_signal_regions(stg, compiled)
        oracle = _reference_signal_region_sets(stg, compiled)
        _region_sets_match(stg, regions, oracle)
        report = analyze_state_coding(stg, compiled)
        oracle_report = _reference_analyze_state_coding(stg, compiled)
        assert report.satisfies_usc == oracle_report.satisfies_usc
        assert report.satisfies_csc == oracle_report.satisfies_csc
        assert find_autoconcurrent_pairs(stg, graph) == (
            _reference_find_autoconcurrent_pairs(stg, graph)
        )
        assert find_semimodularity_violations(stg, graph) == (
            _reference_find_semimodularity_violations(stg, graph)
        )


# ---------------------------------------------------------------------- #
# place_invariants memoisation
# ---------------------------------------------------------------------- #


class TestInvariantMemoisation:
    def test_cache_hits_and_invalidates(self):
        stg = get_benchmark("fig1")
        net = stg.net
        first = place_invariants(net)
        assert net._invariants_cache[0][0] == getattr(net, "_version", None)
        second = place_invariants(net)
        assert first == second
        # results are defensive copies
        second[0]["__mutated__"] = 1
        assert place_invariants(net) == first
        # structural mutation invalidates the cache
        net.add_place("fresh_place")
        net.add_transition("fresh_t")
        net.add_arc("fresh_place", "fresh_t")
        net.add_arc("fresh_t", "fresh_place")
        third = place_invariants(net)
        assert any("fresh_place" in invariant for invariant in third)
