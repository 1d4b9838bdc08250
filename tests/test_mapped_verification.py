"""Differential verification of mapped netlists across the registry.

The acceptance gate of the gate-level flow: for every registry benchmark
with an enumerable state space, the event simulation of the mapped netlist
must agree with ``Circuit.next_values`` on all reachable state codes, for
every built-in gate library.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import Pipeline, run
from repro.api.spec import Spec
from repro.benchmarks.registry import get_benchmark, list_benchmarks
from repro.gates import GateKind, verify_mapped_netlist
from repro.petri.reachability import (
    StateSpaceLimitExceeded,
    count_reachable_markings,
)
from repro.synthesis import SynthesisOptions, map_circuit

#: benchmarks beyond this marking count are excluded from exhaustive
#: simulation (the state-based verify stage has the same practical bound)
ENUMERATION_LIMIT = 5_000


def _enumerable_benchmarks() -> list[str]:
    names = []
    for name in list_benchmarks():
        try:
            count_reachable_markings(get_benchmark(name).net, max_markings=ENUMERATION_LIMIT)
        except StateSpaceLimitExceeded:
            continue
        names.append(name)
    return names


ENUMERABLE = _enumerable_benchmarks()

_pipeline = Pipeline()


class TestRegistryDifferential:
    @pytest.mark.parametrize("name", ENUMERABLE)
    def test_mapped_netlist_matches_behaviour_on_all_reachable_codes(self, name):
        spec = Spec.from_benchmark(name)
        options = SynthesisOptions(level=5, assume_csc=True)
        artifact = _pipeline.verify_mapped(spec, options)
        assert artifact.equivalent, (name, artifact.mismatches[:3])
        assert artifact.checked_codes > 0

    @pytest.mark.parametrize("library", ["two-input-only", "latch-free"])
    def test_alternative_libraries_stay_equivalent(self, library):
        for name in ("glatch_3", "sequencer", "parallelizer", "muller_pipeline_4"):
            spec = Spec.from_benchmark(name)
            options = SynthesisOptions(level=5, assume_csc=True)
            artifact = _pipeline.verify_mapped(spec, options, library=library)
            assert artifact.equivalent, (name, library, artifact.mismatches[:3])

    def test_level_one_region_architecture_is_equivalent(self):
        for name in ("fig1", "sequencer", "rw_port"):
            spec = Spec.from_benchmark(name)
            options = SynthesisOptions(level=1, assume_csc=True)
            artifact = _pipeline.verify_mapped(spec, options)
            assert artifact.equivalent, (name, artifact.mismatches[:3])


class TestVerifierCatchesBrokenNetlists:
    def test_swapped_latch_inputs_are_detected(self):
        stg = get_benchmark("glatch_3")
        result = Pipeline().synthesize(stg, SynthesisOptions(level=2))
        mapped = map_circuit(result.circuit)
        netlist = mapped.netlist
        latches = [g for g in netlist.gates if g.kind is not GateKind.SOP]
        if not latches:
            pytest.skip("no memory element at this level")
        broken = latches[0]
        swapped = dataclasses.replace(
            broken, inputs=(broken.inputs[1], broken.inputs[0])
        )
        netlist.gates[netlist.gates.index(broken)] = swapped
        report = verify_mapped_netlist(stg, result.circuit, netlist)
        assert not report.equivalent
        assert report.mismatch_count > 0

    def test_dropped_term_is_detected(self):
        stg = get_benchmark("sequencer")
        result = Pipeline().synthesize(stg, SynthesisOptions(level=5))
        mapped = map_circuit(result.circuit)
        netlist = mapped.netlist
        for index, gate in enumerate(netlist.gates):
            if gate.kind is GateKind.SOP and gate.terms:
                # invert the first literal of the first term
                (pin, polarity), *rest = gate.terms[0]
                terms = ((pin, 1 - polarity), *rest), *gate.terms[1:]
                netlist.gates[index] = dataclasses.replace(gate, terms=terms)
                break
        report = verify_mapped_netlist(stg, result.circuit, netlist)
        assert not report.equivalent


class TestPipelineStage:
    def test_verify_mapped_reuses_the_map_stage(self):
        pipeline = Pipeline()
        spec = Spec.from_benchmark("sequencer")
        pipeline.verify_mapped(spec)
        assert pipeline.stage_calls["map"] == 1
        assert pipeline.stage_calls["verify_mapped"] == 1
        # a second call is fully cached
        pipeline.verify_mapped(spec)
        assert pipeline.stage_calls["verify_mapped"] == 1
        # mapping with the same (default) library is shared
        pipeline.map(spec)
        assert pipeline.stage_calls["map"] == 1

    def test_run_with_verify_mapped_populates_the_report(self):
        report = run("glatch_3", level=2, verify=True, verify_mapped=True)
        assert report.mapping is not None
        assert report.netlist is not None
        assert report.mapped_verification.equivalent
        data = report.to_dict()
        assert data["verify_mapped"]["equivalent"] is True
        assert data["map"]["gates"] == report.mapping.gate_count
        assert "equivalent: True" in report.describe()

    def test_bounded_call_is_not_served_from_the_unbounded_cache(self):
        # the differential check enumerates the state space itself, so the
        # marking bound must stay in the memo key even for the structural
        # backend (as for `verify`)
        pipeline = Pipeline()
        spec = Spec.from_benchmark("glatch_3")
        assert pipeline.verify_mapped(spec).equivalent
        with pytest.raises(StateSpaceLimitExceeded):
            pipeline.verify_mapped(spec, max_markings=1)

    def test_artifact_to_dict_is_json_clean(self):
        spec = Spec.from_benchmark("handshake_seq")
        artifact = _pipeline.verify_mapped(spec)
        data = artifact.to_dict()
        assert data["stage"] == "verify_mapped"
        assert data["library"] == "generic-cmos"
        assert isinstance(data["checked_codes"], int)
