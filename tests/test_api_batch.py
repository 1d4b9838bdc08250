"""Tests of batch execution and the picklability it depends on."""

from __future__ import annotations

import copy
import pickle

from repro.api import Pipeline, Spec, SynthesisOptions, synthesize_many
from repro.benchmarks.classic import load_classic
from repro.synthesis.netlist import Circuit


class TestSequentialBatch:
    def test_reports_in_input_order(self):
        reports = synthesize_many(
            ["sequencer", "handshake_seq", "fig1"],
            SynthesisOptions(level=5, assume_csc=True),
        )
        assert [r.spec_name for r in reports] == ["sequencer", "handshake_seq", "fig1"]
        assert all(r.literals > 0 for r in reports)

    def test_duplicate_specs_synthesize_once(self):
        pipeline = Pipeline()
        reports = synthesize_many(
            ["handshake_seq", "handshake_seq", "handshake_seq"],
            SynthesisOptions(assume_csc=True),
            pipeline=pipeline,
        )
        assert len(reports) == 3
        assert pipeline.stage_calls["synthesize"] == 1
        assert pipeline.stage_calls["analyze"] == 1

    def test_verify_and_map_ride_along(self):
        reports = synthesize_many(
            ["sequencer"],
            SynthesisOptions(level=5, assume_csc=True),
            map_technology=True,
            verify=True,
        )
        assert reports[0].mapping.total_area > 0
        assert reports[0].speed_independent is True


class TestProcessPoolBatch:
    def test_parallel_matches_sequential(self):
        names = ["sequencer", "handshake_seq", "converter_2to4", "rw_port"]
        options = SynthesisOptions(level=5, assume_csc=True)
        sequential = synthesize_many(names, options)
        parallel = synthesize_many(names, options, jobs=2)
        assert [r.spec_name for r in parallel] == names
        assert [r.literals for r in parallel] == [r.literals for r in sequential]
        # the circuits crossed a process boundary and still evaluate
        circuit = parallel[0].circuit
        assert circuit is not None
        assert circuit.literal_count() == parallel[0].literals


class TestPicklability:
    """Satellite of the API redesign: results must survive copy/pickle."""

    def test_report_round_trips_with_its_circuit(self):
        report = synthesize_many(["sequencer"], SynthesisOptions(assume_csc=True))[0]
        clone = pickle.loads(pickle.dumps(report))
        assert clone.literals == report.literals
        assert clone.circuit.literal_count() == report.circuit.literal_count()
        vector = {s: 0 for s in report.circuit.signal_order}
        assert clone.circuit.next_values(vector) == report.circuit.next_values(vector)

    def test_circuit_copy_and_pickle_do_not_recurse(self):
        """Batch results carry circuits: copying or pickling one must not
        recurse (the historical ``__getattr__`` passthrough of a result
        wrapper did)."""
        stg = load_classic("handshake_seq")
        circuit = Pipeline().synthesize(
            stg, SynthesisOptions(level=5, assume_csc=True)
        ).circuit
        shallow = copy.copy(circuit)
        assert shallow.implementations is circuit.implementations
        deep = copy.deepcopy(circuit)
        assert deep.literal_count() == circuit.literal_count()
        clone = pickle.loads(pickle.dumps(circuit))
        assert isinstance(clone, Circuit)
        assert clone.literal_count() == circuit.literal_count()
        assert clone.describe() == circuit.describe()

    def test_spec_pickles_without_the_parsed_stg(self):
        spec = Spec.from_benchmark("sequencer")
        _ = spec.stg
        payload = pickle.dumps(spec)
        assert b"PetriNet" not in payload  # only the canonical text travels
        assert pickle.loads(payload).content_hash == spec.content_hash
