"""Tests of the state-based oracle engine (regions, coding, next-state)."""

from __future__ import annotations

import pytest

from repro.benchmarks.classic import load_classic
from repro.statebased.coding import analyze_state_coding, check_csc, check_usc
from repro.statebased.nextstate import next_state_function, next_state_functions
from repro.statebased.regions import compute_signal_regions, state_space
from repro.statebased.synthesis import StateBasedSynthesisError, synthesize_state_based
from repro.stg.encoding import encode_reachability_graph


class TestRegions:
    def test_fig1_excitation_regions(self, fig1):
        regions = compute_signal_regions(fig1)
        assert len(regions.er("d-")) == 1
        assert len(regions.er("d+/1")) == 1
        assert len(regions.er("a+")) == 1
        # ER and QR of the same transition are disjoint
        for transition in fig1.transitions:
            assert not (regions.er(transition) & regions.qr(transition))

    def test_generalized_regions_partition_next_state(self, fig1):
        regions = compute_signal_regions(fig1)
        encoded = regions.encoded
        for signal in fig1.non_input_signals:
            on = regions.ger(signal, "+") | regions.gqr(signal, 1)
            off = regions.ger(signal, "-") | regions.gqr(signal, 0)
            assert not (on & off)
            assert on | off == set(encoded.markings)

    def test_restricted_quiescent_regions(self, fig1):
        regions = compute_signal_regions(fig1)
        shared = regions.qr("d+/1") & regions.qr("d+/2")
        assert regions.rqr("d+/1") == regions.qr("d+/1") - shared

    def test_backward_regions_precede_excitation(self, fig1):
        regions = compute_signal_regions(fig1)
        backward = regions.br("d+/1")
        assert backward
        assert not (backward & regions.er("d+/1"))


class TestCoding:
    def test_fig1_violates_usc_but_satisfies_csc(self, fig1):
        assert not check_usc(fig1)
        assert check_csc(fig1)

    def test_fig5_violates_csc_and_fig6_fixes_it(self, fig5, fig6):
        assert not check_csc(fig5)
        assert check_csc(fig6)

    def test_latch_ctrl_csc_conflict_details(self):
        stg = load_classic("latch_ctrl")
        report = analyze_state_coding(stg)
        assert not report.satisfies_csc
        assert all(conflict.is_csc_conflict for conflict in report.csc_conflicts)


class TestNextStateFunctions:
    def test_functions_are_consistent_and_complete(self, fig1):
        functions = next_state_functions(fig1)
        assert set(functions) == {"c", "d"}
        for function in functions.values():
            assert function.is_consistent()
            assert function.is_complete()

    def test_values_match_region_membership(self, fig1):
        regions = compute_signal_regions(fig1)
        encoded = regions.encoded
        function = next_state_function(fig1, "d", regions)
        for marking in encoded.markings:
            code = encoded.code_of(marking)
            value = function.evaluate(code)
            if marking in regions.ger("d", "+") | regions.gqr("d", 1):
                assert value == 1
            elif marking in regions.ger("d", "-") | regions.gqr("d", 0):
                assert value == 0


class TestStateBasedSynthesis:
    def test_fig1_synthesis_produces_expected_gates(self, fig1):
        circuit = synthesize_state_based(fig1, state_space(fig1))
        assert set(circuit.signals) == {"c", "d"}
        # the running example collapses to simple combinational gates
        assert circuit.literal_count() <= 8

    def test_csc_violation_rejected(self, fig5):
        with pytest.raises(StateBasedSynthesisError):
            synthesize_state_based(fig5, state_space(fig5))

    def test_internal_signal_makes_fig6_synthesizable(self, fig6):
        circuit = synthesize_state_based(fig6, state_space(fig6))
        assert set(circuit.signals) == {"y", "s"}

    def test_circuit_behaviour_matches_specification(self, glatch3):
        regions = state_space(glatch3)
        circuit = synthesize_state_based(glatch3, regions)
        encoded = encode_reachability_graph(glatch3)
        from repro.statebased.nextstate import next_state_value

        for marking in encoded.markings:
            code = encoded.code_of(marking)
            for signal in glatch3.non_input_signals:
                implied = next_state_value(glatch3, regions, signal, marking)
                if implied is not None:
                    assert circuit.next_value(signal, code) == implied
