"""Tests of the STG layer: labels, the .g parser/writer, encoding, consistency."""

from __future__ import annotations

import pytest

from repro.benchmarks.classic import CLASSIC_SOURCES, load_classic
from repro.petri.reachability import build_reachability_graph
from repro.stg.consistency import adjacent_transition_pairs, check_consistency_state_based
from repro.stg.encoding import EncodingError, encode_reachability_graph, infer_initial_values
from repro.stg.parser import GFormatError, parse_g
from repro.stg.signals import SignalTransition, SignalType, parse_transition_label
from repro.stg.stg import STG
from repro.stg.writer import write_g


class TestSignalLabels:
    def test_parse_simple_labels(self):
        assert parse_transition_label("a+") == SignalTransition("a", "+", 0)
        assert parse_transition_label("ack-") == SignalTransition("ack", "-", 0)
        assert parse_transition_label("x+/2") == SignalTransition("x", "+", 2)

    def test_dummy_label(self):
        assert parse_transition_label("eps").direction == "~"

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            parse_transition_label("+a")

    def test_target_and_source_values(self):
        rising = parse_transition_label("a+")
        assert rising.target_value == 1 and rising.source_value == 0
        falling = parse_transition_label("a-")
        assert falling.target_value == 0 and falling.source_value == 1

    def test_names_roundtrip(self):
        assert parse_transition_label("q-/3").name() == "q-/3"

    def test_signal_type_roles(self):
        assert SignalType.OUTPUT.is_controlled_by_circuit
        assert SignalType.INTERNAL.is_controlled_by_circuit
        assert not SignalType.INPUT.is_controlled_by_circuit


class TestSTGConstruction:
    def test_from_edges_builds_implicit_places(self, fig1):
        assert "<a+,pa1>" not in fig1.places  # explicit place names are kept
        assert fig1.net.is_place("p0")
        assert set(fig1.input_signals) == {"a", "b"}
        assert set(fig1.output_signals) == {"c", "d"}
        assert fig1.rising_transitions("d") == ["d+/1", "d+/2"]
        assert fig1.falling_transitions("d") == ["d-"]

    def test_transition_to_transition_arc_inserts_place(self):
        stg = STG("tiny")
        stg.add_signal("a", SignalType.INPUT)
        stg.add_signal("b", SignalType.OUTPUT)
        stg.add_transition("a+")
        stg.add_transition("b+")
        stg.add_arc("a+", "b+")
        assert stg.net.is_place("<a+,b+>")

    @pytest.mark.parametrize("name", sorted(CLASSIC_SOURCES))
    def test_signal_index_matches_a_label_scan(self, name):
        stg = load_classic(name)
        labels = {t: stg.label(t) for t in stg.transitions}
        for signal in stg.signal_names + ["absent"]:
            assert stg.transitions_of_signal(signal) == [
                t for t, lab in labels.items() if lab.signal == signal
            ]
            for direction in "+-~":
                assert stg.transitions_by_direction(signal, direction) == [
                    t for t, lab in labels.items()
                    if lab.signal == signal and lab.direction == direction
                ]
            assert stg.rising_transitions(signal) == stg.transitions_by_direction(signal, "+")
            assert stg.falling_transitions(signal) == stg.transitions_by_direction(signal, "-")

    def test_signal_index_follows_label_changes(self, fig1):
        stg = fig1.copy()
        signal = stg.signal_names[0]
        before = stg.transitions_of_signal(signal)
        stg.add_transition(f"{signal}+/9")
        assert stg.transitions_of_signal(signal) == before + [f"{signal}+/9"]
        stg.remove_labels([f"{signal}+/9", before[0]])
        assert stg.transitions_of_signal(signal) == before[1:]
        assert fig1.transitions_of_signal(signal) == before
        # callers get copies: mutating one leaves the index alone
        stg.transitions_of_signal(signal).clear()
        assert stg.transitions_of_signal(signal) == before[1:]

    def test_copy_is_independent(self, fig1):
        clone = fig1.copy("clone")
        clone.set_initial_value("a", 1)
        assert fig1.initial_values["a"] == 0


class TestGFormat:
    @pytest.mark.parametrize("name", sorted(CLASSIC_SOURCES))
    def test_parse_all_classic_sources(self, name):
        stg = load_classic(name)
        assert stg.net.num_places() > 0
        assert stg.net.num_transitions() > 0
        assert stg.initial_marking.total_tokens() >= 1

    @pytest.mark.parametrize("name", sorted(CLASSIC_SOURCES))
    def test_writer_parser_roundtrip(self, name):
        original = load_classic(name)
        text = write_g(original)
        parsed = parse_g(text, name=name)
        assert set(parsed.signals) == set(original.signals)
        assert parsed.net.num_transitions() == original.net.num_transitions()
        assert parsed.net.num_places() == original.net.num_places()
        # behaviour is preserved: same number of reachable markings
        assert len(build_reachability_graph(parsed.net)) == len(
            build_reachability_graph(original.net)
        )

    def test_missing_graph_section_rejected(self):
        with pytest.raises(GFormatError):
            parse_g(".model x\n.inputs a\n.end\n")

    def test_unknown_marking_place_rejected(self):
        source = """
.model bad
.inputs a
.outputs b
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { nowhere }
.end
"""
        with pytest.raises(GFormatError):
            parse_g(source)

    def test_comments_and_blank_lines_ignored(self):
        source = """
# a comment
.model ok
.inputs a
.outputs b
.graph
a+ b+   # trailing comment
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
"""
        stg = parse_g(source)
        assert stg.name == "ok"
        assert stg.net.num_transitions() == 4


class TestEncoding:
    def test_initial_value_inference(self, fig1):
        values = infer_initial_values(fig1)
        assert values == {"a": 0, "b": 0, "c": 0, "d": 0}

    def test_codes_are_consistent(self, fig1):
        encoded = encode_reachability_graph(fig1)
        for marking in encoded.markings:
            code = encoded.code_of(marking)
            assert set(code) == set(fig1.signal_names)
            assert all(v in (0, 1) for v in code.values())

    def test_usc_conflict_of_fig1(self, fig1):
        encoded = encode_reachability_graph(fig1)
        assert len(encoded.used_codes()) < len(encoded.markings)

    def test_switchover_violation_detected(self):
        stg = STG("bad")
        stg.add_signal("a", SignalType.INPUT)
        stg.add_signal("b", SignalType.OUTPUT)
        for label in ["a+", "a-", "b+"]:
            stg.add_transition(label)
        # b+ fires twice in a row along the cycle a+ b+ a- (b never falls)
        stg.add_arc("a+", "b+")
        stg.add_arc("b+", "a-")
        stg.add_arc("a-", "a+")
        stg.set_marking(["<a-,a+>"])
        with pytest.raises(EncodingError):
            encode_reachability_graph(stg)


class TestStateBasedConsistency:
    def test_fig1_is_consistent_and_semimodular(self, fig1):
        report = check_consistency_state_based(fig1)
        assert report.consistent
        assert report.output_semimodular

    def test_adjacency_oracle(self, fig1):
        next_relation = adjacent_transition_pairs(fig1)
        assert next_relation["d+/1"] == {"d-"}
        assert next_relation["d-"] == {"d+/1", "d+/2"}
        assert next_relation["c+"] == {"c-/1"}

    def test_semimodularity_violation_detected(self):
        # an enabled output transition (x+) is disabled when the environment
        # chooses the other branch of the free choice (b+)
        source = """
.model nsm
.inputs b
.outputs x
.graph
p0 x+ b+
x+ x-
x- p0
b+ b-
b- p0
.marking { p0 }
.end
"""
        stg = parse_g(source)
        report = check_consistency_state_based(stg)
        assert report.consistent
        assert not report.output_semimodular
