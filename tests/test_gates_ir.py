"""Tests of the gate-level IR, the library matching, and netlist mapping."""

from __future__ import annotations

import itertools
import json

import pytest

from repro.api import Pipeline
from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.gates import (
    GateInstance,
    GateKind,
    GateLevelSimulator,
    GateLibrary,
    GateNetlist,
    LibraryCell,
    Net,
    NetlistError,
    SimulationError,
    default_library,
    get_library,
    latch_free_library,
    two_input_library,
)
from repro.synthesis import SynthesisOptions, map_circuit
from repro.synthesis.netlist import (
    Architecture,
    Circuit,
    combinational_implementation,
    latch_implementation,
)


def _cover(patterns, variables):
    return Cover.from_strings(patterns, variables)


class TestLibraryMatching:
    def test_cheapest_fit_tie_break_is_order_independent(self):
        a = LibraryCell("zcell", max_terms=2, max_literals_per_term=2,
                        max_total_literals=4, area=10)
        b = LibraryCell("acell", max_terms=2, max_literals_per_term=2,
                        max_total_literals=3, area=10)
        cover = _cover(["11-"], ("x", "y", "z"))
        forward = GateLibrary("f", cells=[a, b]).cheapest_fit(cover)
        backward = GateLibrary("b", cells=[b, a]).cheapest_fit(cover)
        # equal area: the smaller total-literal capacity wins, regardless of
        # declaration order
        assert forward.name == backward.name == "acell"

    def test_cheapest_fit_name_breaks_exact_ties(self):
        a = LibraryCell("beta", 1, 2, 2, 6)
        b = LibraryCell("alpha", 1, 2, 2, 6)
        cover = _cover(["11"], ("x", "y"))
        assert GateLibrary("l", cells=[a, b]).cheapest_fit(cover).name == "alpha"
        assert GateLibrary("l", cells=[b, a]).cheapest_fit(cover).name == "alpha"

    def test_widest_and(self):
        assert default_library().widest_and() == 4
        assert two_input_library().widest_and() == 2

    def test_wide_term_maps_to_decomposed_and_tree(self):
        library = default_library()
        variables = tuple("abcdefg")
        cover = Cover([Cube({v: 1 for v in variables})], variables)
        area, cells = library.map_cover(cover)
        # 7 literals: and4 + and3 joined by an and2 — a deterministic
        # structure whose area is the sum of the chosen cells
        assert cells == ["and4", "and3", "and2"]
        assert area == 10 + 8 + 6

    def test_split_cover_or_tree_area(self):
        library = default_library()
        variables = tuple("abcdefghij")
        # five product terms exceed every cell's term capacity: the cover is
        # split per term (and2 each) and joined by four 2-input ORs
        cubes = [
            Cube({variables[2 * i]: 1, variables[2 * i + 1]: 1}) for i in range(5)
        ]
        area, cells = library.map_cover(Cover(cubes, variables))
        assert cells.count("or2") == len(cubes) - 1
        assert cells.count("and2") == len(cubes)
        assert area == 5 * 6 + 4 * library.or2_area

    def test_degenerate_library_uses_wide_and_pseudo_cell(self):
        library = GateLibrary("inv-only", cells=[LibraryCell("inv", 1, 1, 1, 2)])
        cover = _cover(["111"], ("x", "y", "z"))
        area, cells = library.map_cover(cover)
        assert cells == ["wide-and3"]
        assert area == 2 * 3 + 2


class TestLibrarySerialization:
    def test_json_round_trip(self):
        library = default_library()
        clone = GateLibrary.from_json(library.to_json())
        assert clone == library

    def test_builtins_resolve_by_name(self):
        assert get_library("generic-cmos").name == "generic-cmos"
        assert get_library("two-input-only").name == "two-input-only"
        free = get_library("latch-free")
        assert free.name == "latch-free" and not free.allow_latch

    def test_unknown_library_raises(self):
        with pytest.raises(ValueError, match="unknown gate library"):
            get_library("no-such-library")

    def test_from_file(self, tmp_path):
        path = tmp_path / "lib.json"
        path.write_text(json.dumps(two_input_library().to_json()))
        assert get_library(str(path)) == two_input_library()


class TestNetlistValidation:
    def _simple(self):
        netlist = GateNetlist(
            name="t",
            inputs=("a",),
            outputs=("y",),
            nets={
                "a": Net("a", "input", signal="a"),
                "y": Net("y", "output", signal="y"),
            },
            gates=[
                GateInstance("g_y", "inv", GateKind.SOP, ("a",), "y", (((0, 0),),), 2)
            ],
        )
        return netlist

    def test_valid_netlist_passes(self):
        self._simple().validate()

    def test_undriven_output_is_rejected(self):
        netlist = self._simple()
        netlist.gates = []
        with pytest.raises(NetlistError, match="no driver"):
            netlist.validate()

    def test_double_driver_is_rejected(self):
        netlist = self._simple()
        netlist.gates.append(
            GateInstance("g2", "inv", GateKind.SOP, ("a",), "y", (((0, 1),),), 2)
        )
        with pytest.raises(NetlistError, match="multiple drivers"):
            netlist.validate()

    def test_internal_cycle_is_rejected(self):
        netlist = self._simple()
        netlist.nets["w1"] = Net("w1")
        netlist.nets["w2"] = Net("w2")
        netlist.gates = [
            GateInstance("g1", "inv", GateKind.SOP, ("w2",), "w1", (((0, 0),),), 2),
            GateInstance("g2", "inv", GateKind.SOP, ("w1",), "w2", (((0, 0),),), 2),
            GateInstance("g_y", "inv", GateKind.SOP, ("w1",), "y", (((0, 0),),), 2),
        ]
        with pytest.raises(NetlistError, match="cycle"):
            netlist.validate()

    def test_feedback_through_signal_nets_is_legal(self):
        # a C-element complex gate reads its own output: y = ab + y(a + b)
        variables = ("a", "b", "y")
        cover = Cover(
            [Cube({"a": 1, "b": 1}), Cube({"a": 1, "y": 1}), Cube({"b": 1, "y": 1})],
            variables,
        )
        circuit = Circuit(
            name="celem",
            implementations={"y": combinational_implementation("y", cover)},
            signal_order=variables,
        )
        mapped = map_circuit(circuit)
        mapped.netlist.validate()
        simulator = GateLevelSimulator(mapped.netlist)
        for bits in itertools.product((0, 1), repeat=3):
            code = dict(zip(variables, bits))
            assert simulator.settle(code)["y"] == circuit["y"].next_value(code)

    def test_json_round_trip(self):
        netlist = self._simple()
        clone = GateNetlist.from_json(netlist.to_json())
        assert clone == netlist

    def test_stats(self):
        stats = self._simple().stats()
        assert stats["gates"] == 1 and stats["latches"] == 0
        assert stats["cells"] == {"inv": 1}


class TestMappedStructures:
    def test_set_reset_latch_structure(self):
        variables = ("a", "b", "x")
        implementation = latch_implementation(
            "x",
            _cover(["11-"], variables),
            _cover(["00-"], variables),
        )
        circuit = Circuit("sr", {"x": implementation}, signal_order=variables)
        mapped = map_circuit(circuit)
        kinds = [gate.kind for gate in mapped.netlist.gates]
        assert kinds.count(GateKind.C_LATCH) == 1
        latch = mapped.netlist.drivers()["x"]
        assert latch.inputs == ("x__set", "x__reset")
        assert mapped.per_signal_area["x"] == 6 + 6 + 8  # two and2 + c-latch

    def test_gated_latch_collapse(self):
        variables = ("a", "b", "x")
        implementation = latch_implementation(
            "x",
            Cover([Cube({"a": 1, "b": 1})], variables),
            Cover([Cube({"a": 1, "b": 0})], variables),
            architecture=Architecture.GATED_LATCH,
        )
        circuit = Circuit("gl", {"x": implementation}, signal_order=variables)
        mapped = map_circuit(circuit)
        cells = mapped.cells_used["x"]
        assert "gated-latch" in cells and "c-latch" not in cells
        latch = mapped.netlist.drivers()["x"]
        assert latch.kind is GateKind.GATED_LATCH
        # data pin is b, positive polarity (the set cube's literal)
        assert latch.inputs[1] == "b"
        assert latch.terms == (((1, 1),),)
        simulator = GateLevelSimulator(mapped.netlist)
        for bits in itertools.product((0, 1), repeat=3):
            code = dict(zip(variables, bits))
            assert simulator.settle(code)["x"] == implementation.next_value(code)

    def test_gated_latch_literal_count_shares_set_reset_literals(self):
        # Appendix D: data input = shared part, control = differing literal
        variables = ("a", "b", "c", "x")
        implementation = latch_implementation(
            "x",
            Cover([Cube({"a": 1, "b": 0, "c": 1})], variables),
            Cover([Cube({"a": 1, "b": 0, "c": 0})], variables),
            architecture=Architecture.GATED_LATCH,
        )
        # two shared literals (a, b') + data + control
        assert implementation.literal_count() == 2 + 2
        mapped = map_circuit(Circuit("gl2", {"x": implementation}, signal_order=variables))
        latch = mapped.netlist.drivers()["x"]
        assert latch.kind is GateKind.GATED_LATCH
        enable = mapped.netlist.drivers()[latch.inputs[0]]
        # the enable cone computes the shared cube a b'
        assert enable.cell == "and2"
        simulator = GateLevelSimulator(mapped.netlist)
        for bits in itertools.product((0, 1), repeat=4):
            code = dict(zip(variables, bits))
            assert simulator.settle(code)["x"] == implementation.next_value(code)

    def test_gated_latch_negative_control_polarity(self):
        variables = ("a", "b", "x")
        implementation = latch_implementation(
            "x",
            Cover([Cube({"a": 1, "b": 0})], variables),
            Cover([Cube({"a": 1, "b": 1})], variables),
            architecture=Architecture.GATED_LATCH,
        )
        mapped = map_circuit(Circuit("gl3", {"x": implementation}, signal_order=variables))
        latch = mapped.netlist.drivers()["x"]
        assert latch.terms == (((1, 0),),)  # data pin consumed complemented
        simulator = GateLevelSimulator(mapped.netlist)
        for bits in itertools.product((0, 1), repeat=3):
            code = dict(zip(variables, bits))
            assert simulator.settle(code)["x"] == implementation.next_value(code)

    def test_er_one_hot_maps_one_gate_per_region(self):
        variables = ("a", "b", "x")
        rise_1 = Cover([Cube({"a": 1, "b": 0, "x": 0})], variables)
        rise_2 = Cover([Cube({"a": 0, "b": 1, "x": 0})], variables)
        fall = Cover([Cube({"a": 1, "b": 1, "x": 1})], variables)
        implementation = latch_implementation(
            "x",
            rise_1.union(rise_2),
            fall,
            architecture=Architecture.ER_ONE_HOT,
            region_covers={"x+/1": rise_1, "x+/2": rise_2, "x-": fall},
        )
        circuit = Circuit("er", {"x": implementation}, signal_order=variables)
        mapped = map_circuit(circuit)
        cells = mapped.cells_used["x"]
        # three region gates, one OR joining the two rising regions, a latch
        assert cells.count("c-latch") == 1
        assert cells.count("or2") == 1
        assert len([c for c in cells if c not in ("or2", "c-latch")]) == 3
        region_nets = [
            net for net in mapped.netlist.nets if "__er_" in net
        ]
        assert len(region_nets) == 3
        simulator = GateLevelSimulator(mapped.netlist)
        for bits in itertools.product((0, 1), repeat=3):
            code = dict(zip(variables, bits))
            assert simulator.settle(code)["x"] == implementation.next_value(code)

    def test_er_one_hot_from_engine_level_1(self, fig1):
        result = Pipeline().synthesize(fig1, SynthesisOptions(level=1))
        mapped = map_circuit(result.circuit)
        for implementation in result.circuit:
            assert implementation.architecture is Architecture.ER_ONE_HOT
            cells = mapped.cells_used[implementation.signal]
            region_gates = [c for c in cells if c not in ("or2", "c-latch")]
            assert len(region_gates) >= len(implementation.region_covers)

    def test_latch_free_library_has_no_memory_cells(self):
        variables = ("a", "b", "x")
        implementation = latch_implementation(
            "x", _cover(["11-"], variables), _cover(["00-"], variables)
        )
        circuit = Circuit("lf", {"x": implementation}, signal_order=variables)
        mapped = map_circuit(circuit, "latch-free")
        assert all(gate.kind is GateKind.SOP for gate in mapped.netlist.gates)
        simulator = GateLevelSimulator(mapped.netlist)
        # q = set + q * reset' agrees with the C-latch wherever the covers
        # are not simultaneously on
        for bits in itertools.product((0, 1), repeat=3):
            code = dict(zip(variables, bits))
            if code["a"] == 1 and code["b"] == 1:
                continue
            assert simulator.settle(code)["x"] == implementation.next_value(code)

    def test_two_input_library_uses_only_basic_cells(self, fig1):
        result = Pipeline().synthesize(fig1, SynthesisOptions(level=5))
        mapped = map_circuit(result.circuit, "two-input-only")
        allowed = {"inv", "and2", "or2", "c-latch", "gated-latch", "const0", "const1"}
        assert set(mapped.netlist.cell_histogram()) <= allowed

    def test_mapping_area_equals_netlist_area(self, fig1):
        result = Pipeline().synthesize(fig1, SynthesisOptions(level=5))
        mapped = map_circuit(result.circuit)
        assert mapped.total_area == mapped.netlist.total_area()
        assert mapped.total_area == sum(mapped.per_signal_area.values())


class TestSimulator:
    def test_missing_signal_raises(self):
        variables = ("a", "x")
        circuit = Circuit(
            "m",
            {"x": combinational_implementation("x", _cover(["1-"], variables))},
            signal_order=variables,
        )
        simulator = GateLevelSimulator(map_circuit(circuit).netlist)
        with pytest.raises(SimulationError, match="missing signal"):
            simulator.settle({"x": 0})
