"""End-to-end tests of the structural synthesis flow and the verifier."""

from __future__ import annotations

import pytest

from repro.benchmarks.classic import classic_names, load_classic
from repro.benchmarks.figures import fig7_glatch_stg
from repro.benchmarks.scalable import dining_philosophers, independent_cells, muller_pipeline
from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.statebased.synthesis import synthesize_state_based
from repro.synthesis import (
    Architecture,
    SynthesisError,
    SynthesisOptions,
    default_library,
    map_circuit,
    synthesize,
)
from repro.synthesis.netlist import latch_implementation
from repro.verify import verify_speed_independence

SYNTHESIZABLE = classic_names(synthesizable_only=True)


@pytest.mark.parametrize("field", ["check_consistency", "use_sufficient_adjacency"])
def test_options_have_one_flow_configuration(field):
    """Consistency is always checked, with the Property-4 adjacency."""
    with pytest.raises(TypeError):
        SynthesisOptions(**{field: False})


class TestStructuralSynthesis:
    @pytest.mark.parametrize("name", SYNTHESIZABLE)
    def test_classic_suite_is_synthesized_and_speed_independent(self, name):
        stg = load_classic(name)
        result = synthesize(stg, SynthesisOptions(level=5))
        report = verify_speed_independence(stg, result.circuit)
        assert report.speed_independent, report.functional_errors + report.hazard_errors

    @pytest.mark.parametrize("name", SYNTHESIZABLE)
    def test_quality_close_to_state_based_baseline(self, name):
        stg = load_classic(name)
        structural = synthesize(stg, SynthesisOptions(level=5))
        baseline = synthesize_state_based(stg)
        assert structural.circuit.literal_count() <= 3 * max(
            baseline.circuit.literal_count(), 1
        )

    def test_fig1_running_example(self, fig1):
        result = synthesize(fig1, SynthesisOptions(level=5))
        circuit = result.circuit
        assert set(circuit.signals) == {"c", "d"}
        assert verify_speed_independence(fig1, circuit).speed_independent
        # the running example reduces to two small combinational gates
        assert circuit.literal_count() <= 6

    def test_glatch_produces_c_element(self):
        stg = fig7_glatch_stg(3)
        result = synthesize(stg, SynthesisOptions(level=5))
        y = result.circuit["y"]
        # y turns on exactly when all inputs are high (C-element set
        # condition) — either as a latch or as a complex gate with feedback
        assert y.set_cover.covers_vertex({"x0": 1, "x1": 1, "x2": 1, "y": 0})
        assert not y.set_cover.covers_vertex({"x0": 1, "x1": 0, "x2": 0, "y": 0})
        assert verify_speed_independence(stg, result.circuit).speed_independent

    def test_csc_violation_is_rejected_without_override(self):
        stg = load_classic("latch_ctrl")
        with pytest.raises(SynthesisError):
            synthesize(stg)

    def test_minimization_levels_never_increase_cost(self, fig1):
        costs = []
        for level in range(1, 6):
            result = synthesize(fig1, SynthesisOptions(level=level))
            costs.append(result.circuit.literal_count())
        assert all(later <= earlier for earlier, later in zip(costs, costs[1:]))

    def test_level1_uses_per_region_architecture(self, fig1):
        result = synthesize(fig1, SynthesisOptions(level=1))
        for implementation in result.circuit:
            assert implementation.architecture is Architecture.ER_ONE_HOT
            assert implementation.region_covers

    def test_scalable_families_synthesize_structurally(self):
        for stg in [muller_pipeline(6), independent_cells(6), dining_philosophers(3)]:
            result = synthesize(stg, SynthesisOptions(level=3, assume_csc=True))
            assert result.circuit.literal_count() > 0
            report = verify_speed_independence(stg, result.circuit)
            assert report.speed_independent, stg.name

    def test_statistics_are_reported(self, fig1):
        result = synthesize(fig1, SynthesisOptions(level=5))
        assert result.statistics["csc_certified"] is True
        assert result.statistics["sm_cover"] >= 1
        assert result.statistics["analysis_seconds"] >= 0


class TestNetlistAndMapping:
    def test_latch_hold_semantics(self):
        variables = ("a", "x")
        implementation = latch_implementation(
            "x",
            Cover([Cube({"a": 1})], variables),
            Cover([Cube({"a": 0})], variables),
        )
        assert implementation.next_value({"a": 1, "x": 0}) == 1
        assert implementation.next_value({"a": 0, "x": 1}) == 0

    def test_gated_latch_cost_shares_common_literals(self):
        variables = ("a", "b", "x")
        implementation = latch_implementation(
            "x",
            Cover([Cube({"a": 1, "b": 1})], variables),
            Cover([Cube({"a": 1, "b": 0})], variables),
            architecture=Architecture.GATED_LATCH,
        )
        assert implementation.literal_count() == 3  # common 'a' + data/control

    def test_library_mapping_costs(self, fig1):
        result = synthesize(fig1, SynthesisOptions(level=5))
        mapped = map_circuit(result.circuit, default_library())
        assert mapped.total_area > 0
        assert set(mapped.per_signal_area) == set(result.circuit.signals)
        # mapping never loses signals and reports at least one cell per signal
        assert all(mapped.cells_used[s] for s in result.circuit.signals)

    def test_circuit_describe_mentions_every_signal(self, fig1):
        result = synthesize(fig1, SynthesisOptions(level=5))
        text = result.circuit.describe()
        for signal in result.circuit.signals:
            assert signal in text


class TestVerifierCatchesBadCircuits:
    def test_wrong_polarity_is_detected(self, fig1):
        result = synthesize(fig1, SynthesisOptions(level=5))
        circuit = result.circuit
        good = circuit["c"]
        broken = latch_implementation(
            "c",
            good.reset_cover if good.uses_latch else good.set_cover.complement(),
            good.set_cover,
        )
        circuit.implementations["c"] = broken
        report = verify_speed_independence(fig1, circuit)
        assert not report.speed_independent

    def test_non_monotonic_cover_is_detected(self):
        stg = fig7_glatch_stg(2)
        # at level 2 y is a latch: set x0 x1, reset x0' x1' (at higher
        # levels it is implemented combinationally)
        result = synthesize(stg, SynthesisOptions(level=2))
        circuit = result.circuit
        y = circuit["y"]
        assert y.uses_latch
        variables = tuple(stg.signal_names)
        # a set cover that also covers part of the falling quiescent region
        glitchy = Cover(y.set_cover.cubes + [Cube({"x0": 1, "x1": 0, "y": 0})], variables)
        circuit.implementations["y"] = latch_implementation("y", glitchy, y.reset_cover)
        report = verify_speed_independence(stg, circuit)
        assert not report.speed_independent
        # the extra cube sets y where the specification holds it at 0
        assert report.functional_errors
        assert all(error.startswith("signal y:") for error in report.functional_errors)
