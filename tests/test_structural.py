"""Tests of the structural engine, cross-checked against the state-based oracle."""

from __future__ import annotations

import pytest

from repro.benchmarks.classic import classic_names, load_classic
from repro.benchmarks.figures import fig7_glatch_stg
from repro.benchmarks.registry import get_benchmark
from repro.benchmarks.scalable import muller_pipeline
from repro.corpus.generator import generate_spec
from repro.petri.properties import is_free_choice, is_live, is_safe
from repro.petri.reachability import StateSpaceLimitExceeded, build_reachability_graph
from repro.petri.smcover import compute_sm_components, compute_sm_cover
from repro.statebased.coding import analyze_state_coding
from repro.statebased.regions import compute_signal_regions
from repro.stg.consistency import adjacent_transition_pairs, check_consistency_state_based
from repro.stg.encoding import encode_reachability_graph, infer_initial_values
from repro.structural.adjacency import (
    forward_reduction,
    structural_next_relation,
    structural_next_relation_checked,
)
from repro.structural.approximation import approximate_signal_regions
from repro.structural.concurrency import (
    compute_concurrency_relation,
    concurrency_from_reachability,
)
from repro.structural.conflicts import find_structural_conflicts
from repro.structural.consistency import check_consistency_structural
from repro.structural.covercube import compute_cover_cubes, structural_initial_values
from repro.structural.csc import check_csc_structural
from repro.structural.qps import compute_qps
from repro.structural.refinement import refine_cover_functions

ORACLE_NAMES = classic_names(synthesizable_only=True) + ["latch_ctrl"]
#: every classic and figure spec
CLASSIC_AND_FIGURES = classic_names() + ["fig1", "fig5", "fig6", "glatch_3"]
#: the indices i < 80 of ``generate_spec(3, i)`` whose net is live, safe and
#: free-choice (the paper's hypothesis) within 2000 markings
CORPUS_IN_HYPOTHESIS = (
    5, 7, 9, 13, 14, 19, 23, 24, 26, 28, 29, 33,
    41, 42, 50, 51, 52, 56, 57, 61, 62, 63, 75, 76,
)


def _oracle_stgs():
    for name in ORACLE_NAMES:
        yield name, load_classic(name)


def _in_hypothesis(stg) -> bool:
    """Live, safe and free-choice, with at most 2000 reachable markings."""
    try:
        graph = build_reachability_graph(stg.net, max_markings=2000)
    except StateSpaceLimitExceeded:
        return False
    return is_free_choice(stg.net) and is_live(stg.net, graph) and is_safe(stg.net, graph)


def _check_sufficient_conditions(stg) -> None:
    """Property 5 adds only successors the state graph has, and the
    consistency verdict with it agrees with the state-based one."""
    relation = compute_concurrency_relation(stg)
    necessary = structural_next_relation(stg, relation)
    checked = structural_next_relation_checked(stg, relation)
    oracle = adjacent_transition_pairs(stg)
    for transition, successors in checked.items():
        added = successors - necessary[transition]
        assert added <= oracle.get(transition, set()), (transition, added)
    report = check_consistency_structural(stg, relation, use_sufficient_conditions=True)
    state_based = check_consistency_state_based(stg, check_semimodularity=False)
    assert report.consistent == state_based.consistent


class TestConcurrencyRelation:
    @pytest.mark.parametrize("name", ORACLE_NAMES)
    def test_matches_reachability_oracle_on_free_choice(self, name):
        stg = load_classic(name)
        structural = compute_concurrency_relation(stg)
        oracle = concurrency_from_reachability(stg)
        # exact for live and safe free-choice STGs
        assert structural.pairs() == oracle.pairs()

    def test_fig1_signal_concurrency(self, fig1):
        relation = compute_concurrency_relation(fig1)
        # mode-B fork: c+/2 and d+/2 run concurrently
        assert relation.are_concurrent("c+/2", "d+/2")
        # mode-A is sequential
        assert not relation.are_concurrent("c+", "d+/1")
        assert relation.node_concurrent_with_signal("pb1", "d")
        assert not relation.node_concurrent_with_signal("pa1", "d")

    def test_glatch_concurrency_scales(self):
        stg = fig7_glatch_stg(4)
        relation = compute_concurrency_relation(stg)
        oracle = concurrency_from_reachability(stg)
        assert relation.pairs() == oracle.pairs()


class TestStructuralConsistency:
    @pytest.mark.parametrize("name", ORACLE_NAMES)
    def test_agrees_with_state_based_check(self, name):
        stg = load_classic(name)
        structural = check_consistency_structural(stg)
        state_based = check_consistency_state_based(stg, check_semimodularity=False)
        assert structural.consistent == state_based.consistent

    @pytest.mark.parametrize("name", CLASSIC_AND_FIGURES)
    def test_next_relation_is_a_safe_over_approximation(self, name):
        stg = get_benchmark(name)
        relation = compute_concurrency_relation(stg)
        structural = structural_next_relation(stg, relation)
        oracle = adjacent_transition_pairs(stg)
        for transition, successors in oracle.items():
            assert successors <= structural[transition], transition

    @pytest.mark.parametrize("name", CLASSIC_AND_FIGURES)
    def test_sufficient_conditions_add_only_behavioural_successors(self, name):
        """Property 5 never reports a successor the state graph does not have."""
        _check_sufficient_conditions(get_benchmark(name))

    @pytest.mark.parametrize("index", CORPUS_IN_HYPOTHESIS)
    def test_sufficient_conditions_on_corpus_specs(self, index):
        """The same on generated specs inside the paper's hypothesis."""
        stg = generate_spec(3, index).spec.stg
        assert _in_hypothesis(stg)
        _check_sufficient_conditions(stg)

    def test_corpus_specs_in_hypothesis_are_pinned(self):
        """``CORPUS_IN_HYPOTHESIS`` is every such spec among the first 80."""
        selected = [i for i in range(80) if _in_hypothesis(generate_spec(3, i).spec.stg)]
        assert selected == list(CORPUS_IN_HYPOTHESIS)

    def test_autoconcurrency_detected(self):
        # two concurrent transitions of the same signal
        from repro.stg.parser import parse_g

        source = """
.model auto
.inputs a
.outputs x
.graph
a+ x+/1 x+/2
x+/1 a-
x+/2 a-
a- x-/1
x-/1 a+
.marking { <x-/1,a+> }
.end
"""
        stg = parse_g(source)
        report = check_consistency_structural(stg)
        assert not report.consistent
        assert report.autoconcurrent_transitions

    def test_forward_reduction_removes_dependent_nodes(self, fig1):
        reduced = forward_reduction(fig1.net, {"a+"})
        # everything that can only be reached through a+ disappears
        assert not reduced.is_transition("a+")
        assert not reduced.is_place("pa1")
        # the initially marked choice place stays
        assert reduced.is_place("p0")


class TestCoverCubes:
    def test_structural_initial_values(self, fig1):
        structural = structural_initial_values(fig1)
        oracle = infer_initial_values(fig1)
        assert structural == oracle

    @pytest.mark.parametrize("name", ORACLE_NAMES)
    def test_cubes_cover_their_marked_regions(self, name):
        """Lemma 10 safety: every marking of MR(p) is covered by c_p."""
        stg = load_classic(name)
        relation = compute_concurrency_relation(stg)
        cubes = compute_cover_cubes(stg, relation)
        encoded = encode_reachability_graph(stg)
        for marking in encoded.markings:
            code = encoded.code_of(marking)
            for place in marking.marked_places:
                assert cubes[place].covers_vertex(code), (place, marking)

    def test_fig1_cubes_are_tight(self, fig1):
        relation = compute_concurrency_relation(fig1)
        cubes = compute_cover_cubes(fig1, relation)
        order = fig1.signal_names
        assert cubes["pa1"].to_string(order) == "1000"
        assert cubes["pa3"].to_string(order) == "1011"
        assert cubes["pm"].to_string(order) == "0001"
        # places of the concurrent mode-B branch leave the other branch's
        # signal unconstrained
        assert cubes["pb1"].to_string(order) == "010-"

    def test_glatch_er_cubes_are_exact(self):
        """Section IV: the cover cubes of the generalized C-latch are exact."""
        stg = fig7_glatch_stg(3)
        approximation = approximate_signal_regions(stg)
        encoded = encode_reachability_graph(stg)
        regions = compute_signal_regions(stg, encoded)
        for transition in stg.transitions:
            exact = regions.er_codes(transition)
            approx = approximation.er_cover(transition)
            assert approx.contains_cover(exact)
            assert exact.contains_cover(approx.sharp(regions.dc_codes()))


class TestRegionApproximations:
    # Quiescent-region safety relies on CSC (the approximation subtracts the
    # successor excitation codes), so the CSC-violating benchmark is excluded.
    @pytest.mark.parametrize("name", classic_names(synthesizable_only=True))
    def test_er_and_qr_covers_are_safe_over_approximations(self, name):
        stg = load_classic(name)
        approximation = approximate_signal_regions(stg)
        encoded = encode_reachability_graph(stg)
        regions = compute_signal_regions(stg, encoded)
        for transition in stg.transitions:
            assert approximation.er_cover(transition).contains_cover(
                regions.er_codes(transition)
            ), f"ER({transition}) underestimated"
        for signal in stg.non_input_signals:
            for value in (0, 1):
                exact = regions.gqr_codes(signal, value)
                approx = approximation.gqr_cover(signal, value)
                assert approx.contains_cover(exact), f"GQR({signal}={value}) underestimated"

    def test_qps_domain_of_fig1(self, fig1):
        relation = compute_concurrency_relation(fig1)
        next_relation = structural_next_relation(fig1, relation)
        qps = compute_qps(fig1, next_relation=next_relation)
        # the quiescent place set of d+/1 reaches up to (and including) the
        # merge place feeding d-
        assert "pa3" in qps["d+/1"]
        assert "pm" in qps["d+/1"]
        # places of the other mode are not part of it
        assert "pb1" not in qps["d+/1"]


class TestConflictsRefinementCSC:
    def test_fig1_conflicts_reflect_the_usc_violation(self, fig1):
        approximation = approximate_signal_regions(fig1)
        sm_cover = compute_sm_cover(fig1.net, compute_sm_components(fig1.net))
        conflicts = find_structural_conflicts(
            fig1, approximation.cover_functions, sm_cover
        )
        conflicting = {place for c in conflicts for place in c.places}
        assert {"pa4", "pb5"} <= conflicting

    @pytest.mark.parametrize("name", ORACLE_NAMES)
    def test_structural_csc_never_accepts_a_real_violation(self, name):
        stg = load_classic(name)
        approximation = approximate_signal_regions(stg)
        relation = approximation.concurrency
        sm_cover = compute_sm_cover(stg.net, compute_sm_components(stg.net))
        refinement = refine_cover_functions(
            stg, approximation.cover_functions, sm_cover, relation
        )
        report = check_csc_structural(stg, refinement.cover_functions, sm_cover)
        oracle = analyze_state_coding(stg)
        if report.satisfied:
            assert oracle.satisfies_csc, (
                f"{name}: structural check certified CSC but the oracle found "
                f"{len(oracle.csc_conflicts)} conflicts"
            )

    def test_refinement_removes_fake_conflicts_on_pipeline(self):
        stg = muller_pipeline(2)
        approximation = approximate_signal_regions(stg)
        sm_cover = compute_sm_cover(stg.net, compute_sm_components(stg.net))
        refinement = refine_cover_functions(
            stg, approximation.cover_functions, sm_cover, approximation.concurrency
        )
        assert refinement.conflict_free
        report = check_csc_structural(stg, refinement.cover_functions, sm_cover)
        assert report.satisfied

    def test_same_event_sharing_has_no_switch(self, fig1):
        approximation = approximate_signal_regions(fig1)
        sm_cover = compute_sm_cover(fig1.net, compute_sm_components(fig1.net))
        with pytest.raises(TypeError):
            check_csc_structural(
                fig1, approximation.cover_functions, sm_cover,
                allow_same_event_sharing=False,
            )
