"""The running example of the paper, end to end (Tables I–IV narrative).

The Fig. 1 STG of the paper is re-created (not copied — see DESIGN.md); these
tests walk the same story the paper tells about it: regions, cover cubes,
structural conflicts corresponding to a USC-but-not-CSC code sharing, and a
speed-independent implementation of the output signals.
"""

from __future__ import annotations

from repro.api import Pipeline, SynthesisOptions
from repro.petri.properties import is_free_choice, is_live, is_safe
from repro.petri.reachability import build_reachability_graph
from repro.petri.smcover import compute_sm_components, compute_sm_cover
from repro.statebased.coding import check_csc, check_usc
from repro.statebased.regions import compute_signal_regions
from repro.stg.consistency import check_consistency_state_based
from repro.structural.approximation import approximate_signal_regions
from repro.structural.consistency import check_consistency_structural
from repro.structural.covercube import cover_cube_table
from repro.verify import verify_speed_independence


class TestRunningExample:
    def test_specification_class(self, fig1):
        graph = build_reachability_graph(fig1.net)
        assert is_free_choice(fig1.net)
        assert is_safe(fig1.net, graph)
        assert is_live(fig1.net, graph)
        assert len(graph) == 11

    def test_consistency_both_ways(self, fig1):
        assert check_consistency_state_based(fig1).consistent
        assert check_consistency_structural(fig1).consistent

    def test_usc_conflict_but_csc_holds(self, fig1):
        """Section II-D: the example violates USC but satisfies CSC."""
        assert not check_usc(fig1)
        assert check_csc(fig1)

    def test_signal_regions_table(self, fig1):
        """Table I analogue: excitation/quiescent regions of output d."""
        regions = compute_signal_regions(fig1)
        assert len(fig1.rising_transitions("d")) == 2  # two rising ERs
        assert len(regions.er("d+/1")) == 1
        assert len(regions.er("d+/2")) == 2  # the concurrent c pulse doubles it
        assert len(regions.ger("d", "-")) == 1
        assert regions.gqr("d", 1)
        # ER(d-) is the single marking of the merge place
        er_minus = regions.er("d-")
        assert len(er_minus) == 1
        assert next(iter(er_minus)).marked_places == frozenset({"pm"})

    def test_cover_cube_table(self, fig1):
        """Table III analogue: single-cube approximations per place."""
        approximation = approximate_signal_regions(fig1)
        table = cover_cube_table(fig1, approximation.place_cubes)
        assert table["p0"] == "0000"
        assert table["pa2"] == "1010"
        assert table["pm"] == "0001"
        # concurrent branch places leave the concurrent signal unconstrained
        assert table["pb1"].count("-") == 1

    def test_sm_cover_exists(self, fig1):
        cover = compute_sm_cover(fig1.net, compute_sm_components(fig1.net))
        covered = set()
        for component in cover:
            covered |= component.places
        assert covered == set(fig1.places)

    def test_region_approximations_match_exact_regions(self, fig1):
        approximation = approximate_signal_regions(fig1)
        regions = compute_signal_regions(fig1)
        for transition in fig1.transitions_of_signal("d"):
            exact = regions.er_codes(transition)
            assert approximation.er_cover(transition).contains_cover(exact)

    def test_synthesis_and_verification(self, fig1):
        result = Pipeline().synthesize(fig1, SynthesisOptions(level=5))
        report = verify_speed_independence(fig1, result.circuit)
        assert report.speed_independent
        assert report.checked_markings == 11
        # the structural refinement records the certified CSC
        assert result.refinement.csc_certified
