"""Tests of the Petri-net kernel: structure, firing, properties, SM-covers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.petri.invariants import place_invariants
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.properties import (
    is_free_choice,
    is_live,
    is_marked_graph,
    is_safe,
    is_state_machine,
    redundant_places,
)
from repro.petri.reachability import (
    StateSpaceLimitExceeded,
    build_reachability_graph,
    concurrent_pairs_from_rg,
    count_reachable_markings,
)
from repro.petri.smcover import compute_sm_components, compute_sm_cover, is_sm_component


def simple_cycle(length: int = 3) -> PetriNet:
    """p0 -> t0 -> p1 -> t1 -> ... -> p0, one token."""
    net = PetriNet("cycle")
    for i in range(length):
        net.add_place(f"p{i}", tokens=1 if i == 0 else 0)
        net.add_transition(f"t{i}")
    for i in range(length):
        net.add_arc(f"p{i}", f"t{i}")
        net.add_arc(f"t{i}", f"p{(i + 1) % length}")
    return net


def fork_join() -> PetriNet:
    """A marked graph with a fork into two branches and a join."""
    net = PetriNet("forkjoin")
    for name in ["p0", "pa", "pb", "pa2", "pb2", "pend"]:
        net.add_place(name)
    net.set_initial_tokens("p0", 1)
    for name in ["fork", "ta", "tb", "join", "loop"]:
        net.add_transition(name)
    net.add_arc("p0", "fork")
    net.add_arc("fork", "pa")
    net.add_arc("fork", "pb")
    net.add_arc("pa", "ta")
    net.add_arc("pb", "tb")
    net.add_arc("ta", "pa2")
    net.add_arc("tb", "pb2")
    net.add_arc("pa2", "join")
    net.add_arc("pb2", "join")
    net.add_arc("join", "pend")
    net.add_arc("pend", "loop")
    net.add_arc("loop", "p0")
    return net


class TestNetStructure:
    def test_node_management(self):
        net = simple_cycle()
        assert net.num_places() == 3
        assert net.num_transitions() == 3
        assert net.preset("t0") == frozenset({"p0"})
        assert net.postset("t0") == frozenset({"p1"})
        assert net.is_place("p0") and net.is_transition("t1")

    def test_duplicate_node_names_rejected(self):
        net = PetriNet()
        net.add_place("x")
        with pytest.raises(ValueError):
            net.add_transition("x")

    def test_arc_must_be_bipartite(self):
        net = PetriNet()
        net.add_place("p")
        net.add_place("q")
        with pytest.raises(ValueError):
            net.add_arc("p", "q")

    def test_copy_and_subnet(self):
        net = fork_join()
        clone = net.copy()
        assert set(clone.places) == set(net.places)
        assert clone.initial_marking == net.initial_marking
        sub = net.subnet(["p0", "fork", "pa"])
        assert set(sub.places) == {"p0", "pa"}
        assert sub.preset("fork") == frozenset({"p0"})


class TestFiring:
    def test_enabling_and_firing(self):
        net = simple_cycle()
        marking = net.initial_marking
        assert net.is_enabled("t0", marking)
        assert not net.is_enabled("t1", marking)
        after = net.fire("t0", marking)
        assert after["p1"] == 1 and after["p0"] == 0

    def test_firing_disabled_transition_raises(self):
        net = simple_cycle()
        with pytest.raises(ValueError):
            net.fire("t1", net.initial_marking)

    def test_marking_is_hashable_and_compact(self):
        marking = Marking({"p": 1, "q": 0})
        assert "q" not in marking
        assert hash(marking) == hash(Marking(["p"]))


class TestReachability:
    def test_cycle_has_length_many_markings(self):
        graph = build_reachability_graph(simple_cycle(4))
        assert len(graph) == 4
        assert graph.is_strongly_connected()

    def test_fork_join_concurrency(self):
        graph = build_reachability_graph(fork_join())
        pairs = concurrent_pairs_from_rg(graph)
        assert frozenset(("ta", "tb")) in pairs

    def test_marking_limit(self):
        with pytest.raises(StateSpaceLimitExceeded):
            build_reachability_graph(fork_join(), max_markings=2)

    def test_count_matches_graph(self):
        net = fork_join()
        assert count_reachable_markings(net) == len(build_reachability_graph(net))


class TestProperties:
    def test_structural_classes(self):
        cycle = simple_cycle()
        assert is_state_machine(cycle)
        assert is_marked_graph(cycle)
        assert is_free_choice(cycle)
        fj = fork_join()
        assert is_marked_graph(fj)
        assert not is_state_machine(fj)
        assert is_free_choice(fj)

    def test_behavioural_properties(self):
        net = fork_join()
        graph = build_reachability_graph(net)
        assert is_safe(net, graph)
        assert is_live(net, graph)
        assert redundant_places(net, graph) == []

    def test_redundant_place_detected(self):
        net = simple_cycle()
        # a place marked with a token that is never required
        net.add_place("extra", tokens=1)
        net.add_arc("t0", "extra")
        net.add_arc("extra", "t1")
        graph = build_reachability_graph(net)
        # "extra" mirrors p1, so one of them never constrains enabling
        assert "extra" in redundant_places(net, graph) or "p1" in redundant_places(net, graph)

    def test_non_live_net_detected(self):
        net = PetriNet()
        net.add_place("p", tokens=1)
        net.add_place("q")
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "q")
        graph = build_reachability_graph(net)
        assert not is_live(net, graph)


class TestInvariantsAndSMCover:
    def test_cycle_invariant(self):
        net = simple_cycle()
        invariants = place_invariants(net)
        assert any(set(inv) == {"p0", "p1", "p2"} for inv in invariants)
        marking = net.initial_marking
        for invariant in invariants:
            # the weighted initial token count, preserved by every firing
            assert sum(w * marking[p] for p, w in invariant.items()) == 1

    def test_sm_components_of_fork_join(self):
        net = fork_join()
        components = compute_sm_components(net)
        assert components, "a marked graph must have cycle SM-components"
        for component in components:
            assert is_sm_component(net, component.places)
        cover = compute_sm_cover(net, components)
        covered = set()
        for component in cover:
            covered |= component.places
        assert covered == set(net.places)

    def test_sm_cover_of_choice_net(self):
        net = PetriNet("choice")
        net.add_place("p", tokens=1)
        net.add_place("qa")
        net.add_place("qb")
        for t in ["a", "b", "ra", "rb"]:
            net.add_transition(t)
        net.add_arc("p", "a")
        net.add_arc("p", "b")
        net.add_arc("a", "qa")
        net.add_arc("b", "qb")
        net.add_arc("qa", "ra")
        net.add_arc("qb", "rb")
        net.add_arc("ra", "p")
        net.add_arc("rb", "p")
        cover = compute_sm_cover(net)
        covered = set()
        for component in cover:
            covered |= component.places
        assert covered == {"p", "qa", "qb"}


@st.composite
def random_marked_graph(draw):
    """A random strongly connected marked graph made of fused cycles."""
    length = draw(st.integers(min_value=2, max_value=5))
    extra = draw(st.integers(min_value=0, max_value=2))
    net = PetriNet("random_mg")
    for i in range(length):
        net.add_place(f"p{i}", tokens=1 if i == 0 else 0)
        net.add_transition(f"t{i}")
        net.add_arc(f"p{i}", f"t{i}")
    for i in range(length):
        net.add_arc(f"t{i}", f"p{(i + 1) % length}")
    # add chords: extra place from t_i back to t_j's input
    for k in range(extra):
        source = draw(st.integers(min_value=0, max_value=length - 1))
        target = draw(st.integers(min_value=0, max_value=length - 1))
        name = f"chord{k}"
        tokens = 1 if target <= source else 0
        net.add_place(name, tokens=tokens)
        net.add_arc(f"t{source}", name)
        net.add_arc(name, f"t{target}")
    return net


class TestRandomNets:
    @given(random_marked_graph())
    @settings(max_examples=25, deadline=None)
    def test_firing_preserves_token_count_on_cycles(self, net):
        graph = build_reachability_graph(net, max_markings=2000)
        invariants = place_invariants(net)
        initial = net.initial_marking
        for invariant in invariants:
            expected = sum(initial[p] * w for p, w in invariant.items())
            for marking in graph:
                observed = sum(marking[p] * w for p, w in invariant.items())
                assert observed == expected

    @given(random_marked_graph())
    @settings(max_examples=25, deadline=None)
    def test_marked_graphs_are_free_choice(self, net):
        assert is_free_choice(net)
        assert is_marked_graph(net)
