"""Differential tests pinning the k-bounded packed kernel to the reference.

The dict-based ``_reference_*`` implementations are the oracle: every graph
built by :class:`~repro.petri.compiled.CompiledBoundedNet` must be
indistinguishable — same markings in the same discovery order, same edges,
same bulk-query results — from the reference multiset BFS.
"""

import random

import pytest

from repro.petri.compiled import (
    BOUNDED_BITS_LADDER,
    BoundExceededError,
    CompiledBoundedNet,
    UnsafeNetError,
    compile_bounded_net,
)
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.reachability import (
    StateSpaceLimitExceeded,
    _reference_build_reachability_graph,
    _reference_concurrent_pairs_from_rg,
    _reference_count_reachable_markings,
    _reference_marking_sets_of_places,
    build_reachability_graph,
    concurrent_pairs_from_rg,
    count_reachable_markings,
    marking_sets_of_places,
)


def random_bounded_net(rng: random.Random, max_tokens: int = 3) -> PetriNet:
    """A random net whose initial marking may hold multiple tokens."""
    net = PetriNet()
    places = [f"p{i}" for i in range(rng.randint(3, 7))]
    transitions = [f"t{i}" for i in range(rng.randint(3, 7))]
    for place in places:
        net.add_place(place)
    for transition in transitions:
        net.add_transition(transition)
    for transition in transitions:
        for place in rng.sample(places, rng.randint(1, min(3, len(places)))):
            net.add_arc(place, transition)
        for place in rng.sample(places, rng.randint(1, min(3, len(places)))):
            net.add_arc(transition, place)
    any_token = False
    for place in places:
        count = rng.randint(0, max_tokens)
        if count:
            any_token = True
        net.set_initial_tokens(place, count)
    if not any_token:
        net.set_initial_tokens(places[0], 2)
    return net


def token_ring(tokens: int) -> PetriNet:
    """A two-place ring circulating ``tokens`` tokens (k-bounded, k=tokens)."""
    net = PetriNet()
    net.add_place("a", tokens=tokens)
    net.add_place("b")
    net.add_transition("go")
    net.add_transition("back")
    net.add_arc("a", "go")
    net.add_arc("go", "b")
    net.add_arc("b", "back")
    net.add_arc("back", "a")
    return net


class TestSemantics:
    def test_pack_unpack_round_trip(self):
        net = token_ring(3)
        compiled = compile_bounded_net(net, bits=2)
        marking = Marking({"a": 2, "b": 1})
        assert compiled.unpack(compiled.pack(marking)) == marking

    def test_pack_rejects_over_capacity(self):
        net = token_ring(3)
        compiled = compile_bounded_net(net, bits=2)
        with pytest.raises(BoundExceededError):
            compiled.pack(Marking({"a": 4}))

    def test_pack_rejects_unknown_place(self):
        net = token_ring(1)
        compiled = compile_bounded_net(net, bits=2)
        with pytest.raises(UnsafeNetError):
            compiled.pack(Marking({"ghost": 1}))

    def test_bound_exceeded_is_an_unsafe_net_error(self):
        # so generic UnsafeNetError handlers fall back to the reference path
        assert issubclass(BoundExceededError, UnsafeNetError)

    def test_fire_checked_detects_overflow(self):
        net = PetriNet()
        net.add_place("p", tokens=3)
        net.add_transition("t")
        net.add_arc("t", "p")  # pure producer: p grows without bound
        compiled = compile_bounded_net(net, bits=2)
        packed = compiled.pack(net.initial_marking)
        assert compiled.is_enabled(0, packed)
        with pytest.raises(BoundExceededError):
            compiled.fire_checked(0, packed)

    def test_enabled_and_fire_match_reference(self):
        rng = random.Random(5)
        for _ in range(30):
            net = random_bounded_net(rng)
            compiled = compile_bounded_net(net, bits=4)
            marking = net.initial_marking
            packed = compiled.pack(marking)
            for index, name in enumerate(compiled.transition_names):
                assert compiled.is_enabled(index, packed) == net.is_enabled(
                    name, marking
                )
                if net.is_enabled(name, marking):
                    fired = compiled.fire_checked(index, packed)
                    assert compiled.unpack(fired) == net.fire(name, marking)


class TestDifferentialExploration:
    def test_graphs_match_reference_on_random_bounded_nets(self):
        rng = random.Random(11)
        bounded_hits = 0
        for _ in range(120):
            net = random_bounded_net(rng, max_tokens=rng.choice([1, 2, 3, 5]))
            try:
                graph = build_reachability_graph(net, max_markings=1500)
            except StateSpaceLimitExceeded:
                with pytest.raises(StateSpaceLimitExceeded):
                    _reference_build_reachability_graph(
                        net, net.initial_marking, 1500
                    )
                continue
            reference = _reference_build_reachability_graph(
                net, net.initial_marking, 1500
            )
            assert graph.markings == reference.markings  # same discovery order
            assert list(graph.edges()) == list(reference.edges())
            assert count_reachable_markings(net, max_markings=1500) == len(
                reference
            )
            assert concurrent_pairs_from_rg(
                graph
            ) == _reference_concurrent_pairs_from_rg(reference)
            assert marking_sets_of_places(
                graph, net.places
            ) == _reference_marking_sets_of_places(reference, net.places)
            # safety is "the 1-bit rung completed"
            assert (graph._compiled.bits == 1) == all(
                m.is_safe() for m in reference.markings
            )
            if graph._compiled.bits > 1:
                bounded_hits += 1
        assert bounded_hits > 20  # the corpus actually exercises the kernel

    def test_safe_nets_still_use_the_one_bit_kernel(self):
        net = token_ring(1)
        graph = build_reachability_graph(net)
        assert graph._compiled.bits == 1

    def test_ladder_escalates_field_width(self):
        # 5 tokens exceed the 2-bit capacity (3) but fit 4 bits (15)
        graph = build_reachability_graph(token_ring(5))
        assert isinstance(graph._compiled, CompiledBoundedNet)
        assert graph._compiled.bits == 4
        # 20 tokens exceed 4 bits, fit 8 bits (255)
        graph = build_reachability_graph(token_ring(20))
        assert graph._compiled.bits == 8

    def test_unbounded_counts_fall_back_to_reference(self):
        # 300 tokens exceed every rung of the ladder; the dict-based
        # reference path keeps the exact multiset semantics
        tokens = 300
        assert tokens > (1 << BOUNDED_BITS_LADDER[-1]) - 1
        net = token_ring(tokens)
        graph = build_reachability_graph(net)
        assert graph._compiled is None and graph._packed is None
        assert len(graph) == tokens + 1
        assert count_reachable_markings(net) == tokens + 1

    def test_bounded_count_matches_reference(self):
        for tokens in (2, 3, 5, 9):
            net = token_ring(tokens)
            assert count_reachable_markings(net) == _reference_count_reachable_markings(
                net, net.initial_marking
            )

    def test_state_space_limit_enforced_on_bounded_path(self):
        net = token_ring(9)  # 10 reachable markings
        with pytest.raises(StateSpaceLimitExceeded):
            build_reachability_graph(net, max_markings=4)

    def test_indexed_view_works_on_bounded_graphs(self):
        net = token_ring(3)
        graph = build_reachability_graph(net)
        assert isinstance(graph._compiled, CompiledBoundedNet)
        view = graph.indexed()
        reference = _reference_build_reachability_graph(
            net, net.initial_marking, None
        ).indexed()
        assert view.transition_names == reference.transition_names
        assert view.edges == reference.edges
        assert view.enabled == reference.enabled
        assert view.marking_list == reference.marking_list
