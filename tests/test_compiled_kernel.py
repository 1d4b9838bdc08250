"""Differential tests: compiled bit-packed kernel vs. reference semantics.

The bit-packed kernel (``repro.petri.compiled``, and the packed cube algebra
inside ``repro.boolean``) must be observationally identical to the dict-based
reference implementations.  These tests pin that equivalence on randomized
inputs:

* random (safe and unsafe) Petri nets: reachability graphs, marking counts,
  concurrency pairs and marked regions from the public API must match the
  ``_reference_*`` paths (unsafe nets exercise the automatic fallback);
* random cube pairs and covers: the packed algebra must agree with
  brute-force vertex-set semantics and with dict-based reference
  re-implementations of the seed algorithms.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.petri.compiled import UnsafeNetError, compile_bounded_net, compile_net
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

MAX_MARKINGS = 600


def random_net(rng: random.Random, allow_unsafe: bool = False) -> PetriNet:
    """A random connected-ish place/transition net."""
    net = PetriNet("random")
    num_places = rng.randint(2, 8)
    num_transitions = rng.randint(2, 6)
    places = [f"p{i}" for i in range(num_places)]
    transitions = [f"t{i}" for i in range(num_transitions)]
    for place in places:
        net.add_place(place)
    for transition in transitions:
        net.add_transition(transition)
    for transition in transitions:
        for place in rng.sample(places, rng.randint(1, min(3, num_places))):
            net.add_arc(place, transition)
        for place in rng.sample(places, rng.randint(1, min(3, num_places))):
            net.add_arc(transition, place)
    marked = rng.sample(places, rng.randint(1, num_places))
    for place in marked:
        tokens = 1
        if allow_unsafe and rng.random() < 0.3:
            tokens = rng.randint(2, 3)
        net.set_initial_tokens(place, tokens)
    return net


def graphs_for(net: PetriNet):
    """Public (kernel-backed) and reference graphs, or the common exception."""
    start = net.initial_marking
    try:
        reference = _reference_build_reachability_graph(net, start, MAX_MARKINGS)
    except StateSpaceLimitExceeded:
        with pytest.raises(StateSpaceLimitExceeded):
            build_reachability_graph(net, max_markings=MAX_MARKINGS)
        return None, None
    graph = build_reachability_graph(net, max_markings=MAX_MARKINGS)
    return graph, reference


class TestReachabilityDifferential:
    def test_random_nets_match_reference(self):
        rng = random.Random(20260730)
        compared = 0
        for case in range(60):
            net = random_net(rng, allow_unsafe=case % 3 == 0)
            graph, reference = graphs_for(net)
            if graph is None:
                continue
            compared += 1
            # identical vertex sets and discovery order
            assert graph.markings == reference.markings
            # identical edges, including per-source ordering
            for marking in reference:
                assert graph.successors(marking) == reference.successors(marking)
                assert Counter(graph.predecessors(marking)) == Counter(
                    reference.predecessors(marking)
                )
            assert graph.num_edges() == reference.num_edges()
        assert compared >= 30  # the generator must not blow up on everything

    def test_count_matches_reference(self):
        rng = random.Random(42)
        for case in range(40):
            net = random_net(rng, allow_unsafe=case % 4 == 0)
            try:
                expected = _reference_count_reachable_markings(
                    net, net.initial_marking, MAX_MARKINGS
                )
            except StateSpaceLimitExceeded:
                with pytest.raises(StateSpaceLimitExceeded):
                    count_reachable_markings(net, max_markings=MAX_MARKINGS)
                continue
            assert count_reachable_markings(net, max_markings=MAX_MARKINGS) == expected

    def test_concurrent_pairs_match_reference(self):
        rng = random.Random(7)
        for case in range(40):
            net = random_net(rng, allow_unsafe=case % 5 == 0)
            graph, reference = graphs_for(net)
            if graph is None:
                continue
            assert concurrent_pairs_from_rg(graph) == _reference_concurrent_pairs_from_rg(
                reference
            )

    def test_marked_regions_match_reference(self):
        rng = random.Random(99)
        for _ in range(30):
            net = random_net(rng)
            graph, reference = graphs_for(net)
            if graph is None:
                continue
            places = list(net.places) + ["not_a_place"]
            assert marking_sets_of_places(graph, places) == (
                _reference_marking_sets_of_places(reference, places)
            )

    def test_enabling_and_firing_match_reference(self):
        rng = random.Random(5)
        for _ in range(30):
            net = random_net(rng)
            graph, reference = graphs_for(net)
            if graph is None or graph._compiled is None:
                continue
            compiled = graph._compiled
            for marking in list(reference)[:50]:
                packed = compiled.pack(marking)
                enabled_names = [
                    compiled.transition_names[t]
                    for t in compiled.enabled_transitions(packed)
                ]
                assert enabled_names == net.enabled_transitions(marking)
                for index, name in zip(
                    compiled.enabled_transitions(packed), enabled_names
                ):
                    assert compiled.unpack(compiled.fire(index, packed)) == net.fire(
                        name, marking
                    )

    def test_unsafe_marking_is_rejected_by_pack(self):
        net = PetriNet()
        net.add_place("p", tokens=2)
        net.add_transition("t")
        net.add_arc("p", "t")
        compiled = compile_bounded_net(net, 1)
        with pytest.raises(UnsafeNetError):
            compiled.pack(net.initial_marking)
        # the public API transparently falls back to multiset semantics
        assert count_reachable_markings(net) == 3

    def test_compile_cache_invalidated_on_mutation(self):
        net = PetriNet()
        net.add_place("p", tokens=1)
        net.add_transition("t")
        net.add_arc("p", "t")
        first = compile_net(net)
        assert compile_net(net) is first
        net.add_place("q")
        net.add_arc("t", "q")
        second = compile_net(net)
        assert second is not first
        assert "q" in second.place_index

    def test_preset_cache_invalidation(self):
        net = PetriNet()
        net.add_place("p")
        net.add_transition("t")
        net.add_arc("p", "t")
        assert net.preset("t") == frozenset({"p"})
        net.add_place("q")
        net.add_arc("q", "t")
        assert net.preset("t") == frozenset({"p", "q"})
        assert net.postset("p") == frozenset({"t"})
        net.remove_transition("t")
        assert net.postset("p") == frozenset()


# ---------------------------------------------------------------------- #
# Packed cube algebra vs. vertex-set semantics
# ---------------------------------------------------------------------- #

VARIABLES = ["a", "b", "c", "d", "e"]


def random_cube(rng: random.Random) -> Cube:
    literals = {
        var: rng.randint(0, 1)
        for var in VARIABLES
        if rng.random() < 0.55
    }
    return Cube(literals)


def vertex_set(cube: Cube) -> frozenset[tuple[int, ...]]:
    return frozenset(
        tuple(v[var] for var in VARIABLES) for v in cube.vertices(VARIABLES)
    )


def cover_vertex_set(cover: Cover) -> frozenset[tuple[int, ...]]:
    result: set[tuple[int, ...]] = set()
    for cube in cover:
        result |= vertex_set(cube)
    return frozenset(result)


def reference_distance(first: Cube, second: Cube) -> int:
    return sum(
        1
        for var, value in first.literals.items()
        if second.literals.get(var) not in (None, value)
    )


def reference_consensus(first: Cube, second: Cube):
    clash = None
    for var, value in first.literals.items():
        existing = second.literals.get(var)
        if existing is not None and existing != value:
            if clash is not None:
                return None
            clash = var
    if clash is None:
        return None
    merged = first.literals
    merged.update(second.literals)
    del merged[clash]
    return Cube(merged)


class TestPackedCubeDifferential:
    def test_pairwise_algebra_matches_vertex_semantics(self):
        rng = random.Random(123)
        for _ in range(300):
            first = random_cube(rng)
            second = random_cube(rng)
            va, vb = vertex_set(first), vertex_set(second)
            product = first.intersect(second)
            assert (va & vb) == (vertex_set(product) if product else frozenset())
            assert first.intersects(second) == bool(va & vb)
            assert first.covers(second) == (vb <= va)
            assert first.distance(second) == reference_distance(first, second)
            assert first.consensus(second) == reference_consensus(first, second)
            super_cube = first.supercube(second)
            assert vertex_set(super_cube) >= (va | vb)
            # minimality: dropping any literal of the supercube is not needed
            for var, value in super_cube.literals.items():
                assert first.value_of(var) == value and second.value_of(var) == value

    def test_cube_equality_and_hash_follow_literals(self):
        rng = random.Random(321)
        for _ in range(200):
            cube = random_cube(rng)
            clone = Cube(dict(cube.literals))
            assert cube == clone and hash(cube) == hash(clone)
            assert cube == dict(cube.literals)
            other = random_cube(rng)
            assert (cube == other) == (cube.literals == other.literals)

    def test_cofactors_match_vertex_semantics(self):
        rng = random.Random(77)
        for _ in range(200):
            cube = random_cube(rng)
            var = rng.choice(VARIABLES)
            value = rng.randint(0, 1)
            reduced = cube.cofactor(var, value)
            expected = {
                v for v in vertex_set(cube) if v[VARIABLES.index(var)] == value
            }
            if reduced is None:
                assert not expected
            else:
                # the cofactor no longer depends on the variable
                assert var not in reduced
                restricted = {
                    v for v in vertex_set(reduced) if v[VARIABLES.index(var)] == value
                }
                assert restricted == expected

    def test_cover_operations_match_vertex_semantics(self):
        rng = random.Random(555)
        for _ in range(120):
            left = Cover([random_cube(rng) for _ in range(rng.randint(0, 4))], VARIABLES)
            right = Cover([random_cube(rng) for _ in range(rng.randint(0, 4))], VARIABLES)
            vl, vr = cover_vertex_set(left), cover_vertex_set(right)
            assert cover_vertex_set(left.union(right)) == vl | vr
            assert cover_vertex_set(left.intersection(right)) == vl & vr
            assert cover_vertex_set(left.sharp(right)) == vl - vr
            assert left.intersects_cover(right) == bool(vl & vr)
            assert left.contains_cover(right) == (vr <= vl)
            assert left.count_minterms() == len(vl)
            assert left.is_tautology() == (len(vl) == 1 << len(VARIABLES))
            probe = random_cube(rng)
            assert left.covers_cube(probe) == (vertex_set(probe) <= vl)
            assert cover_vertex_set(left.complement()) == (
                frozenset(
                    tuple(bits) for bits in _all_vertices()
                ) - vl
            )


def _all_vertices():
    total = 1 << len(VARIABLES)
    for index in range(total):
        yield [(index >> bit) & 1 for bit in range(len(VARIABLES))]


# ---------------------------------------------------------------------- #
# Bitset concurrency relation: soundness against the exact oracle
# ---------------------------------------------------------------------- #


class TestConcurrencySoundness:
    def test_structural_relation_contains_exact_pairs(self):
        from repro.benchmarks import scalable
        from repro.structural.concurrency import compute_concurrency_relation

        for stg in (
            scalable.muller_pipeline(4),
            scalable.independent_cells(3),
            scalable.dining_philosophers(3),
        ):
            relation = compute_concurrency_relation(stg)
            graph = build_reachability_graph(stg.net)
            exact = concurrent_pairs_from_rg(graph)
            structural = relation.transition_pairs()
            missing = exact - structural
            assert not missing, f"structural relation misses exact pairs: {missing}"
