"""The structural front-end on masks against its name-based oracles.

Every walk of the front-end runs on one worklist kernel
(:meth:`repro.structural.qps._WalkEngine.reach`); the SM-component test and
the anchored QR union run on packed masks.  Each is compared here with the
``_reference_*`` body it replaced, on every registry spec (every transition,
direction and signal) and on generated STGs:

* QPS/BPS walks against :func:`~repro.structural.qps._directional_place_walk`;
* SCR place masks against ``node_concurrent_with_signal``;
* the cover-cube walks, the initial-value walk and the cover cubes against
  the name-based BFS of :mod:`repro.structural.covercube`;
* the Property-4 successor search against
  :func:`~repro.structural.adjacency._reference_path_successors`, on the net
  and on its forward reductions;
* :func:`~repro.petri.smcover.is_sm_component` against the set-based test,
  on SM-components, semiflow supports and random place subsets;
* QR covers cube by cube, literal order and universe included, against the
  union-then-anchor oracle;
* the compiled net's dirty-frontier index against its definition;
* the shared off-set columns of the minimizer against fresh ones;
* the stdlib connectivity and liveness checks against their definitions.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmarks.registry import get_benchmark, list_benchmarks
from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.boolean.minimize import OffSetColumns, minimize_cover
from repro.corpus.generator import generate_spec, random_stg
from repro.petri import properties
from repro.petri.compiled import (
    StateSpaceLimitExceeded,
    UnsafeNetError,
    compile_bounded_net,
    compile_net,
)
from repro.petri.invariants import place_invariants
from repro.petri.net import PetriNet
from repro.petri.reachability import build_reachability_graph
from repro.petri.smcover import (
    _reference_is_sm_component,
    compute_sm_components,
    is_sm_component,
)
from repro.stg.stg import STG
from repro.structural.adjacency import (
    _path_successors,
    _reference_path_successors,
    forward_reduction,
)
from repro.structural.approximation import (
    _anchored_union,
    approximate_signal_regions,
)
from repro.structural.concurrency import (
    ConcurrencyRelation,
    compute_concurrency_relation,
)
from repro.structural.covercube import (
    _reference_compute_cover_cubes,
    _reference_nodes_reached_without_signal,
    _reference_signal_value_at_places,
    _reference_structural_initial_values,
    compute_cover_cubes,
    signal_value_at_places,
    structural_initial_values,
)
from repro.structural.qps import _directional_place_walk, _WalkEngine

REGISTRY = list_benchmarks()


# ---------------------------------------------------------------------- #
# Checks, one STG at a time
# ---------------------------------------------------------------------- #


def assert_walks_match(stg: STG) -> None:
    engine = _WalkEngine(stg)
    for transition in stg.transitions:
        t = engine.transition_index[transition]
        for forward in (True, False):
            places, boundary = engine.walk(t, forward)
            reference = _directional_place_walk(stg, transition, forward)
            assert (engine.names_of_places(places), engine.names_of_transitions(boundary)) == (
                reference
            ), (transition, forward)


def assert_scr_masks_match(stg: STG, concurrency: ConcurrencyRelation) -> None:
    engine = _WalkEngine(stg)
    masks = engine.scr_place_masks(concurrency)
    for signal in stg.signal_names:
        expected = {
            place
            for place in stg.places
            if concurrency.node_concurrent_with_signal(place, signal)
        }
        assert engine.names_of_places(masks(signal)) == expected, signal


def assert_signal_walks_match(stg: STG, concurrency: ConcurrencyRelation) -> None:
    engine = _WalkEngine(stg)
    concurrent_to = engine.scr_place_masks(concurrency)
    post_masks = engine.compiled.post_masks
    for relation in (None, concurrency):
        for signal in stg.signal_names:
            for initial in (None, 0, 1):
                fast = signal_value_at_places(stg, signal, initial, relation)
                reference = _reference_signal_value_at_places(
                    stg, signal, initial, relation
                )
                assert list(fast.items()) == list(reference.items()), (signal, initial)
        assert structural_initial_values(stg, relation) == (
            _reference_structural_initial_values(stg, relation)
        )
    for transition in stg.transitions:
        signal = stg.signal_of(transition)
        stop = engine.signal_masks[signal]
        concurrent = concurrent_to(signal)
        # the cover-cube walk: concurrent places are reached, not expanded
        places, reached = engine.reach(
            post_masks[engine.transition_index[transition]], True, stop, concurrent
        )
        assert engine.names_of_places(places) | engine.names_of_transitions(
            reached
        ) == _reference_nodes_reached_without_signal(
            stg, signal, [transition], concurrency
        ), transition
        # the Property-4 search: concurrent places are not visited at all
        adjacent, visited_places = _reference_path_successors(
            stg,
            transition,
            signal,
            lambda place, signal=signal: not concurrency.node_concurrent_with_signal(
                place, signal
            ),
        )
        assert _path_successors(stg, transition, signal, concurrent) == adjacent
        assert engine.names_of_places(places & ~concurrent) == visited_places


def assert_reduced_successors_match(stg: STG, transitions) -> None:
    """The Property-5 search on forward reductions of the net."""
    for transition in transitions:
        signal = stg.signal_of(transition)
        others = set(stg.transitions_of_signal(signal)) - {transition}
        reduced = forward_reduction(stg.net, others)
        expected, _ = _reference_path_successors(
            stg, transition, signal, lambda place: True, net=reduced
        )
        assert _path_successors(stg, transition, signal, net=reduced) == expected


def assert_cover_cubes_match(stg: STG, concurrency: ConcurrencyRelation) -> None:
    initial = structural_initial_values(stg, concurrency)
    fast = compute_cover_cubes(stg, concurrency, initial)
    reference = _reference_compute_cover_cubes(stg, concurrency, initial)
    assert [(place, cube.to_json()) for place, cube in fast.items()] == [
        (place, cube.to_json()) for place, cube in reference.items()
    ]


def assert_sm_tests_match(stg: STG, rng: random.Random, subsets: int = 30) -> None:
    net = stg.net
    candidates = [frozenset(invariant) for invariant in place_invariants(net)]
    candidates += [component.places for component in compute_sm_components(net)]
    places = net.places
    for component in list(candidates):
        # near misses: one place fewer, one place more
        candidates.append(component - {rng.choice(sorted(component))})
        candidates.append(component | {rng.choice(places)})
    for _ in range(subsets):
        candidates.append(frozenset(rng.sample(places, rng.randint(0, len(places)))))
    for component in candidates:
        assert is_sm_component(net, component) == _reference_is_sm_component(
            net, component
        ), sorted(component)


def _cube_list(cover: Cover) -> tuple:
    """A cover's cubes with their literal order, and its universe."""
    return [list(cube._literals.items()) for cube in cover], cover.variables


def assert_qr_covers_match(stg: STG, concurrency: ConcurrencyRelation) -> None:
    approximation = approximate_signal_regions(stg, concurrency)
    for transition in stg.transitions:
        for restricted in (False, True):
            fast = approximation._qr_cover_uncached(transition, restricted)
            reference = approximation._reference_qr_cover_uncached(transition, restricted)
            assert _cube_list(fast) == _cube_list(reference), (transition, restricted)


def assert_affected_index_matches(stg: STG) -> None:
    """The token game's dirty-frontier index, built from the walk tables."""
    structure = compile_net(stg.net)
    expected = [
        [u for u, pre_u in enumerate(structure.pre_masks) if pre_u & (pre ^ post)]
        for pre, post in zip(structure.pre_masks, structure.post_masks)
    ]
    for bits in (1, 2):
        assert compile_bounded_net(stg.net, bits)._affected == expected, bits


def assert_front_end_matches(stg: STG, seed: int) -> None:
    concurrency = compute_concurrency_relation(stg)
    assert_walks_match(stg)
    assert_affected_index_matches(stg)
    assert_scr_masks_match(stg, concurrency)
    assert_signal_walks_match(stg, concurrency)
    assert_cover_cubes_match(stg, concurrency)
    assert_sm_tests_match(stg, random.Random(seed))
    assert_qr_covers_match(stg, concurrency)


# ---------------------------------------------------------------------- #
# Registry and generated specs
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("name", REGISTRY)
def test_registry_front_end_matches_references(name):
    assert_front_end_matches(get_benchmark(name), seed=len(name))


def test_registry_reduced_successor_searches_match():
    for name in ("fig1", "glatch_3", "philosophers_5", "sequencer"):
        stg = get_benchmark(name)
        assert_reduced_successors_match(stg, stg.transitions)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), index=st.integers(0, 40))
def test_generated_specs_match_references(seed, index):
    stg = generate_spec(seed, index).spec.stg
    assert_front_end_matches(stg, seed)
    assert_reduced_successors_match(stg, stg.transitions[:4])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), unsafe=st.booleans())
def test_random_stgs_match_references(seed, unsafe):
    stg = random_stg(random.Random(seed), allow_unsafe=unsafe)
    concurrency = compute_concurrency_relation(stg)
    assert_walks_match(stg)
    assert_affected_index_matches(stg)
    assert_scr_masks_match(stg, concurrency)
    assert_signal_walks_match(stg, concurrency)
    assert_cover_cubes_match(stg, concurrency)
    assert_sm_tests_match(stg, random.Random(seed))


def test_scr_masks_refuse_a_relation_over_another_net():
    engine = _WalkEngine(get_benchmark("philosophers_5"))
    other = compute_concurrency_relation(get_benchmark("glatch_3"))
    with pytest.raises(ValueError, match="another net"):
        engine.scr_place_masks(other)


# ---------------------------------------------------------------------- #
# The anchored union on arbitrary covers
# ---------------------------------------------------------------------- #

UNION_VARS = ["a", "b", "c", "d"]
OUTSIDE = ["u"]

literals_st = st.dictionaries(
    st.sampled_from(UNION_VARS + OUTSIDE), st.integers(0, 1), max_size=4
)
covers_st = st.lists(
    st.tuples(
        st.lists(literals_st, max_size=5),
        st.lists(st.sampled_from(UNION_VARS), unique=True),
    ),
    max_size=5,
)


@settings(max_examples=300, deadline=None)
@given(
    covers=covers_st,
    anchor=st.tuples(st.sampled_from(UNION_VARS + ["w"]), st.integers(0, 1)),
)
def test_anchored_union_is_union_then_anchor(covers, anchor):
    built = [
        Cover([Cube(literals) for literals in cubes], variables)
        for cubes, variables in covers
    ]
    cube = Cube({anchor[0]: anchor[1]})
    fast = _anchored_union(built, UNION_VARS[:2], cube)
    reference = Cover.union_all(built, UNION_VARS[:2]).intersect_cube(cube)
    assert _cube_list(fast) == _cube_list(reference)


def test_anchored_union_keeps_the_cube_without_the_anchor():
    """``a x``, ``a y``, ``x``: the union drops ``a x`` for ``x``, so the
    anchored ``x a`` comes after ``a y``, not before it."""
    covers = [
        Cover([Cube({"a": 1, "x": 1}), Cube({"a": 1, "y": 1})]),
        Cover([Cube({"x": 1})]),
    ]
    anchor = Cube({"a": 1})
    fast = _anchored_union(covers, ["a", "x", "y"], anchor)
    reference = Cover.union_all(covers, ["a", "x", "y"]).intersect_cube(anchor)
    assert _cube_list(fast) == _cube_list(reference)
    assert _cube_list(fast)[0] == [[("a", 1), ("y", 1)], [("x", 1), ("a", 1)]]


def test_anchored_union_takes_one_literal():
    with pytest.raises(ValueError, match="one literal"):
        _anchored_union([Cover([Cube({"x": 1})])], ["x"], Cube({"a": 1, "b": 0}))


# ---------------------------------------------------------------------- #
# One transposition per off-set
# ---------------------------------------------------------------------- #

MIN_VARS = ["p", "q", "r", "s", "t"]


def _minterm(rng: random.Random) -> Cube:
    return Cube({name: rng.randint(0, 1) for name in MIN_VARS})


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_shared_off_set_columns_minimize_like_fresh_ones(seed):
    rng = random.Random(seed)
    off = {(cube._care, cube._value) for cube in (_minterm(rng) for _ in range(12))}
    pairs = sorted(off)
    shared = OffSetColumns(pairs)
    assert shared == pairs
    for _ in range(4):
        on_cubes = [_minterm(rng) for _ in range(rng.randint(1, 6))]
        on_cubes = [cube for cube in on_cubes if (cube._care, cube._value) not in off]
        on_set = Cover(on_cubes, MIN_VARS)
        with_shared = minimize_cover(on_set, shared)
        with_fresh = minimize_cover(on_set, list(pairs))
        assert with_shared.to_json() == with_fresh.to_json()


# ---------------------------------------------------------------------- #
# Connectivity and liveness without networkx
# ---------------------------------------------------------------------- #


def _reachable(start, successors) -> set:
    seen, frontier = {start}, [start]
    while frontier:
        for other in successors(frontier.pop()):
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return seen


def _definition_live(net, graph) -> bool:
    """From every reachable marking, every transition can still fire."""
    every = set(net.transitions)
    for marking in graph.markings:
        fireable = set()
        for later in _reachable(marking, lambda m: [t for _, t in graph.successors(m)]):
            fireable |= {label for label, _ in graph.successors(later)}
        if fireable != every:
            return False
    return True


def _definition_strongly_connected(net) -> bool:
    nodes = set(net.nodes)
    return bool(nodes) and all(
        _reachable(node, net.postset) == nodes for node in nodes
    )


def _definition_connected(net) -> bool:
    nodes = set(net.nodes)
    if not nodes:
        return False
    start = next(iter(nodes))
    return _reachable(start, lambda n: net.preset(n) | net.postset(n)) == nodes


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), unsafe=st.booleans())
def test_net_properties_match_their_definitions(seed, unsafe):
    net = random_stg(random.Random(seed), allow_unsafe=unsafe).net
    assert properties.is_connected(net) == _definition_connected(net)
    assert properties.is_strongly_connected(net) == _definition_strongly_connected(net)
    try:
        graph = build_reachability_graph(net, max_markings=400)
    except (StateSpaceLimitExceeded, UnsafeNetError):
        return
    assert properties.is_live(net, graph) == _definition_live(net, graph)


def test_live_net_with_a_transient_start():
    """Live, but its initial marking is never reached again: only the bottom
    component of the state graph decides."""
    net = PetriNet("transient")
    for place, tokens in (("p0", 0), ("p1", 0), ("p2", 2)):
        net.add_place(place, tokens)
    arcs = {
        "t0": (["p2"], ["p1"]),
        "t1": (["p0"], ["p1"]),
        "t2": (["p0", "p1"], ["p1", "p2"]),
        "t3": (["p1"], ["p0"]),
    }
    for transition, (inputs, outputs) in arcs.items():
        net.add_transition(transition)
        for place in inputs:
            net.add_arc(place, transition)
        for place in outputs:
            net.add_arc(transition, place)
    graph = build_reachability_graph(net)
    assert net.initial_marking not in _reachable(
        graph.successors(net.initial_marking)[0][1],
        lambda m: [t for _, t in graph.successors(m)],
    )
    assert properties.is_live(net, graph) is True
    assert _definition_live(net, graph)


@pytest.mark.parametrize("name", ["fig1", "philosophers_5", "glatch_3", "muller_pipeline_8"])
def test_registry_nets_are_live_and_strongly_connected(name):
    net = get_benchmark(name).net
    graph = build_reachability_graph(net)
    assert properties.is_live(net, graph) == _definition_live(net, graph)
    assert properties.is_strongly_connected(net) == _definition_strongly_connected(net)
