"""Unit and property-based tests of covers and the two-level minimizer."""

from __future__ import annotations

import json

from hypothesis import example, given, settings, strategies as st

import repro.statebased.synthesis as statebased_synthesis
from repro.api import Pipeline, SynthesisOptions
from repro.benchmarks.registry import get_benchmark, list_benchmarks
from repro.boolean.cover import (
    Cover,
    _reference_intersect_cube,
    _reference_intersection,
    _reference_sharp_cube,
    _reference_union,
    cube_pairs,
)
from repro.boolean.cube import Cube
from repro.boolean.function import BooleanFunction
from repro.boolean.minimize import (
    _reference_expand_cover,
    _reference_irredundant_cover,
    _reference_minimize,
    expand_cover,
    irredundant_cover,
    minimize_cover,
)
from repro.boolean.cost import literal_count, sop_transistor_estimate, transistor_estimate
from repro.experiments.optimality_gap import GAP_SPECS
from repro.petri.reachability import StateSpaceLimitExceeded, count_reachable_markings
from repro.statebased.synthesis import StateBasedSynthesisError
from repro.synthesis.conditions import check_cover_correctness

VARS = ["a", "b", "c", "d"]


def _all_vertices(variables=VARS):
    for index in range(1 << len(variables)):
        yield {v: (index >> i) & 1 for i, v in enumerate(variables)}


def cover_strategy():
    cube = st.dictionaries(
        st.sampled_from(VARS), st.integers(min_value=0, max_value=1), max_size=4
    ).map(Cube)
    return st.lists(cube, max_size=5).map(lambda cubes: Cover(cubes, VARS))


class TestCoverBasics:
    def test_empty_and_universe(self):
        assert Cover.empty(VARS).is_empty()
        assert Cover.universe(VARS).is_tautology()
        assert not Cover.empty(VARS).is_tautology()

    def test_from_strings(self):
        cover = Cover.from_strings(["1--0", "01--"], VARS)
        assert len(cover) == 2
        assert cover.covers_vertex({"a": 1, "b": 0, "c": 1, "d": 0})

    def test_union_removes_contained_cubes(self):
        big = Cover([Cube({"a": 1})], VARS)
        small = Cover([Cube({"a": 1, "b": 0})], VARS)
        assert len(big.union(small)) == 1

    def test_intersection(self):
        left = Cover([Cube({"a": 1})], VARS)
        right = Cover([Cube({"b": 0})], VARS)
        product = left.intersection(right)
        for vertex in _all_vertices():
            assert product.covers_vertex(vertex) == (vertex["a"] == 1 and vertex["b"] == 0)

    def test_sharp_is_set_difference(self):
        left = Cover([Cube({"a": 1})], VARS)
        right = Cover([Cube({"b": 1})], VARS)
        difference = left.sharp(right)
        for vertex in _all_vertices():
            expected = vertex["a"] == 1 and vertex["b"] == 0
            assert difference.covers_vertex(vertex) == expected

    def test_complement(self):
        cover = Cover([Cube({"a": 1}), Cube({"b": 0, "c": 1})], VARS)
        complement = cover.complement()
        for vertex in _all_vertices():
            assert complement.covers_vertex(vertex) != cover.covers_vertex(vertex)

    def test_covers_cube_via_multiple_cubes(self):
        cover = Cover([Cube({"a": 1, "b": 1}), Cube({"a": 1, "b": 0})], VARS)
        assert cover.covers_cube(Cube({"a": 1}))
        assert not cover.covers_cube(Cube({}))

    def test_count_minterms(self):
        cover = Cover([Cube({"a": 1}), Cube({"a": 0, "b": 1})], VARS)
        assert cover.count_minterms() == 8 + 4

    def test_restrict_projects_support(self):
        cover = Cover([Cube({"a": 1, "c": 0})], VARS)
        projected = cover.restrict(["a", "b"])
        assert projected.support() == frozenset({"a"})


class TestMinimizer:
    def test_expand_drops_redundant_literals(self):
        on_set = Cover([Cube({"a": 1, "b": 1, "c": 0})], VARS)
        off_set = Cover([Cube({"a": 0})], VARS)
        expanded = expand_cover(on_set, off_set)
        assert expanded.num_literals() == 1
        assert expanded.covers_cube(Cube({"a": 1}))

    def test_minimize_preserves_on_set_and_avoids_off_set(self):
        on_set = Cover.from_strings(["110-", "111-"], VARS)
        off_set = Cover.from_strings(["0---", "10--"], VARS)
        result = minimize_cover(on_set, off_set)
        assert result.contains_cover(on_set)
        assert not result.intersects_cover(off_set)

    def test_irredundant_removes_duplicate_cubes(self):
        cover = Cover([Cube({"a": 1}), Cube({"a": 1, "b": 1})], VARS)
        reduced = irredundant_cover(cover)
        assert len(reduced) == 1

    @given(cover_strategy(), cover_strategy())
    @settings(max_examples=40, deadline=None)
    def test_minimize_is_correct_for_disjoint_sets(self, on_set, noise):
        off_set = noise.sharp(on_set)
        result = minimize_cover(on_set, off_set)
        assert result.contains_cover(on_set)
        assert not result.intersects_cover(off_set)

    @given(cover_strategy())
    @settings(max_examples=100, deadline=None)
    def test_remove_contained_matches_object_scan(self, cover):
        kept = []
        for cube in sorted(cover, key=Cube.num_literals):
            if not any(other.covers(cube) for other in kept):
                kept.append(cube)
        assert [id(cube) for cube in cover.remove_contained()] == [id(cube) for cube in kept]
        assert all(cover.contains_cover(Cover([cube], VARS)) for cube in cover)

    @given(cover_strategy())
    @settings(max_examples=40, deadline=None)
    def test_complement_partitions_space(self, cover):
        complement = cover.complement()
        assert not complement.intersects_cover(cover)
        assert complement.union(cover).is_tautology() or cover.is_empty() and complement.is_tautology()


#: differential-test variable pool; the names sort differently from the
#: order in which they are first interned, so name-ordered literal probing
#: is exercised against the packed bit order
DIFF_VARS = ["q", "b7", "zeta", "a2", "m", "c", "x1", "k", "d0", "w"]


def _cube_list(cover: Cover) -> list:
    """A cover as its exact cube list: literal order included."""
    return [list(cube.literals.items()) for cube in cover]


@st.composite
def minimizer_problem(draw):
    """Random (on, off, dc) covers over 6-10 variables.

    The off- and dc-sets are empty in a share of the examples; the off-set
    is either arbitrary (it may meet the on-set) or the on-set's complement
    within random noise.
    """
    variables = draw(st.permutations(DIFF_VARS))[: draw(st.integers(6, 10))]

    def cover(max_size):
        cube = st.dictionaries(
            st.sampled_from(variables), st.integers(0, 1), max_size=len(variables)
        ).map(Cube)
        return st.lists(cube, max_size=max_size).map(lambda cubes: Cover(cubes, variables))

    on_set = draw(cover(8))
    off_set = draw(st.one_of(st.just(Cover.empty(variables)), cover(8)))
    if draw(st.booleans()):
        off_set = off_set.sharp(on_set)
    dc_set = draw(st.one_of(st.none(), st.just(Cover.empty(variables)), cover(6)))
    return on_set, off_set, dc_set


class TestPackedMinimizerDifferential:
    """The packed minimizer returns exactly the object reference's cubes."""

    @given(minimizer_problem())
    @example(  # empty off-set and empty dc-set: every literal drops
        (
            Cover.from_strings(["1-0-10", "0110--"], DIFF_VARS[:6]),
            Cover.empty(DIFF_VARS[:6]),
            Cover.empty(DIFF_VARS[:6]),
        )
    )
    @settings(max_examples=250, deadline=None)
    def test_packed_matches_reference(self, problem):
        on_set, off_set, dc_set = problem
        expanded = expand_cover(on_set, off_set)
        assert _cube_list(expanded) == _cube_list(_reference_expand_cover(on_set, off_set))
        assert expanded.variables == on_set.variables
        reduced = irredundant_cover(on_set, dc_set)
        assert _cube_list(reduced) == _cube_list(_reference_irredundant_cover(on_set, dc_set))
        result = minimize_cover(on_set, off_set, dc_set)
        reference = _reference_minimize(on_set, off_set, dc_set)
        assert _cube_list(result) == _cube_list(reference)
        assert result.variables == reference.variables
        # the same sets handed over as packed (care, value) pairs
        packed = minimize_cover(on_set, cube_pairs(off_set), cube_pairs(dc_set))
        assert _cube_list(packed) == _cube_list(reference)
        # the arbitrary off-set may meet the on-set itself
        for cover in (on_set, result):
            meets = cover.intersects_cover(off_set)
            for off in (off_set, cube_pairs(off_set)):
                assert check_cover_correctness(on_set, off, cover).satisfied == (not meets)

    def test_irredundant_keeps_reference_identity_semantics(self):
        # the same cube object twice: neither copy is ever "the rest"
        cube = Cube({"a": 1})
        cover = Cover([cube, cube], VARS)
        assert _cube_list(irredundant_cover(cover)) == _cube_list(
            _reference_irredundant_cover(cover)
        )

    def test_state_based_registry_calls_replay_identically(self, monkeypatch):
        """Every minimize_cover call of the state-based flow over the
        enumerable registry specs matches the object reference."""
        calls = []

        def recording(on_set, off_set, dc_set=None):
            result = minimize_cover(on_set, off_set, dc_set)
            calls.append((on_set, off_set, dc_set, result))
            return result

        monkeypatch.setattr(statebased_synthesis, "minimize_cover", recording)
        replayed = []
        for name in list_benchmarks():
            try:
                count_reachable_markings(get_benchmark(name).net, max_markings=5_000)
            except StateSpaceLimitExceeded:
                continue
            try:
                Pipeline().run(name, backend="statebased")
            except StateBasedSynthesisError as error:
                assert "CSC" in str(error), (name, error)
                continue
            replayed.append(name)
        assert len(replayed) >= 20, replayed
        assert len(calls) >= 200, len(calls)
        for on_set, off_set, dc_set, result in calls:
            # the flow hands its off- and dc-sets over as packed pairs
            off_cover = Cover.from_pairs(off_set, on_set.variables)
            dc_cover = Cover.from_pairs(dc_set, on_set.variables)
            assert _cube_list(result) == _cube_list(
                _reference_minimize(on_set, off_cover, dc_cover)
            )


# ---------------------------------------------------------------------- #
# Packed cover algebra vs. the object-level reference operations
# ---------------------------------------------------------------------- #

#: names never in a drawn universe: cubes over them exercise the
#: universe-extension branch of the operations
OUTSIDE_VARS = ["u1", "u2"]


def _reference_sharp(cover: Cover, other: Cover) -> Cover:
    result = cover
    for cube in other:
        result = _reference_sharp_cube(result, cube)
        if result.is_empty():
            break
    return result


def _reference_complement(cover: Cover) -> Cover:
    return _reference_sharp(Cover.universe(cover.variables), cover)


def _reference_union_all(covers, variables=()) -> Cover:
    result = Cover.empty(variables)
    for cover in covers:
        result = _reference_union(result, cover)
    return result


def _exact(cover: Cover) -> tuple:
    """A cover as its exact cube list (literal order included) and universe."""
    return _cube_list(cover), cover.variables


@st.composite
def algebra_problem(draw):
    """Random operands over 6-10 variables.

    The left cover is a raw cube list (duplicates and contained cubes
    included) and may be empty; the right covers, the single cube and the
    ``union_all`` operands may bind variables outside the left universe.
    """
    variables = draw(st.permutations(DIFF_VARS))[: draw(st.integers(6, 10))]
    wide = variables + OUTSIDE_VARS

    def cube(names):
        literals = st.dictionaries(st.sampled_from(names), st.integers(0, 1), max_size=len(names))
        return literals.map(Cube)

    def cover(names, max_size):
        universe = st.sampled_from([variables, wide, variables[:3], []])
        return st.tuples(st.lists(cube(names), max_size=max_size), universe).map(
            lambda pair: Cover(*pair)
        )

    left = Cover(draw(st.lists(cube(variables), max_size=7)), variables)
    right = draw(cover(draw(st.sampled_from([variables, wide])), 6))
    single = draw(cube(draw(st.sampled_from([variables, wide]))))
    many = draw(st.lists(cover(wide, 4), max_size=5))
    universe = draw(st.sampled_from([variables, [], variables + variables[:2]]))
    return left, right, single, many, universe


#: the structural_scalable benchmark workload's specs
SCALABLE_SPECS = (
    "muller_pipeline_8",
    "muller_pipeline_16",
    "muller_pipeline_32",
    "independent_cells_20",
    "independent_cells_45",
    "philosophers_5",
    "philosophers_8",
    "glatch_5",
    "glatch_8",
)


def _without_timings(data):
    """A report document with every wall-clock field removed."""
    if isinstance(data, dict):
        return {
            key: _without_timings(value)
            for key, value in data.items()
            if not key.endswith("seconds")
        }
    if isinstance(data, list):
        return [_without_timings(value) for value in data]
    return data


class TestPackedCoverAlgebraDifferential:
    """The packed cover operations return exactly the reference's covers."""

    @given(algebra_problem())
    @example(  # a cube outside the left universe that splits a left cube
        (
            Cover.from_strings(["1-0---", "11----"], DIFF_VARS[:6]),
            Cover([Cube({"u1": 1, "q": 1, "u2": 0})], ["u1", "q", "u2"]),
            Cube({"u2": 1, "b7": 0}),
            [Cover.empty(), Cover([Cube({"u1": 0})], ["u1"])],
            [],
        )
    )
    @settings(max_examples=250, deadline=None)
    def test_packed_matches_reference(self, problem):
        left, right, single, many, universe = problem
        assert _exact(left.union(right)) == _exact(_reference_union(left, right))
        assert _exact(right.union(left)) == _exact(_reference_union(right, left))
        assert _exact(Cover.union_all(many, universe)) == _exact(
            _reference_union_all(many, universe)
        )
        assert _exact(Cover.union_all([left, right], universe)) == _exact(
            _reference_union_all([left, right], universe)
        )
        assert _exact(left.sharp(right)) == _exact(_reference_sharp(left, right))
        assert _exact(left.sharp_cube(single)) == _exact(_reference_sharp_cube(left, single))
        assert _exact(left.complement()) == _exact(_reference_complement(left))
        assert _exact(left.intersect_cube(single)) == _exact(
            _reference_intersect_cube(left, single)
        )
        assert _exact(left.intersection(right)) == _exact(_reference_intersection(left, right))
        assert _exact(right.intersection(left)) == _exact(_reference_intersection(right, left))

    def test_registry_reports_match_the_reference_ops(self, monkeypatch):
        """Every structural_scalable spec and every `repro gap` spec gives
        byte-identical reports (timings excluded) with the reference ops."""
        runs = [(name, SynthesisOptions()) for name in SCALABLE_SPECS] + [
            (name, SynthesisOptions(level=level, assume_csc=True))
            for name in GAP_SPECS
            for level in (1, 2, 3, 4, 5)
        ]

        def reports() -> list[str]:
            return [
                json.dumps(
                    _without_timings(Pipeline().run(name, options, map_technology=True).to_json())
                )
                for name, options in runs
            ]

        packed = reports()
        with monkeypatch.context() as patch:
            patch.setattr(Cover, "union", _reference_union)
            patch.setattr(
                Cover,
                "union_all",
                classmethod(lambda cls, covers, variables=(): _reference_union_all(covers, variables)),
            )
            patch.setattr(Cover, "intersection", _reference_intersection)
            patch.setattr(Cover, "intersect_cube", _reference_intersect_cube)
            patch.setattr(Cover, "sharp_cube", _reference_sharp_cube)
            patch.setattr(Cover, "sharp", _reference_sharp)
            patch.setattr(Cover, "complement", _reference_complement)
            reference = reports()
        assert len(packed) == len(SCALABLE_SPECS) + 5 * len(GAP_SPECS) == 74
        for (name, options), mine, theirs in zip(runs, packed, reference):
            assert mine == theirs, (name, options.level)


class TestBooleanFunction:
    def test_consistency_and_correct_cover(self):
        on_set = Cover.from_strings(["11--"], VARS)
        off_set = Cover.from_strings(["00--"], VARS)
        function = BooleanFunction(on_set, off_set, variables=VARS, name="f")
        assert function.is_consistent()
        assert function.is_complete()
        assert function.evaluate({"a": 1, "b": 1, "c": 0, "d": 0}) == 1
        assert function.evaluate({"a": 0, "b": 0, "c": 0, "d": 0}) == 0
        assert function.evaluate({"a": 1, "b": 0, "c": 0, "d": 0}) is None
        assert function.is_correct_cover(Cover.from_strings(["11--", "10--"], VARS))
        assert not function.is_correct_cover(Cover.from_strings(["10--"], VARS))

    def test_cost_models(self):
        cover = Cover.from_strings(["11--", "1-1-"], VARS)
        assert literal_count(cover) == 4
        assert sop_transistor_estimate(cover) == 2 * 4 + 2 * 2
        assert transistor_estimate([cover], memory_elements=1) == 12 + 8
