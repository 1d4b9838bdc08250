"""The packed orthogonal-split kernel that builds the state-based off-/dc-sets.

``EncodedReachabilityGraph.space_pairs`` splits a code set over the signal
bits on sorted split keys, one bisection per split.  These tests pin it to
``_reference_space_cover``, the list-splitting recursion it replaces: every
call the state-based and SAT flows make over the enumerable registry must
return the reference's cube list, and so must random code sets over random
signal orders and non-contiguous interned bits.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Pipeline
from repro.benchmarks.registry import get_benchmark, list_benchmarks
from repro.boolean.interning import var_index
from repro.petri.reachability import StateSpaceLimitExceeded, count_reachable_markings
from repro.sat.encode import SatBudgetExceeded
from repro.statebased.nextstate import next_state_functions
from repro.statebased.regions import state_space
from repro.statebased.synthesis import StateBasedSynthesisError
from repro.stg.encoding import EncodedReachabilityGraph, _reference_space_cover

#: interned once, in this order: a drawn subset in a drawn order has
#: non-contiguous bits that are not sorted by split order
SLOTS = [f"space_pairs_slot{i}" for i in range(24)]
for _name in SLOTS:
    var_index(_name)


def _pairs(cover) -> list[tuple[int, int]]:
    return [(cube.care_mask, cube.value_mask) for cube in cover]


def _codes_of_keys(encoded: EncodedReachabilityGraph, keys) -> list[int]:
    """The packed codes of split keys (first signal = most significant key bit)."""
    bits = [var_index(name) for name in encoded.stg.signal_names]
    top = len(bits) - 1
    return [
        sum(1 << bit for depth, bit in enumerate(bits) if key >> (top - depth) & 1)
        for key in keys
    ]


def _graph(names: list[str], codes: list[int]) -> EncodedReachabilityGraph:
    """An encoded graph with the given signal order and per-state codes."""
    stg = SimpleNamespace(signal_names=list(names))
    return EncodedReachabilityGraph._from_packed(stg, None, list(codes), {})


def _code(names: list[str], assignment: int) -> int:
    """The packed code with signal ``names[i]`` set iff bit ``i`` of ``assignment`` is."""
    return sum(1 << var_index(name) for i, name in enumerate(names) if assignment >> i & 1)


def _assert_matches_reference(names: list[str], codes: list[int]) -> None:
    encoded = _graph(names, codes)
    keys = encoded.split_keys()
    assert _codes_of_keys(encoded, keys) == codes
    universe = [_code(names, assignment) for assignment in range(1 << len(names))]
    inside = set(codes)
    for complement in (False, True):
        pairs = encoded.space_pairs(keys, complement)
        assert pairs == _pairs(_reference_space_cover(encoded, codes, complement))
        # disjoint cubes with exactly the code set's (or its complement's) minterms
        for code in universe:
            hits = sum(1 for care, value in pairs if code & care == value)
            assert hits == int((code in inside) != complement), (code, pairs)


@pytest.mark.parametrize("count", range(0, 11))
def test_empty_set_and_full_space(count):
    names = SLOTS[:count]
    full = [_code(names, assignment) for assignment in range(1 << count)]
    _assert_matches_reference(names, [])
    _assert_matches_reference(names, full)
    _assert_matches_reference(list(reversed(names)), full[::-1] + full)


def test_duplicate_codes_split_once():
    names = [SLOTS[5], SLOTS[1], SLOTS[9]]
    codes = [_code(names, a) for a in (3, 3, 0, 5, 0, 3, 7)]
    _assert_matches_reference(names, codes)
    encoded = _graph(names, codes)
    assert encoded.space_pairs(encoded.split_keys(), False) == encoded.space_pairs(
        set(encoded.split_keys()), False
    )


@st.composite
def signal_code_sets(draw):
    names = draw(st.lists(st.sampled_from(SLOTS), min_size=1, max_size=10, unique=True))
    assignments = draw(st.lists(st.integers(0, (1 << len(names)) - 1), max_size=80))
    return names, [_code(names, assignment) for assignment in assignments]


@given(signal_code_sets())
@settings(max_examples=150, deadline=None)
def test_random_code_sets_match_the_reference(drawn):
    names, codes = drawn
    _assert_matches_reference(names, codes)


# ---------------------------------------------------------------------- #
# Registry replay: every call of the state-based and SAT flows
# ---------------------------------------------------------------------- #


def _enumerable() -> list[str]:
    names = []
    for name in list_benchmarks():
        try:
            count_reachable_markings(get_benchmark(name).net, max_markings=5_000)
        except StateSpaceLimitExceeded:
            continue
        names.append(name)
    return names


def test_registry_calls_match_the_reference(monkeypatch):
    calls = []
    kernel = EncodedReachabilityGraph.space_pairs

    def recording(self, keys, complement):
        keys = list(keys)
        result = kernel(self, keys, complement)
        calls.append((self, keys, complement, result))
        return result

    monkeypatch.setattr(EncodedReachabilityGraph, "space_pairs", recording)
    specs = _enumerable()
    for name in specs:
        stg = get_benchmark(name)
        next_state_functions(stg, state_space(stg))
        for backend in ("statebased", "sat"):
            try:
                Pipeline().run(name, backend=backend)
            except (StateBasedSynthesisError, SatBudgetExceeded):
                pass
    assert len(specs) >= 20, specs
    assert {complement for _, _, complement, _ in calls} == {False, True}
    assert len(calls) >= 400, len(calls)
    checked = set()
    for encoded, keys, complement, result in calls:
        assert _codes_of_keys(encoded, encoded.split_keys()) == encoded.packed_codes
        codes = _codes_of_keys(encoded, keys)
        assert result == _pairs(_reference_space_cover(encoded, codes, complement))
        checked.add(encoded.stg.name)
    assert len(checked) >= 20, checked
