"""The structural front-end's fixed points against their reference oracles.

The indexed sparse Farkas elimination
(:func:`repro.petri.invariants._compute_place_invariants`) must return the
list of :func:`~repro.petri.invariants._reference_compute_place_invariants`
— the same invariants, in the same order, each dict in the same key order —
and fail with the same ``RuntimeError`` under a small ``max_rows``.  The
per-transition concurrency fixed point
(:func:`repro.structural.concurrency.compute_concurrency_relation`) must
return the rows of
:func:`~repro.structural.concurrency._reference_compute_concurrency_relation`,
bit for bit.  Both are checked on random STGs, on every registry spec and on
a ladder of larger scalable instances.

The module also checks that a finished structural pipeline leaves no
reference cycle through the net, the STG or their compiled views, so that
collecting them never needs the cyclic garbage collector.
"""

from __future__ import annotations

import gc
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Pipeline
from repro.benchmarks.registry import get_benchmark, list_benchmarks
from repro.benchmarks.scalable import (
    dining_philosophers,
    independent_cells,
    muller_pipeline,
)
from repro.corpus.generator import random_stg
from repro.petri.compiled import CompiledNet
from repro.petri.invariants import (
    _compute_place_invariants,
    _reference_compute_place_invariants,
)
from repro.petri.net import PetriNet
from repro.stg.stg import STG
from repro.structural.concurrency import (
    _reference_compute_concurrency_relation,
    compute_concurrency_relation,
)
from repro.structural.qps import _WalkEngine

LADDER = {
    "muller_pipeline_64": lambda: muller_pipeline(64),
    "muller_pipeline_128": lambda: muller_pipeline(128),
    "dining_philosophers_32": lambda: dining_philosophers(32),
    "dining_philosophers_64": lambda: dining_philosophers(64),
    "independent_cells_90": lambda: independent_cells(90),
}


def _invariants_outcome(net: PetriNet, max_rows, compute):
    """The invariants with their key order, or the error raised."""
    try:
        invariants = compute(net, max_rows)
    except RuntimeError as error:
        return ("error", str(error))
    return [list(invariant.items()) for invariant in invariants]


def assert_same_invariants(net: PetriNet, max_rows=200_000) -> None:
    assert _invariants_outcome(net, max_rows, _compute_place_invariants) == (
        _invariants_outcome(net, max_rows, _reference_compute_place_invariants)
    )


def assert_same_concurrency(stg: STG) -> None:
    fast = compute_concurrency_relation(stg)
    reference = _reference_compute_concurrency_relation(stg)
    assert fast._names == reference._names
    assert fast._rows == reference._rows


def _random_stg(seed: int, unsafe: bool) -> STG:
    return random_stg(random.Random(seed), allow_unsafe=unsafe)


class TestFarkasElimination:
    @pytest.mark.parametrize("name", list_benchmarks())
    def test_registry(self, name):
        assert_same_invariants(get_benchmark(name).net)

    @pytest.mark.parametrize("name", sorted(LADDER))
    def test_ladder(self, name):
        assert_same_invariants(LADDER[name]().net)

    @pytest.mark.parametrize("max_rows", [0, 1, 8, 30, 64, 120])
    def test_row_bound(self, max_rows):
        net = get_benchmark("glatch_8").net
        assert_same_invariants(net, max_rows)

    def test_row_bound_raises(self):
        net = get_benchmark("glatch_8").net
        with pytest.raises(RuntimeError, match="exceeded 30 intermediate rows"):
            _compute_place_invariants(net, 30)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        unsafe=st.booleans(),
        max_rows=st.one_of(st.none(), st.integers(0, 12)),
    )
    def test_random_stgs(self, seed, unsafe, max_rows):
        assert_same_invariants(_random_stg(seed, unsafe).net, max_rows)


class TestConcurrencyFixedPoint:
    @pytest.mark.parametrize("name", list_benchmarks())
    def test_registry(self, name):
        assert_same_concurrency(get_benchmark(name))

    @pytest.mark.parametrize("name", sorted(LADDER))
    def test_ladder(self, name):
        assert_same_concurrency(LADDER[name]())

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), unsafe=st.booleans())
    def test_random_stgs(self, seed, unsafe):
        assert_same_concurrency(_random_stg(seed, unsafe))


def test_structural_pipelines_leave_no_cyclic_garbage():
    watched = (STG, PetriNet, CompiledNet, _WalkEngine)
    gc.collect()
    gc.disable()
    try:
        for name in ("glatch_5", "muller_pipeline_8", "philosophers_5"):
            Pipeline().run(name, backend="structural", map_technology=True)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = Counter(
            type(item).__name__ for item in gc.garbage if isinstance(item, watched)
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not leaked, leaked
