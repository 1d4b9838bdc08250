"""The column evaluator of circuits over state codes, and its consumers.

``Circuit.next_value_columns`` evaluates a circuit on every state code at
once (bit ``j`` of a column = state ``j``).  These tests pin it to the
scalar ``SignalImplementation.next_value`` on random covers, then replay
the registry through its two whole-state-space consumers: the
speed-independence verifier against its per-marking
``_reference_verify_speed_independence`` oracle, and ``compare()`` against
a per-code oracle written here — on synthesized circuits and on
literal-dropped mutants that break them.
"""

from __future__ import annotations

import dataclasses
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Pipeline, Spec
from repro.api.backends import compare
from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.boolean.interning import var_index
from repro.statebased.nextstate import next_state_value
from repro.statebased.regions import state_space
from repro.stg.encoding import signal_columns
from repro.synthesis.netlist import (
    Architecture,
    Circuit,
    SignalImplementation,
)
from repro.verify.speed_independence import (
    _reference_verify_speed_independence,
    verify_speed_independence,
)

VARS = ["a", "b", "c", "d"]
#: "z" is outside the code columns: a cube over it never matches
LITERALS = VARS + ["z"]


def cover_strategy():
    cube = st.dictionaries(
        st.sampled_from(LITERALS), st.integers(min_value=0, max_value=1), max_size=3
    ).map(Cube)
    return st.lists(cube, max_size=4).map(lambda cubes: Cover(cubes, LITERALS))


implementation_strategy = st.builds(
    lambda signal, set_cover, reset_cover, latch: SignalImplementation(
        signal=signal,
        architecture=(
            Architecture.SET_RESET_LATCH if latch else Architecture.COMPLEX_GATE
        ),
        set_cover=set_cover,
        reset_cover=reset_cover,
        uses_latch=latch,
    ),
    st.sampled_from(LITERALS),
    cover_strategy(),
    cover_strategy(),
    st.booleans(),
)


class TestColumnEvaluator:
    @settings(max_examples=200, deadline=None)
    @given(
        implementation_strategy,
        st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=20),
    )
    def test_bit_j_is_the_scalar_next_value_of_code_j(self, implementation, codes):
        vectors = [{v: code >> i & 1 for i, v in enumerate(VARS)} for code in codes]
        packed = [
            sum(1 << var_index(v) for v, value in vector.items() if value)
            for vector in vectors
        ]
        columns = signal_columns(packed, [(v, var_index(v)) for v in VARS])
        mask = (1 << len(codes)) - 1
        column = implementation.next_value_column(columns, mask)
        assert column & ~mask == 0
        for j, vector in enumerate(vectors):
            assert column >> j & 1 == implementation.next_value(vector)

    def test_circuit_columns_cover_the_requested_signals(self):
        def cover(*cubes):
            return Cover([Cube(cube) for cube in cubes], VARS)

        x = SignalImplementation(
            "x", Architecture.COMPLEX_GATE, cover({"a": 1, "b": 0}), cover(),
            uses_latch=False,
        )
        y = SignalImplementation(
            "y", Architecture.SET_RESET_LATCH, cover({"a": 1}), cover({"b": 1})
        )
        circuit = Circuit("c", {"x": x, "y": y})
        # codes over (a, b, y): 100, 010, 001, 111
        columns = {"a": 0b1001, "b": 0b1010, "y": 0b1100}
        assert circuit.next_value_columns(columns, 0b1111, ["y", "x"]) == {
            "y": 0b1101,  # set, reset, hold 1, hold 1
            "x": 0b0001,
        }


# ---------------------------------------------------------------------- #
# Registry replay: synthesized circuits and literal-dropped mutants
# ---------------------------------------------------------------------- #

#: the specs of the state-based verified workload
REPLAY_SPECS = [
    "muller_pipeline_8",
    "independent_cells_5",
    "philosophers_5",
    "glatch_5",
    "glatch_8",
    "fig1",
    "completion",
    "converter_2to4",
    "dma_ctrl",
    "handshake_seq",
    "parallelizer",
    "pipeline_ctrl",
    "rw_port",
    "selector",
    "sequencer",
]
MUTANTS = 5


def _drop_literal(circuit: Circuit, rng: random.Random) -> Circuit:
    """A copy of ``circuit`` with one literal of one cube removed."""
    data = circuit.to_json()
    sites = [
        (impl, key, cube)
        for impl in data["implementations"]
        for key in ("set_cover", "reset_cover")
        for cube in impl[key]["cubes"]
        if cube
    ]
    _, _, cube = rng.choice(sites)
    del cube[rng.choice(sorted(cube))]
    return Circuit.from_json(data)


def _circuits(name: str) -> list[Circuit]:
    synthesized = Pipeline().run(name, backend="statebased").circuit
    rng = random.Random(name)
    return [synthesized] + [_drop_literal(synthesized, rng) for _ in range(MUTANTS)]


def _oracle_mismatches(stg, regions, first, second, signals) -> list[dict]:
    """Every compare() mismatch record, by one scalar evaluation per code."""
    encoded = regions.encoded
    records = []
    for index, marking in enumerate(encoded.marking_list):
        code = encoded.code_of(marking)
        for signal in signals:
            implied = next_state_value(stg, regions, signal, index)
            a = first.next_value(signal, code)
            b = second.next_value(signal, code)
            if a == b and implied in (None, a):
                continue
            records.append(
                {
                    "signal": signal,
                    "code": encoded.code_string(marking),
                    "structural": a,
                    "statebased": b,
                    "specified": implied,
                }
            )
    return records


def _compare(name, regions, first, second, cap):
    """compare() over two given circuits (a stub pipeline serves them)."""
    reports = iter([SimpleNamespace(circuit=first), SimpleNamespace(circuit=second)])
    pipeline = SimpleNamespace(
        run=lambda *args, **kwargs: next(reports),
        states=lambda *args, **kwargs: regions,
    )
    return compare(name, pipeline=pipeline, max_mismatches=cap)


@pytest.mark.parametrize("name", REPLAY_SPECS)
def test_verify_matches_the_per_marking_reference(name):
    stg = Spec.load(name).stg
    regions = state_space(stg)
    circuits = _circuits(name)
    reports = [verify_speed_independence(stg, c, regions) for c in circuits]
    for circuit, report in zip(circuits, reports):
        reference = _reference_verify_speed_independence(stg, circuit, regions)
        assert dataclasses.asdict(report) == dataclasses.asdict(reference)
    assert reports[0].speed_independent
    assert any(report.functional_errors for report in reports[1:])


@pytest.mark.parametrize("name", REPLAY_SPECS)
def test_compare_matches_the_per_code_oracle(name):
    spec = Spec.load(name)
    regions = state_space(spec.stg)
    circuits = _circuits(name)
    signals = spec.stg.non_input_signals
    capped = 0
    for k, first in enumerate(circuits):
        second = circuits[(k + 1) % len(circuits)]
        expected = _oracle_mismatches(spec.stg, regions, first, second, signals)
        full = _compare(name, regions, first, second, cap=len(expected) + 1)
        assert full.mismatches == expected
        assert full.matching == (not expected)
        assert full.checked_markings == len(regions.encoded)
        report = _compare(name, regions, first, second, cap=3)
        assert report.mismatches == expected[:3]
        assert report.matching == (not expected)
        capped += len(expected) > 3
    if name not in ("completion", "handshake_seq"):
        # the single-signal specs have too few codes to overflow the cap
        assert capped
