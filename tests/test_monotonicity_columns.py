"""The state-based monotonicity check over state-index bitsets.

``check_monotonicity_state_based`` evaluates Property 1 as bitset algebra:
the cover's column over the state codes, the uncovered quiescent states
outside the excitation region, and their successor image.  This replays
every enumerable registry spec × non-input signal × direction against the
per-state ``_reference_check_monotonicity_state_based``, and requires
identical reports, violation messages included.  The covers checked are the
synthesized set/reset covers, every literal-dropped mutant of them, and
literal-dropped mutants of the excitation-region minterm covers (the
synthesis' fallback covers), which often rise again inside their quiescent
regions, so the violation path runs too; and each of these with a literal
on a variable outside the state codes.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.benchmarks.registry import get_benchmark, list_benchmarks
from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.petri.reachability import StateSpaceLimitExceeded, count_reachable_markings
from repro.statebased.regions import state_space
from repro.statebased.synthesis import synthesize_state_based
from repro.synthesis.conditions import (
    _reference_check_monotonicity_state_based,
    check_monotonicity_state_based,
)

#: literal-dropped mutants per excitation-region cover
MUTANTS = 8


def _enumerable() -> list[str]:
    names = []
    for name in list_benchmarks():
        try:
            count_reachable_markings(get_benchmark(name).net, max_markings=5_000)
        except StateSpaceLimitExceeded:
            continue
        names.append(name)
    return names


ENUMERABLE = _enumerable()


def _drop(cover: Cover, index: int, variable: str) -> Cover:
    """A copy of ``cover`` with one literal of cube ``index`` removed."""
    cubes = cover.cubes
    cubes[index] = Cube({name: value for name, value in cubes[index].items() if name != variable})
    return Cover(cubes, cover.variables)


def _mutants(cover: Cover, limit=None, seed: str = "") -> list[Cover]:
    """Literal-dropped mutants: all of them, or ``limit`` drawn by ``seed``."""
    sites = [
        (index, variable)
        for index, cube in enumerate(cover)
        for variable in sorted(cube.support)
    ]
    if limit is not None and len(sites) > limit:
        sites = random.Random(seed).sample(sites, limit)
    return [_drop(cover, index, variable) for index, variable in sites]


def _with_outside_literal(cover: Cover, value: int) -> Cover:
    """``cover`` with a literal on a variable no state code carries in every
    cube: the packed test reads that variable as 0."""
    cubes = [Cube({**cube.literals, "monotonicity_outside": value}) for cube in cover]
    return Cover(cubes, cover.variables)


def _candidates(name: str):
    """(stg, regions, signal, direction, covers) of every replayed check."""
    stg = get_benchmark(name)
    regions = state_space(stg)
    circuit = synthesize_state_based(
        stg, regions, allow_combinational=False, assume_csc=True
    )
    for signal in stg.non_input_signals:
        implementation = circuit[signal]
        for direction, cover in (
            ("+", implementation.set_cover),
            ("-", implementation.reset_cover),
        ):
            excitation = regions.ger_codes(signal, direction)
            covers = [
                cover,
                *_mutants(cover),
                *_mutants(excitation, MUTANTS, f"{name}/{signal}{direction}"),
            ]
            covers += [_with_outside_literal(other, 0) for other in covers]
            covers.append(_with_outside_literal(cover, 1))
            yield stg, regions, signal, direction, covers


def _report(check, stg, regions, signal, cover, direction) -> dict:
    return dataclasses.asdict(check(stg, regions, signal, cover, direction))


@pytest.mark.parametrize("name", ENUMERABLE)
def test_columns_match_the_per_state_reference(name):
    for stg, regions, signal, direction, covers in _candidates(name):
        for cover in covers:
            expected = _report(
                _reference_check_monotonicity_state_based,
                stg, regions, signal, cover, direction,
            )
            actual = _report(check_monotonicity_state_based, stg, regions, signal, cover, direction)
            assert actual == expected, (signal, direction, cover)


def test_replay_reaches_the_violation_path():
    """Synthesized covers pass; enough mutants fail, some at several states."""
    violated = 0
    multiple = 0
    for name in ENUMERABLE:
        for stg, regions, signal, direction, covers in _candidates(name):
            assert check_monotonicity_state_based(stg, regions, signal, covers[0], direction)
            for cover in covers[1:]:
                report = check_monotonicity_state_based(stg, regions, signal, cover, direction)
                violated += not report.satisfied
                multiple += len(report.violations) > 1
    assert violated >= 50, violated
    assert multiple >= 1, multiple
