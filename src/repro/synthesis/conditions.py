"""Implementability conditions: cover correctness and monotonicity.

Correctness (equation (2)): the set function of a signal must cover the
binary codes of GER(a+) and avoid GER(a-) ∪ GQR(a=0); symmetrically for the
reset function.  For the per-excitation-region architecture the quiescent
region is replaced by the *restricted* quiescent region (equation (4)).

Monotonicity (Property 1 / Property 16): a correct cover may only switch
twice along any firing sequence.  Two checks are provided: the *structural*
check of Property 16 (using the next relation, the quiescent place sets and
the place cover functions — no reachability graph), and a *state-based*
oracle that walks the encoded reachability graph and verifies Property 1
directly (used by the verifier and by the tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.boolean.cover import Cover, CubeSet, cube_pairs
from repro.statebased.regions import SignalRegions
from repro.stg.encoding import state_indices
from repro.stg.stg import STG
from repro.structural.approximation import SignalRegionApproximation


@dataclass
class ConditionReport:
    """Result of a correctness or monotonicity check."""

    satisfied: bool
    violations: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.satisfied


# ---------------------------------------------------------------------- #
# Correctness (equation (2) / (3))
# ---------------------------------------------------------------------- #


def check_cover_correctness(
    on_set: Cover,
    off_set: CubeSet,
    cover: Cover,
) -> ConditionReport:
    """Equation (2): ``on_set ⊆ cover`` and ``cover ∩ off_set = ∅``.

    ``off_set`` is a :class:`Cover` or its packed ``(care, value)`` pairs.
    """
    violations: list[str] = []
    if not cover.contains_cover(on_set):
        violations.append("cover does not cover its excitation region")
    off_pairs = cube_pairs(off_set)
    if any(
        not (cube._value ^ value) & cube._care & care
        for cube in cover
        for care, value in off_pairs
    ):
        violations.append("cover intersects its off-set")
    return ConditionReport(not violations, violations)


def set_function_sets(
    approximation: SignalRegionApproximation, signal: str
) -> tuple[Cover, Cover]:
    """(on-set, off-set) covers for the set function of ``signal``."""
    on_set = approximation.ger_cover(signal, "+")
    off_set = approximation.ger_cover(signal, "-").union(
        approximation.gqr_cover(signal, 0)
    )
    return on_set, off_set


def reset_function_sets(
    approximation: SignalRegionApproximation, signal: str
) -> tuple[Cover, Cover]:
    """(on-set, off-set) covers for the reset function of ``signal``."""
    on_set = approximation.ger_cover(signal, "-")
    off_set = approximation.ger_cover(signal, "+").union(
        approximation.gqr_cover(signal, 1)
    )
    return on_set, off_set


# ---------------------------------------------------------------------- #
# Monotonicity — structural check (Property 16)
# ---------------------------------------------------------------------- #


def check_monotonicity_structural(
    approximation: SignalRegionApproximation,
    transition: str,
    cover: Cover,
) -> ConditionReport:
    """Property 16: the cover of a transition must not switch on again.

    Starting from the quiescent place set of the transition, the places are
    walked in topological (token-flow) order; once a place is found whose
    cover function is no longer intersected by ``cover`` (the cover has been
    turned off), the cover must not intersect the cover function of any place
    reachable strictly after it before the next transition of the signal.
    """
    stg = approximation.stg
    qps = approximation.qps.get(transition, set())
    if not qps:
        return ConditionReport(True)
    net = stg.net
    signal = stg.signal_of(transition)
    violations: list[str] = []

    # Walk forward from the transition through its QPS; record, along every
    # path, whether the cover was already off at some earlier place.
    from collections import deque

    # state: (node, cover_was_off)
    frontier: deque[tuple[str, bool]] = deque()
    for place in net.postset(transition):
        frontier.append((place, False))
    visited: set[tuple[str, bool]] = set()
    while frontier:
        node, was_off = frontier.popleft()
        if (node, was_off) in visited:
            continue
        visited.add((node, was_off))
        if net.is_transition(node):
            if stg.signal_of(node) == signal:
                continue
            for successor in net.postset(node):
                frontier.append((successor, was_off))
            continue
        # node is a place
        if node not in qps:
            continue
        intersects = cover.intersects_cover(approximation.place_cover(node))
        if was_off and intersects:
            violations.append(
                f"cover of {transition} switches on again at place {node}"
            )
            continue
        next_off = was_off or not intersects
        for successor in net.postset(node):
            frontier.append((successor, next_off))
    return ConditionReport(not violations, violations)


# ---------------------------------------------------------------------- #
# Monotonicity — state-based oracle (Property 1)
# ---------------------------------------------------------------------- #


def check_monotonicity_state_based(
    stg: STG,
    regions: SignalRegions,
    signal: str,
    cover: Cover,
    direction: str,
) -> ConditionReport:
    """Property 1 checked on the exact regions.

    For a set function (``direction == '+'``): if the cover is on at a
    marking of GQR(signal=1), it must stay on at every predecessor marking of
    that marking inside GQR(signal=1) — i.e. the cover may fall at most once
    inside the quiescent region and never rise again.  The formulation below
    follows the paper: for every marking of the generalized quiescent region
    whose code is covered, the codes of all *previous* markings of the region
    along any path from the excitation region must be covered too.

    Computed over state-index bitsets: ``bad`` are the uncovered quiescent
    states outside the excitation region, and the violators are the covered
    quiescent states with a predecessor in ``bad``; one message per violator,
    in state order.  :func:`_reference_check_monotonicity_state_based` is the
    per-state predecessor loop.
    """
    value = 1 if direction == "+" else 0
    quiescent = regions.gqr_bits(signal, value)
    excitation = regions.ger_bits(signal, direction)
    encoded = regions.encoded
    covered = _covered_states(cover, encoded.state_columns(), encoded.state_mask)
    bad = quiescent & ~excitation & ~covered
    indexed = encoded.indexed()
    succ = indexed.succ
    after_bad = 0
    for state in state_indices(bad):
        for _, target in succ[state]:
            after_bad |= 1 << target
    violations = [
        f"{signal}{direction}: cover rises again inside the "
        f"quiescent region at {indexed.marking_list[state]}"
        for state in state_indices(quiescent & covered & after_bad)
    ]
    return ConditionReport(not violations, violations)


def _covered_states(cover: Cover, columns: dict[str, int], mask: int) -> int:
    """States whose code some cube matches, ``code & care == value``.

    A literal on a variable outside the state codes reads that variable as
    0, exactly as the packed test does.
    """
    result = 0
    for cube in cover:
        acc = mask
        for variable, bound in cube._literals.items():
            column = columns.get(variable, 0)
            acc &= column if bound else mask & ~column
            if not acc:
                break
        result |= acc
    return result


def _reference_check_monotonicity_state_based(
    stg: STG,
    regions: SignalRegions,
    signal: str,
    cover: Cover,
    direction: str,
) -> ConditionReport:
    """Per-state reference of :func:`check_monotonicity_state_based`."""
    value = 1 if direction == "+" else 0
    quiescent = regions.gqr_bits(signal, value)
    excitation = regions.ger_bits(signal, direction)
    encoded = regions.encoded
    indexed = encoded.indexed()
    pred = indexed.pred
    codes = encoded.packed_codes
    cube_masks = [(cube.care_mask, cube.value_mask) for cube in cover]
    violations: list[str] = []
    region = quiescent | excitation
    pending = quiescent
    while pending:
        low = pending & -pending
        pending ^= low
        state = low.bit_length() - 1
        code = codes[state]
        if not any(code & care == val for care, val in cube_masks):
            continue
        # every predecessor inside the region must also be covered
        for _, source in pred[state]:
            source_bit = 1 << source
            if not region & source_bit:
                continue
            if excitation & source_bit:
                continue
            source_code = codes[source]
            if not any(source_code & care == val for care, val in cube_masks):
                violations.append(
                    f"{signal}{direction}: cover rises again inside the "
                    f"quiescent region at {indexed.marking_list[state]}"
                )
                break
    return ConditionReport(not violations, violations)
