"""Structural consistency verification (Section V-B, Fig. 9).

An STG is consistent when it has no autoconcurrent transitions and all its
firing sequences are switchover correct.  Both conditions are verified
structurally:

* nonautoconcurrency — no transition is concurrent with its own signal
  (checked on the signal concurrency relation);
* switchover correctness — every pair of adjacent transitions of the same
  signal (the structural ``next`` relation of Properties 4/5) has alternating
  switching directions.

The combined algorithm mirrors Fig. 9: necessary-condition adjacency is
computed first (lower complexity); the sufficient-condition search based on
forward reduction is only run when requested or when a signal's adjacency
looks incomplete (a transition with no successors in a live STG).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.stg.stg import STG
from repro.structural.adjacency import (
    structural_next_relation,
    structural_next_relation_checked,
)
from repro.structural.concurrency import ConcurrencyRelation, compute_concurrency_relation


@dataclass
class StructuralConsistencyReport:
    """Result of the structural consistency verification."""

    consistent: bool
    autoconcurrent_transitions: list[str] = field(default_factory=list)
    switchover_violations: list[tuple[str, str]] = field(default_factory=list)
    incomplete_transitions: list[str] = field(default_factory=list)
    next_relation: dict[str, set[str]] = field(default_factory=dict)
    used_sufficient_conditions: bool = False

    def __bool__(self) -> bool:
        return self.consistent


def find_autoconcurrent_transitions(
    stg: STG, concurrency: ConcurrencyRelation
) -> list[str]:
    """Transitions concurrent with some other transition of their own signal."""
    offending: list[str] = []
    for transition in stg.transitions:
        signal = stg.signal_of(transition)
        for other in stg.transitions_of_signal(signal):
            if other == transition:
                continue
            if concurrency.are_concurrent(transition, other):
                offending.append(transition)
                break
    return offending


def find_switchover_violations(
    stg: STG, next_relation: dict[str, set[str]]
) -> list[tuple[str, str]]:
    """Adjacent same-signal transitions with non-alternating directions."""
    violations: list[tuple[str, str]] = []
    for transition, successors in next_relation.items():
        direction = stg.direction_of(transition)
        if direction not in "+-":
            continue
        for successor in successors:
            successor_direction = stg.direction_of(successor)
            if successor_direction not in "+-":
                continue
            if successor_direction == direction:
                violations.append((transition, successor))
    return violations


def check_consistency_structural(
    stg: STG,
    concurrency: Optional[ConcurrencyRelation] = None,
    use_sufficient_conditions: bool = False,
    next_relation: Optional[dict[str, set[str]]] = None,
) -> StructuralConsistencyReport:
    """Structural consistency verification of a free-choice STG (Fig. 9).

    Parameters
    ----------
    use_sufficient_conditions:
        When True, the adjacency relation is recomputed with the
        forward-reduction based sufficient conditions (Property 5) for the
        signals whose necessary-condition adjacency looks incomplete.  The
        paper reports that for all practical benchmarks the necessary
        conditions already imply sufficiency, so this defaults to False.
    next_relation:
        The Property-4 relation of :func:`structural_next_relation`, when
        the caller computed it already; it is left as it is.
    """
    if concurrency is None:
        concurrency = compute_concurrency_relation(stg)

    autoconcurrent = find_autoconcurrent_transitions(stg, concurrency)

    if next_relation is None:
        next_relation = structural_next_relation(stg, concurrency)
    incomplete = [
        transition
        for transition, successors in next_relation.items()
        if not successors and len(stg.transitions_of_signal(stg.signal_of(transition))) > 1
    ]
    used_sufficient = False
    if use_sufficient_conditions and incomplete:
        used_sufficient = True
        refined = structural_next_relation_checked(stg, concurrency, incomplete)
        next_relation = dict(next_relation)
        for transition, successors in refined.items():
            next_relation[transition] = next_relation[transition] | successors

    switchover = find_switchover_violations(stg, next_relation)

    consistent = not autoconcurrent and not switchover
    return StructuralConsistencyReport(
        consistent=consistent,
        autoconcurrent_transitions=autoconcurrent,
        switchover_violations=switchover,
        incomplete_transitions=incomplete,
        next_relation=next_relation,
        used_sufficient_conditions=used_sufficient,
    )
