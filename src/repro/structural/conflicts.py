"""Structural coding conflicts (Definition 11).

For a one-token SM-component, the marked regions of its places partition the
reachable markings (Property 7).  If the cover cubes of two places of the
same SM-component intersect, then either the cubes overestimate their marked
regions or two reachable markings share a binary code.  An STG free of
structural coding conflicts for some SM-cover has accurate enough
approximations for synthesis (Properties 12 and 13) and also satisfies USC.

This module detects the conflicts; the refinement of Section VII
(:mod:`repro.structural.refinement`) tries to eliminate the fake ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.boolean.cover import Cover
from repro.petri.smcover import StateMachineComponent
from repro.stg.stg import STG


@dataclass(frozen=True)
class StructuralConflict:
    """A pair of places of one SM-component with intersecting cover functions."""

    component: StateMachineComponent
    first: str
    second: str

    @property
    def places(self) -> frozenset[str]:
        """The two conflicting places."""
        return frozenset((self.first, self.second))

    def __repr__(self) -> str:
        return f"StructuralConflict({self.first}, {self.second})"


def find_structural_conflicts(
    stg: STG,
    cover_functions: dict[str, Cover],
    sm_cover: list[StateMachineComponent],
) -> list[StructuralConflict]:
    """All structural coding conflicts of an STG over an SM-cover."""
    del stg  # the check only needs the cover functions and the SM-cover
    conflicts: list[StructuralConflict] = []
    seen: set[tuple[frozenset[str], frozenset[str]]] = set()
    for component in sm_cover:
        members = sorted(component.places)
        for i, first in enumerate(members):
            for second in members[i + 1:]:
                cover_first = cover_functions.get(first)
                cover_second = cover_functions.get(second)
                if cover_first is None or cover_second is None:
                    continue
                if cover_first.intersects_cover(cover_second):
                    key = (component.places, frozenset((first, second)))
                    if key in seen:
                        continue
                    seen.add(key)
                    conflicts.append(StructuralConflict(component, first, second))
    return conflicts
