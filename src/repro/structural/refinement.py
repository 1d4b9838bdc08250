"""Cover-function refinement using SM-components (Section VII, Figs. 11–12).

Single-cube approximations of marked regions may be overestimated.  Each
SM-component of an SM-cover describes a partial behaviour of the STG: the
whole reachability set projects onto its places (Property 7).  Therefore the
cover function of a place ``p`` can be refined by intersecting it with the
union of the cover functions of the places of another SM-component that are
concurrent to ``p`` (composition in the net domain corresponds to
intersection in the Boolean domain):

``C(p) := C(p) ∩ ( Σ_{q ∈ SM, q ∥ p or q = p} C(q) )``

A structural coding conflict between two places of an SM-component is *fake*
when one of them has no conflict inside some other SM-component that contains
it (the conflicting binary code is then unreachable).  In that case the other
SM-component is used to refine the cover functions — following the paper, the
refinement is applied to every place of the STG, which is what gives the
better minimization results reported in Section VII-B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.boolean.cover import Cover
from repro.petri.smcover import StateMachineComponent
from repro.stg.stg import STG
from repro.structural.concurrency import ConcurrencyRelation
from repro.structural.conflicts import StructuralConflict, find_structural_conflicts


@dataclass
class RefinementResult:
    """Outcome of the refinement loop."""

    cover_functions: dict[str, Cover]
    eliminated_conflicts: list[StructuralConflict] = field(default_factory=list)
    remaining_conflicts: list[StructuralConflict] = field(default_factory=list)
    refining_components: list[StateMachineComponent] = field(default_factory=list)
    passes: int = 0

    @property
    def conflict_free(self) -> bool:
        """True when no structural coding conflict remains."""
        return not self.remaining_conflicts


def refine_place_by_component(
    stg: STG,
    place: str,
    cover_functions: dict[str, Cover],
    component: StateMachineComponent,
    concurrency: ConcurrencyRelation,
) -> Cover:
    """Refinement of one place's cover function by one SM-component (Fig. 11).

    Only the places of the component that can be simultaneously marked with
    ``place`` (concurrent to it, or the place itself) contribute to the sum:
    the marked regions of the others do not intersect MR(place).
    """
    relevant = [
        other for other in component.places
        if other == place or concurrency.are_concurrent(other, place)
    ]
    if not relevant:
        return cover_functions[place]
    union = Cover.union_all(
        (cover_functions[other] for other in sorted(relevant)), stg.signal_names
    )
    return cover_functions[place].intersection(union).with_variables(stg.signal_names)


def place_has_conflict_in_component(
    place: str,
    cover_functions: dict[str, Cover],
    component: StateMachineComponent,
) -> bool:
    """True if ``place`` conflicts with another place of the component."""
    own = cover_functions[place]
    for other in component.places:
        if other == place:
            continue
        if own.intersects_cover(cover_functions[other]):
            return True
    return False


def find_refining_component(
    place: str,
    cover_functions: dict[str, Cover],
    sm_cover: list[StateMachineComponent],
) -> Optional[StateMachineComponent]:
    """Find an SM-component containing ``place`` with no conflicts for it.

    Such a component witnesses that the conflicting codes of ``place`` are
    unreachable and can be used to refine the other cover functions
    (Section VII-B1).
    """
    for component in sm_cover:
        if place not in component.places:
            continue
        if not place_has_conflict_in_component(place, cover_functions, component):
            return component
    return None


def refine_cover_functions(
    stg: STG,
    cover_functions: dict[str, Cover],
    sm_cover: list[StateMachineComponent],
    concurrency: ConcurrencyRelation,
    max_passes: int = 4,
) -> RefinementResult:
    """The refinement loop of Fig. 12.

    Repeatedly: detect structural coding conflicts; for every conflicting
    place that is conflict-free inside some other SM-component of the cover,
    use that component to refine the cover functions of *all* places;
    iterate until no conflicts remain, no further refinement applies, or the
    pass bound is reached.
    """
    current = dict(cover_functions)
    applied: set[frozenset[str]] = set()
    eliminated: list[StructuralConflict] = []
    refining: list[StateMachineComponent] = []
    passes = 0

    while passes < max_passes:
        passes += 1
        conflicts = find_structural_conflicts(stg, current, sm_cover)
        if not conflicts:
            break
        progress = False
        for conflict in conflicts:
            for place in sorted(conflict.places):
                component = find_refining_component(place, current, sm_cover)
                if component is None:
                    continue
                if component.places in applied:
                    continue
                applied.add(component.places)
                refining.append(component)
                # Refine every place of the STG by the witnessing component
                # (the paper's general application of refinement).
                updated: dict[str, Cover] = {}
                for other in stg.places:
                    refined = refine_place_by_component(
                        stg, other, current, component, concurrency
                    )
                    updated[other] = refined
                    if len(refined.cubes) != len(current[other].cubes) or \
                            not current[other].contains_cover(refined) or \
                            not refined.contains_cover(current[other]):
                        progress = True
                current = updated
                if progress:
                    eliminated.append(conflict)
                    break
            if progress:
                break
        if not progress:
            break

    remaining = find_structural_conflicts(stg, current, sm_cover)
    return RefinementResult(
        cover_functions=current,
        eliminated_conflicts=eliminated,
        remaining_conflicts=remaining,
        refining_components=refining,
        passes=passes,
    )
