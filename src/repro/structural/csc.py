"""Structural detection of complete state coding (Theorems 14 and 15).

A CSC violation manifests structurally: some place in the preset of an output
transition conflicts, inside every SM-component containing it, with another
place (Theorem 14).  Conversely, if for every place in the preset of an
output transition there exists an SM-component of the cover in which the
place has no structural coding conflict, the STG satisfies CSC (Theorem 15).

The check is conservative in the safe direction: it may report "unknown" for
an STG that actually satisfies CSC (the structural conflicts are then treated
as real and state-signal insertion would be required), but it never certifies
CSC for an STG that violates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.boolean.cover import Cover
from repro.petri.smcover import StateMachineComponent
from repro.stg.stg import STG
from repro.structural.refinement import place_has_conflict_in_component


@dataclass
class StructuralCSCReport:
    """Result of the structural CSC analysis."""

    satisfied: bool
    unresolved_places: list[str] = field(default_factory=list)
    witnesses: dict[str, frozenset[str]] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.satisfied


def output_preset_places(stg: STG) -> set[str]:
    """Places in the preset of some non-input (output/internal) transition."""
    places: set[str] = set()
    for transition in stg.transitions:
        if stg.is_input(stg.signal_of(transition)):
            continue
        places |= stg.net.preset(transition)
    return places


def _signals_with_place_in_preset(stg: STG, place: str) -> set[tuple[str, str]]:
    """Pairs ``(signal, direction)`` of the transitions consuming ``place``."""
    result: set[tuple[str, str]] = set()
    for transition in stg.net.postset(place):
        result.add((stg.signal_of(transition), stg.direction_of(transition)))
    return result


def _conflict_is_benign(
    stg: STG,
    place: str,
    cover_functions: dict[str, Cover],
    component: StateMachineComponent,
) -> bool:
    """Theorem-14-based argument that the conflicts of ``place`` are benign.

    If every place of the component whose cover intersects the cover of
    ``place`` consumes into transitions of the same signals and directions as
    ``place`` does, then a marking sharing the binary code enables the same
    output events, so the code sharing is compatible with CSC (this is the
    argument the paper applies to the p2/p9 conflict of the running example).
    """
    own_events = _signals_with_place_in_preset(stg, place)
    if not own_events:
        return False
    own = cover_functions[place]
    for other in component.places:
        if other == place:
            continue
        if not own.intersects_cover(cover_functions[other]):
            continue
        other_events = _signals_with_place_in_preset(stg, other)
        if other_events != own_events:
            return False
    return True


def check_csc_structural(
    stg: STG,
    cover_functions: dict[str, Cover],
    sm_cover: list[StateMachineComponent],
) -> StructuralCSCReport:
    """Theorems 14/15: certify CSC from the structural coding conflicts.

    For every place in the preset of an output transition, look for an
    SM-component of the cover containing the place in which it has no
    structural coding conflict (Theorem 15).  A place whose remaining
    conflicts are all with places feeding the *same* signal events is also
    accepted (the Theorem-14-based argument of Section VII-B2: such code
    sharing relates markings that enable the same output transitions).
    """
    unresolved: list[str] = []
    witnesses: dict[str, frozenset[str]] = {}
    for place in sorted(output_preset_places(stg)):
        containing = [c for c in sm_cover if place in c.places]
        witness = None
        for component in containing:
            if not place_has_conflict_in_component(place, cover_functions, component):
                witness = component
                break
        if witness is None:
            for component in containing:
                if _conflict_is_benign(stg, place, cover_functions, component):
                    witness = component
                    break
        if witness is None:
            unresolved.append(place)
        else:
            witnesses[place] = witness.places
    return StructuralCSCReport(
        satisfied=not unresolved,
        unresolved_places=unresolved,
        witnesses=witnesses,
    )
