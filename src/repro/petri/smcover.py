"""State-machine components and SM-covers.

A state-machine component (SM-component) of a net is a strongly connected
subnet generated by a set of places such that every transition adjacent to
the set has exactly one input and one output place inside the set
(Section II-B).  Live and safe free-choice nets are covered by one-token
SM-components; the structural synthesis method uses an *SM-cover* — a subset
of one-token SM-components that together contain every place — both to detect
structural coding conflicts (Definition 11) and to refine cover functions
(Section VII).

The SM-component test (:func:`is_sm_component`) runs on the compiled net's
masks: the place set is one int, each adjacent transition is checked with
one AND per side (exactly one input and one output place in the set), and
strong connectivity is one forward and one backward closure over the
place-to-place edges those transitions induce.  The set-based test is kept
as :func:`_reference_is_sm_component`, the differential-test oracle.

Two computation routes are provided:

* :func:`compute_sm_components` — enumerate SM-components from the minimal
  place semiflows (Farkas algorithm in :mod:`repro.petri.invariants`);
* :func:`find_sm_component_containing` — targeted backtracking search for an
  SM-component containing a given place, which completes the cover when the
  semiflows leave a place uncovered and keeps the scalable benchmarks
  polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.petri.compiled import compile_net
from repro.petri.invariants import place_invariants
from repro.petri.net import PetriNet


@dataclass(frozen=True)
class StateMachineComponent:
    """An SM-component identified by its set of places.

    The adjacent transitions are implied by the net; they are stored for
    convenience.
    """

    places: frozenset[str]
    transitions: frozenset[str]

    def __contains__(self, node: str) -> bool:
        return node in self.places or node in self.transitions

    def __len__(self) -> int:
        return len(self.places)

    def __repr__(self) -> str:
        return f"SM({', '.join(sorted(self.places))})"

    def to_json(self) -> dict:
        """JSON-serializable form (sorted node lists)."""
        return {
            "places": sorted(self.places),
            "transitions": sorted(self.transitions),
        }

    @classmethod
    def from_json(cls, data: dict) -> "StateMachineComponent":
        """Rebuild a component from :meth:`to_json` output."""
        return cls(
            frozenset(data.get("places", ())),
            frozenset(data.get("transitions", ())),
        )


def _adjacent_transitions(net: PetriNet, places: frozenset[str]) -> frozenset[str]:
    transitions: set[str] = set()
    for place in places:
        transitions.update(net.preset(place))
        transitions.update(net.postset(place))
    return frozenset(transitions)


def is_sm_component(net: PetriNet, places: frozenset[str]) -> bool:
    """Check the SM-component conditions for a place set.

    Every adjacent transition must have exactly one input place and exactly
    one output place in the set, and the induced subnet must be strongly
    connected.  Each such transition is then one edge from its input place
    to its output place, so the subnet is strongly connected iff every
    place of the set reaches, and is reached from, one of them.
    """
    if not places:
        return False
    compiled = compile_net(net)
    index = compiled.place_index
    pre_masks = compiled.pre_masks
    post_masks = compiled.post_masks
    chosen = 0
    for place in places:
        chosen |= 1 << index[place]
    successors: dict[int, int] = {}  # place bit -> out-place bits
    predecessors: dict[int, int] = {}  # place bit -> in-place bits
    mask = chosen
    while mask:
        bit = mask & -mask
        mask ^= bit
        p = bit.bit_length() - 1
        # a transition consuming p has input p alone in the set and some
        # output in it; a transition producing p, output p alone and some
        # input.  Both sides of every adjacent transition are checked, so
        # it has exactly one input and one output place in the set.
        out_places = 0
        for t in compiled.consumers[p]:
            after = post_masks[t] & chosen
            if pre_masks[t] & chosen != bit or not after:
                return False
            out_places |= after
        in_places = 0
        for t in compiled.producers[p]:
            before = pre_masks[t] & chosen
            if post_masks[t] & chosen != bit or not before:
                return False
            in_places |= before
        successors[bit] = out_places
        predecessors[bit] = in_places
    root = chosen & -chosen
    return (
        _closure(root, successors) == chosen
        and _closure(root, predecessors) == chosen
    )


def _closure(start: int, edges: dict[int, int]) -> int:
    """Bits reachable from ``start`` along ``edges`` (bit -> target bits)."""
    reached = pending = start
    while pending:
        bit = pending & -pending
        pending ^= bit
        new = edges[bit] & ~reached
        reached |= new
        pending |= new
    return reached


def _reference_is_sm_component(net: PetriNet, places: frozenset[str]) -> bool:
    """Set-based :func:`is_sm_component` (differential oracle)."""
    if not places:
        return False
    transitions = _adjacent_transitions(net, places)
    for transition in transitions:
        if len(net.preset(transition) & places) != 1:
            return False
        if len(net.postset(transition) & places) != 1:
            return False
    nodes = places | transitions

    def reached(step) -> set[str]:
        start = next(iter(places))
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for other in step(node):
                if other in nodes and other not in seen:
                    seen.add(other)
                    frontier.append(other)
        return seen

    return reached(net.postset) == nodes and reached(net.preset) == nodes


def token_count(net: PetriNet, component: StateMachineComponent) -> int:
    """Number of initial tokens inside an SM-component."""
    marking = net.initial_marking
    return sum(marking[place] for place in component.places)


def make_component(net: PetriNet, places: frozenset[str]) -> StateMachineComponent:
    """Build an :class:`StateMachineComponent` from a validated place set."""
    return StateMachineComponent(places, _adjacent_transitions(net, places))


# ---------------------------------------------------------------------- #
# Enumeration via place semiflows
# ---------------------------------------------------------------------- #


def compute_sm_components(net: PetriNet) -> list[StateMachineComponent]:
    """The one-token SM-components obtained from the minimal place semiflows.

    Every minimal semiflow with 0/1 weights whose support satisfies the
    SM-component conditions yields a component; only the components holding
    exactly one initial token (the ones used by the synthesis method) are
    kept.
    """
    components: list[StateMachineComponent] = []
    for invariant in place_invariants(net):
        if any(weight != 1 for weight in invariant.values()):
            continue
        support = frozenset(invariant)
        if not is_sm_component(net, support):
            continue
        component = make_component(net, support)
        if token_count(net, component) != 1:
            continue
        components.append(component)
    return components


# ---------------------------------------------------------------------- #
# Targeted backtracking search
# ---------------------------------------------------------------------- #


def find_sm_component_containing(
    net: PetriNet,
    place: str,
    max_steps: int = 200_000,
) -> Optional[StateMachineComponent]:
    """Find an SM-component containing ``place``.

    The search incrementally builds the place set: for every transition
    adjacent to a chosen place, exactly one of its input places and exactly
    one of its output places must belong to the set, so each newly covered
    transition generates a choice point.  Backtracking explores the choices;
    ``max_steps`` bounds the effort.

    Returns ``None`` if no SM-component is found within the step bound.
    """
    steps = 0

    def search(chosen: dict[str, str], pending: list[tuple[str, str]]) -> Optional[frozenset[str]]:
        # ``chosen`` maps each processed (transition, side) key to the chosen
        # place; ``pending`` is the list of (transition, side) obligations.
        nonlocal steps
        steps += 1
        if steps > max_steps:
            return None
        if not pending:
            places = frozenset(chosen.values()) | {place}
            if not is_sm_component(net, places):
                return None
            return places
        (transition, side), rest = pending[0], pending[1:]
        key = f"{transition}|{side}"
        if key in chosen:
            return search(chosen, rest)
        candidates = net.preset(transition) if side == "in" else net.postset(transition)
        current_places = set(chosen.values()) | {place}
        already = candidates & current_places
        if len(already) > 1:
            return None
        if len(already) == 1:
            selected = next(iter(already))
            new_chosen = dict(chosen)
            new_chosen[key] = selected
            return search(new_chosen, rest)
        for candidate in sorted(candidates):
            # Adding ``candidate`` must not give any adjacent transition two
            # input places or two output places inside the current set.
            conflict = False
            for adjacent in net.postset(candidate):
                if (net.preset(adjacent) & current_places) - {candidate}:
                    conflict = True
                    break
            if not conflict:
                for adjacent in net.preset(candidate):
                    if (net.postset(adjacent) & current_places) - {candidate}:
                        conflict = True
                        break
            if conflict:
                continue
            new_chosen = dict(chosen)
            new_chosen[key] = candidate
            new_pending = list(rest)
            for adjacent in sorted(net.preset(candidate)):
                new_pending.append((adjacent, "out"))
                new_pending.append((adjacent, "in"))
            for adjacent in sorted(net.postset(candidate)):
                new_pending.append((adjacent, "in"))
                new_pending.append((adjacent, "out"))
            result = search(new_chosen, new_pending)
            if result is not None:
                return result
        return None

    initial_pending: list[tuple[str, str]] = []
    for transition in sorted(net.preset(place)):
        initial_pending.append((transition, "in"))
        initial_pending.append((transition, "out"))
    for transition in sorted(net.postset(place)):
        initial_pending.append((transition, "in"))
        initial_pending.append((transition, "out"))
    places = search({}, initial_pending)
    if places is None:
        return None
    return make_component(net, places)


# ---------------------------------------------------------------------- #
# SM-cover
# ---------------------------------------------------------------------- #


def compute_sm_cover(
    net: PetriNet,
    components: Optional[list[StateMachineComponent]] = None,
) -> list[StateMachineComponent]:
    """A set of one-token SM-components covering every place of the net.

    If a pre-computed component list is given, a covering subset is selected
    greedily.  Otherwise components are enumerated from the place semiflows
    and, if some places remain uncovered, targeted backtracking searches are
    attempted for them.

    Raises
    ------
    ValueError
        If no SM-cover exists within the search effort (for example for nets
        that are not state-machine coverable).
    """
    if components is None:
        components = compute_sm_components(net)
    uncovered = set(net.places)
    for component in components:
        uncovered -= component.places
    extra: list[StateMachineComponent] = []
    for place in sorted(uncovered):
        if not any(place in component.places for component in extra):
            found = find_sm_component_containing(net, place)
            if found is None:
                raise ValueError(
                    f"no SM-component containing place {place!r}; "
                    "the net is not state-machine coverable"
                )
            if token_count(net, found) != 1:
                raise ValueError(
                    f"SM-component for place {place!r} does not hold exactly one token"
                )
            extra.append(found)
    all_components = components + extra
    # Greedy selection of a covering subset (largest component first).
    remaining = set(net.places)
    cover: list[StateMachineComponent] = []
    for component in sorted(all_components, key=lambda c: -len(c.places)):
        if remaining & component.places:
            cover.append(component)
            remaining -= component.places
        if not remaining:
            break
    if remaining:
        raise ValueError(
            f"places not covered by any SM-component: {sorted(remaining)}"
        )
    return cover
