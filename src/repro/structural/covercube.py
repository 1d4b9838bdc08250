"""Marked regions and their single-cube approximations (Section V-C/D).

The marked region MR(p) of a place is the set of reachable markings in which
the place carries a token (Definition 6).  Its binary codes are approximated
by a single *cover cube* (Lemma 10): a signal concurrent to the place
contributes no literal (its value can change while the place is marked); a
signal non-concurrent to the place contributes the literal corresponding to
its (constant) value inside the marked region, which is determined by the
*interleave relation* — the direction of the signal transition after which
the place can become marked without any further transition of the signal.

All computations are graph searches on the STG structure restricted by the
concurrency relation; nothing touches the reachability graph.  They run on
the worklist walk kernel of :mod:`repro.structural.qps` over place masks: a
walk stops at the signal's transitions (a stop-transition mask) and does not
expand through the places concurrent to the signal (a stop-place mask,
answered once per signal from the relation's rows).  The values a signal can
take while a place is marked are two masks, one per value.  The name-based
breadth-first searches are kept as ``_reference_*`` functions, the
differential-test oracles.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.boolean.cube import Cube
from repro.stg.stg import STG
from repro.structural.concurrency import ConcurrencyRelation, compute_concurrency_relation
from repro.structural.qps import _WalkEngine, _engine_for


def _value_masks(
    stg: STG,
    engine: _WalkEngine,
    signal: str,
    initial_value: Optional[int],
    concurrent: int,
) -> tuple[int, int]:
    """Masks of the places where ``signal`` can be 0 / can be 1.

    ``concurrent`` is the mask of the places concurrent to the signal: they
    are reached but not expanded (the Property-4 restriction).
    """
    stop = engine.signal_masks.get(signal, 0)
    post_masks = engine.compiled.post_masks
    tindex = engine.transition_index
    can_be = [0, 0]
    for transition in stg.transitions_of_signal(signal):
        label = stg.label(transition)
        if label.direction not in "+-":
            continue
        places, _ = engine.reach(
            post_masks[tindex[transition]], True, stop, concurrent
        )
        can_be[label.target_value] |= places
    if initial_value is not None:
        marked = engine.places_mask(stg.initial_marking.marked_places)
        places, _ = engine.reach(marked, True, stop, concurrent)
        can_be[initial_value] |= places
    return can_be[0], can_be[1]


def _reference_nodes_reached_without_signal(
    stg: STG,
    signal: str,
    sources: list[str],
    concurrency: Optional[ConcurrencyRelation] = None,
) -> set[str]:
    """Nodes reachable from ``sources`` without traversing a ``signal``
    transition (the sources themselves may be transitions of the signal —
    their own firing is the starting point and is allowed).

    When a concurrency relation is given, the walk only traverses places
    non-concurrent to the signal — the necessary path condition of
    Property 4, which prunes structurally present but unrealizable paths and
    is what keeps the cover cubes tight.
    """
    net = stg.net
    visited: set[str] = set()
    frontier: deque[str] = deque()
    for source in sources:
        for node in net.postset(source):
            frontier.append(node)
    while frontier:
        node = frontier.popleft()
        if node in visited:
            continue
        visited.add(node)
        if net.is_transition(node):
            if stg.signal_of(node) == signal:
                continue  # stop: a transition of the signal changes its value
        elif concurrency is not None and concurrency.node_concurrent_with_signal(
            node, signal
        ):
            # The place is still recorded as reached (its value contribution
            # is irrelevant because concurrent places carry no literal), but
            # paths through it are not necessarily realizable without firing
            # the signal, so the walk does not continue past it.
            continue
        for successor in net.postset(node):
            if successor not in visited:
                frontier.append(successor)
    return visited


def signal_value_at_places(
    stg: STG,
    signal: str,
    initial_value: Optional[int] = None,
    concurrency: Optional[ConcurrencyRelation] = None,
) -> dict[str, Optional[int]]:
    """The (structural) value of ``signal`` while each place is marked.

    For every place the set of possible values is accumulated from:

    * the target value of every ``signal`` transition from which the place is
      reachable without crossing another ``signal`` transition (the place is
      interleaved after that transition);
    * the initial value of the signal, if the place can be marked before any
      transition of the signal fires (it is reachable from the initially
      marked places without crossing a ``signal`` transition, or is itself
      initially marked).

    Places with a single possible value get that value; places with no or
    several possible values get ``None`` (don't-care in the cover cube).
    Consistent STGs never produce several values for a place non-concurrent
    to the signal (Property 9).
    """
    engine = _engine_for(stg)
    concurrent = engine.scr_place_masks(concurrency)(signal)
    zeros, ones = _value_masks(stg, engine, signal, initial_value, concurrent)
    result: dict[str, Optional[int]] = {}
    for i, place in enumerate(engine.place_names):
        zero = zeros >> i & 1
        if zero != ones >> i & 1:
            result[place] = 1 - zero
        else:
            result[place] = None
    return result


def _reference_signal_value_at_places(
    stg: STG,
    signal: str,
    initial_value: Optional[int] = None,
    concurrency: Optional[ConcurrencyRelation] = None,
) -> dict[str, Optional[int]]:
    """Name-based :func:`signal_value_at_places` (differential oracle)."""
    possible: dict[str, set[int]] = {place: set() for place in stg.places}

    # Values imposed by preceding signal transitions.
    for transition in stg.transitions_of_signal(signal):
        label = stg.label(transition)
        if label.direction not in "+-":
            continue
        reached = _reference_nodes_reached_without_signal(
            stg, signal, [transition], concurrency
        )
        for node in reached:
            if node in possible:
                possible[node].add(label.target_value)

    # Values imposed by the initial marking.  The walk follows the same
    # Property-4 restriction as the walks from the signal transitions: it
    # only continues past places non-concurrent to the signal (including the
    # initially marked seed places).
    if initial_value is not None:
        marked = sorted(stg.initial_marking.marked_places)
        initially_reachable = set(marked)
        net = stg.net
        frontier: deque[str] = deque()
        for place in marked:
            if concurrency is not None and concurrency.node_concurrent_with_signal(
                place, signal
            ):
                continue
            for node in net.postset(place):
                frontier.append(node)
        visited: set[str] = set()
        while frontier:
            node = frontier.popleft()
            if node in visited:
                continue
            visited.add(node)
            if net.is_transition(node):
                if stg.signal_of(node) == signal:
                    continue
            else:
                initially_reachable.add(node)
                if concurrency is not None and concurrency.node_concurrent_with_signal(
                    node, signal
                ):
                    continue
            for successor in net.postset(node):
                if successor not in visited:
                    frontier.append(successor)
        for place in initially_reachable:
            possible[place].add(initial_value)

    result: dict[str, Optional[int]] = {}
    for place, values in possible.items():
        if len(values) == 1:
            result[place] = next(iter(values))
        else:
            result[place] = None
    return result


def structural_initial_values(
    stg: STG,
    concurrency: Optional[ConcurrencyRelation] = None,
) -> dict[str, int]:
    """Infer the initial binary value of every signal structurally.

    The value is 0 when a rising transition of the signal is reachable from
    the initial marking without crossing another transition of the signal,
    and 1 when a falling transition is.  Declared values take precedence;
    signals whose first transition cannot be determined default to 0.

    The search only traverses places non-concurrent to the signal (the
    Property-4 path restriction) so that unrealizable structural paths do
    not contribute a spurious direction.
    """
    values = dict(stg.initial_values)
    engine = _engine_for(stg)
    concurrent_to = engine.scr_place_masks(concurrency)
    marked = engine.places_mask(stg.initial_marking.marked_places)
    for signal in stg.signal_names:
        if signal in values:
            continue
        stop = engine.signal_masks.get(signal, 0)
        _, reached = engine.reach(marked, True, stop, concurrent_to(signal))
        first_directions = {
            stg.direction_of(transition)
            for transition in engine.names_of_transitions(reached & stop)
        }
        values[signal] = 1 if first_directions & {"+", "-"} == {"-"} else 0
    return values


def _reference_structural_initial_values(
    stg: STG,
    concurrency: Optional[ConcurrencyRelation] = None,
) -> dict[str, int]:
    """Name-based :func:`structural_initial_values` (differential oracle)."""
    values = dict(stg.initial_values)
    net = stg.net
    marked = sorted(stg.initial_marking.marked_places)
    for signal in stg.signal_names:
        if signal in values:
            continue
        first_directions: set[str] = set()
        visited: set[str] = set()
        frontier: deque[str] = deque(marked)
        while frontier:
            node = frontier.popleft()
            if node in visited:
                continue
            visited.add(node)
            if net.is_transition(node):
                if stg.signal_of(node) == signal:
                    direction = stg.direction_of(node)
                    if direction in "+-":
                        first_directions.add(direction)
                    continue
            elif concurrency is not None and concurrency.node_concurrent_with_signal(
                node, signal
            ):
                continue
            for successor in net.postset(node):
                if successor not in visited:
                    frontier.append(successor)
        if first_directions == {"+"}:
            values[signal] = 0
        elif first_directions == {"-"}:
            values[signal] = 1
        else:
            values[signal] = 0
    return values


def compute_cover_cubes(
    stg: STG,
    concurrency: Optional[ConcurrencyRelation] = None,
    initial_values: Optional[dict[str, int]] = None,
) -> dict[str, Cube]:
    """The single-cube approximation of every marked region (Lemma 10).

    Returns a mapping ``place -> Cube`` over the signal variables.  The cube
    for MR(p) has, for every signal non-concurrent to ``p``, the literal of
    the signal's constant value inside MR(p); signals concurrent to ``p``
    contribute no literal.
    """
    if concurrency is None:
        concurrency = compute_concurrency_relation(stg)
    if initial_values is None:
        initial_values = structural_initial_values(stg, concurrency)
    engine = _engine_for(stg)
    concurrent_to = engine.scr_place_masks(concurrency)
    names = engine.place_names

    literals: list[dict[str, int]] = [{} for _ in names]
    for signal in stg.signal_names:
        concurrent = concurrent_to(signal)
        zeros, ones = _value_masks(
            stg, engine, signal, initial_values.get(signal), concurrent
        )
        # one possible value, and constant while the place is marked
        fixed = (zeros ^ ones) & ~concurrent
        while fixed:
            low = fixed & -fixed
            literals[low.bit_length() - 1][signal] = 1 if ones & low else 0
            fixed ^= low
    return {place: Cube(assignment) for place, assignment in zip(names, literals)}


def _reference_compute_cover_cubes(
    stg: STG,
    concurrency: ConcurrencyRelation,
    initial_values: dict[str, int],
) -> dict[str, Cube]:
    """Name-based :func:`compute_cover_cubes` (differential oracle)."""
    literals: dict[str, dict[str, int]] = {place: {} for place in stg.places}
    for signal in stg.signal_names:
        values = _reference_signal_value_at_places(
            stg, signal, initial_values.get(signal), concurrency
        )
        for place in stg.places:
            if concurrency.node_concurrent_with_signal(place, signal):
                continue  # value changes while the place is marked
            value = values.get(place)
            if value is not None:
                literals[place][signal] = value
    return {place: Cube(assignment) for place, assignment in literals.items()}


def cover_cube_table(stg: STG, cubes: dict[str, Cube]) -> dict[str, str]:
    """Positional-cube strings for all places (Table III of the paper)."""
    return {place: cube.to_string(stg.signal_names) for place, cube in cubes.items()}
