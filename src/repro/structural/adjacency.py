"""Structural adjacency between transitions of the same signal.

A transition ``t2`` is a *successor* of ``t1`` (``t2 ∈ next(t1)``) when some
feasible sequence fires ``t1`` and later ``t2`` without any other transition
of the same signal in between (Section II-B).  The paper characterizes this
relation structurally:

* **Property 4 (necessary)** — there is a simple path from ``t1`` to ``t2``
  that contains no other transition of the signal and no place concurrent to
  the signal;
* **Property 5 (sufficient)** — additionally, the path must survive the
  *forward reduction* of the net by the signal transitions concurrent to its
  places (this rules out the pathological situation of Fig. 8(a)).

Both characterizations are implemented here: the necessary-condition search
(:func:`structural_next_relation`, linear per transition), the forward
reduction procedure (:func:`forward_reduction`), and the combined search
(:func:`structural_next_relation_checked`) which applies the sufficient
condition when asked for.

The searches run on the worklist walk kernel of :mod:`repro.structural.qps`:
a forward walk from the transition's output places that stops at the
signal's transitions and is not expanded through — nor records — the places
concurrent to the signal (one mask per signal).  The name-based BFS is kept
as :func:`_reference_path_successors`, the differential-test oracle.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.petri.net import PetriNet
from repro.stg.stg import STG
from repro.structural.concurrency import ConcurrencyRelation
from repro.structural.qps import _WalkEngine, _engine_for


def forward_reduction(net: PetriNet, removed_transitions: set[str]) -> PetriNet:
    """Forward reduction ``FR(N, T')`` of the paper (Section V-B).

    Removes the given transitions and then, iteratively, every node that can
    no longer be reached without firing one of them: a transition is removed
    when all of its input places have been removed, and a place is removed
    when all of its input transitions have been removed.  Nodes that are
    initially marked stay (their tokens do not depend on any firing).
    """
    reduced = net.copy(f"{net.name}_fr")
    for transition in removed_transitions:
        if reduced.is_transition(transition):
            reduced.remove_transition(transition)
    marked = set(net.initial_marking.marked_places)
    changed = True
    while changed:
        changed = False
        for transition in list(reduced.transitions):
            preset = reduced.preset(transition)
            if not preset:
                # All input places removed: the transition is unreachable.
                if net.preset(transition):
                    reduced.remove_transition(transition)
                    changed = True
            continue
        for place in list(reduced.places):
            if place in marked:
                continue
            if not reduced.preset(place) and net.preset(place):
                reduced.remove_place(place)
                changed = True
    return reduced


def _path_successors(
    stg: STG,
    start: str,
    signal: str,
    stop_places: int = 0,
    net: Optional[PetriNet] = None,
) -> set[str]:
    """Forward search from ``start`` avoiding other transitions of ``signal``.

    Returns the transitions of ``signal`` reached first along some path that
    passes no place of ``stop_places`` (a mask over the net's places).
    """
    engine = _engine_for(stg) if net is None else _WalkEngine(stg, net)
    index = engine.transition_index.get(start)
    if index is None:
        return set()
    stop = engine.signal_masks.get(signal, 0)
    _, reached = engine.reach(
        engine.compiled.post_masks[index], True, stop, stop_places
    )
    return engine.names_of_transitions(reached & stop)


def _reference_path_successors(
    stg: STG,
    start: str,
    signal: str,
    allowed_place,
    net: Optional[PetriNet] = None,
) -> tuple[set[str], set[str]]:
    """Name-based :func:`_path_successors` (differential oracle).

    Returns ``(adjacent, visited_places)`` where ``adjacent`` are the
    transitions of ``signal`` reached first along some path, and
    ``visited_places`` the places traversed before reaching them.
    """
    graph = net if net is not None else stg.net
    adjacent: set[str] = set()
    visited: set[str] = set()
    visited_places: set[str] = set()
    frontier: deque[str] = deque()
    if not graph.has_node(start):
        return adjacent, visited_places
    for node in graph.postset(start):
        frontier.append(node)
    while frontier:
        node = frontier.popleft()
        if node in visited:
            continue
        visited.add(node)
        if graph.is_transition(node):
            label = stg.label(node)
            if label.signal == signal:
                adjacent.add(node)
                continue  # do not search past another transition of the signal
            for successor in graph.postset(node):
                if successor not in visited:
                    frontier.append(successor)
        else:
            if not allowed_place(node):
                continue
            visited_places.add(node)
            for successor in graph.postset(node):
                if successor not in visited:
                    frontier.append(successor)
    return adjacent, visited_places


def structural_next_relation(
    stg: STG,
    concurrency: ConcurrencyRelation,
    transitions: Optional[list[str]] = None,
) -> dict[str, set[str]]:
    """``next`` relation based on the necessary conditions (Property 4).

    For every requested transition, a forward walk through
    places non-concurrent to the signal and transitions of other signals
    collects the signal transitions reached first.  Any path found this way
    can be shortened to a simple path, so graph reachability in the restricted
    net captures exactly the paths of Property 4.
    """
    concurrent_to = _engine_for(stg).scr_place_masks(concurrency)
    result: dict[str, set[str]] = {}
    targets = transitions if transitions is not None else stg.transitions
    for transition in targets:
        signal = stg.signal_of(transition)
        result[transition] = _path_successors(
            stg, transition, signal, concurrent_to(signal)
        )
    return result


def structural_next_relation_checked(
    stg: STG,
    concurrency: ConcurrencyRelation,
    transitions: Optional[list[str]] = None,
) -> dict[str, set[str]]:
    """``next`` relation using Property 4 plus the sufficient condition.

    The search of Property 4 (restricted to non-concurrent places) is first
    applied.  Additionally, a second search that allows *all* places is run
    on the forward reduction of the net by the signal transitions: paths that
    only exist through concurrent places survive only if they remain
    realizable after removing the transitions of the signal (Property 5).
    Successors found by either search are reported, keeping the relation a
    safe over-approximation of the behavioural ``next``.
    """
    necessary = structural_next_relation(stg, concurrency, transitions)
    result: dict[str, set[str]] = {}
    targets = transitions if transitions is not None else stg.transitions
    for transition in targets:
        signal = stg.signal_of(transition)
        others = set(stg.transitions_of_signal(signal)) - {transition}
        reduced = forward_reduction(stg.net, others)
        extra: set[str] = set()
        if reduced.has_node(transition):
            # Paths through concurrent places, restricted to the reduced net:
            # a successor found here is realizable without firing other
            # transitions of the signal first.
            extra = _path_successors(stg, transition, signal, net=reduced)
        result[transition] = necessary.get(transition, set()) | extra
    return result
