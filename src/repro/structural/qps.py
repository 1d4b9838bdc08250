"""Quiescent place sets and backward place sets (Fig. 10, Appendix E).

The domain used to approximate the quiescent region QR(t) of a signal
transition is its *quiescent place set* QPS(t): every place interleaved
between ``t`` and some successor transition of the same signal.  Structurally
this is the set of places visited by a forward search from ``t`` that stops
at transitions of the signal.

The *backward place set* BPS(t) plays the same role for the backward
quiescent region BR(t) (Appendix E): the places interleaved between the
predecessor transitions of the signal and ``t``, obtained by the symmetric
backward search.

The walks run on the bit-packed kernel: places are bits of the compiled
net's ``pre_masks``/``post_masks``, a walk is a mask fixed point (a
transition is reached as soon as any of its adjacent places is visited, and
expands to its far-side places unless it carries the walked signal), and the
intersections that define QPS/BPS are single AND operations.  Per-transition
walk results are memoised within one ``compute_*`` call, so the backward
walks shared by many successors are computed once.  The node-at-a-time BFS
is retained as :func:`_directional_place_walk` — the differential-test
oracle.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.petri.compiled import compile_net
from repro.stg.stg import STG


def _engine_for(stg: STG) -> "_WalkEngine":
    """Walk engine for an STG, cached on the net's structural version.

    ``compute_qps`` and ``compute_backward_place_sets`` are typically called
    back to back on the same STG (the approximation front-end); sharing the
    engine shares the per-transition walk memos between them.
    """
    version = getattr(stg.net, "_version", None)
    cached = getattr(stg, "_walk_engine_cache", None)
    if cached is not None and cached[0] == version:
        return cached[1]
    engine = _WalkEngine(stg)
    try:
        stg._walk_engine_cache = (version, engine)
    except AttributeError:
        pass  # STG-like object without attribute support; skip caching
    return engine


class _WalkEngine:
    """Mask-based directional walks over one STG's compiled net."""

    def __init__(self, stg: STG):
        compiled = compile_net(stg.net)
        self.compiled = compiled
        self.place_names = compiled.place_names
        self.transition_index = compiled.transition_index
        self.signal_of = [
            stg.signal_of(name) for name in compiled.transition_names
        ]
        self._cache: dict[tuple[int, bool], tuple[int, int]] = {}

    def walk(self, transition: int, forward: bool) -> tuple[int, int]:
        """``(places_mask, boundary_transition_mask)`` of a directional walk.

        Starting from the far-side places of ``transition``, a transition is
        visited once any adjacent place on the walk's near side is visited;
        same-signal transitions become boundary and do not expand.
        """
        key = (transition, forward)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        compiled = self.compiled
        pre_masks = compiled.pre_masks
        post_masks = compiled.post_masks
        into, out_of = (
            (pre_masks, post_masks) if forward else (post_masks, pre_masks)
        )
        signal = self.signal_of[transition]
        signal_of = self.signal_of
        places = out_of[transition]
        visited = 0
        boundary = 0
        changed = True
        while changed:
            changed = False
            for u, reach in enumerate(into):
                bit = 1 << u
                if visited & bit or not reach & places:
                    continue
                visited |= bit
                changed = True
                if signal_of[u] == signal:
                    boundary |= bit
                    continue
                expand = out_of[u] & ~places
                if expand:
                    places |= expand
        result = (places, boundary)
        self._cache[key] = result
        return result

    def names_of_places(self, mask: int) -> set[str]:
        names = self.place_names
        result: set[str] = set()
        while mask:
            low = mask & -mask
            result.add(names[low.bit_length() - 1])
            mask ^= low
        return result

    def names_of_transitions(self, mask: int) -> set[str]:
        names = self.compiled.transition_names
        result: set[str] = set()
        while mask:
            low = mask & -mask
            result.add(names[low.bit_length() - 1])
            mask ^= low
        return result


def _directional_place_walk(
    stg: STG,
    transition: str,
    forward: bool,
) -> tuple[set[str], set[str]]:
    """Reference node-at-a-time walk (differential-test oracle).

    Returns ``(places, boundary_transitions)`` where ``places`` are the
    places visited and ``boundary_transitions`` the same-signal transitions
    at which the walk stopped.
    """
    net = stg.net
    signal = stg.signal_of(transition)
    places: set[str] = set()
    boundary: set[str] = set()
    visited: set[str] = set()
    frontier: deque[str] = deque()
    neighbours = net.postset(transition) if forward else net.preset(transition)
    for node in neighbours:
        frontier.append(node)
    while frontier:
        node = frontier.popleft()
        if node in visited:
            continue
        visited.add(node)
        if net.is_transition(node):
            if stg.signal_of(node) == signal:
                boundary.add(node)
                continue
            next_nodes = net.postset(node) if forward else net.preset(node)
        else:
            places.add(node)
            next_nodes = net.postset(node) if forward else net.preset(node)
        for successor in next_nodes:
            if successor not in visited:
                frontier.append(successor)
    return places, boundary


def compute_qps(
    stg: STG,
    transitions: Optional[list[str]] = None,
    next_relation: Optional[dict[str, set[str]]] = None,
) -> dict[str, set[str]]:
    """Quiescent place sets QPS(t) for the given transitions (default: all).

    ``QPS(t)`` contains every place *interleaved* between ``t`` and some
    successor transition ``t' ∈ next(t)``: the place must be reachable from
    ``t`` without crossing another transition of the signal, and a successor
    transition must be reachable from the place the same way (equivalently,
    the place is backward-reachable from a successor).  The second condition
    keeps places of concurrent branches — whose marked regions extend outside
    the quiescent region — out of the domain.

    ``next_relation`` supplies the successors (the structural ``next``
    relation of Property 4); without it, the same-signal transitions found by
    the unrestricted forward walk are used, which is a coarser domain.
    """
    engine = _engine_for(stg)
    tindex = engine.transition_index
    result: dict[str, set[str]] = {}
    targets = transitions if transitions is not None else stg.transitions
    for transition in targets:
        t = tindex[transition]
        forward_places, walk_boundary = engine.walk(t, forward=True)
        if next_relation is not None:
            successors = next_relation.get(transition, set())
        else:
            successors = engine.names_of_transitions(walk_boundary)
        # Places from which a successor transition is reachable = places on
        # the backward walks from the successors.
        reach_back = 0
        for successor in successors:
            index = tindex.get(successor)
            if index is None:
                continue
            places, _ = engine.walk(index, forward=False)
            reach_back |= places
        result[transition] = engine.names_of_places(forward_places & reach_back)
    return result


def compute_backward_place_sets(
    stg: STG,
    transitions: Optional[list[str]] = None,
    next_relation: Optional[dict[str, set[str]]] = None,
) -> dict[str, set[str]]:
    """Backward place sets BPS(t) (Appendix E).

    ``BPS(t)`` contains every place interleaved between a predecessor
    transition of the signal and ``t``: backward-reachable from ``t`` without
    crossing another transition of the signal, and forward-reachable from a
    predecessor transition of the signal the same way.
    """
    engine = _engine_for(stg)
    tindex = engine.transition_index
    result: dict[str, set[str]] = {}
    targets = transitions if transitions is not None else stg.transitions
    predecessors_of: dict[str, set[str]] = {}
    if next_relation is not None:
        for source, successors in next_relation.items():
            for successor in successors:
                predecessors_of.setdefault(successor, set()).add(source)
    for transition in targets:
        t = tindex[transition]
        backward_places, walk_boundary = engine.walk(t, forward=False)
        if next_relation is not None:
            predecessors = predecessors_of.get(transition, set())
        else:
            predecessors = engine.names_of_transitions(walk_boundary)
        reach_forward = 0
        for predecessor in predecessors:
            index = tindex.get(predecessor)
            if index is None:
                continue
            places, _ = engine.walk(index, forward=True)
            reach_forward |= places
        result[transition] = engine.names_of_places(
            backward_places & reach_forward
        )
    return result
