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

Every structural walk of the front-end runs on one kernel,
:meth:`_WalkEngine.reach`: a worklist over the compiled net's place-to-
transition tables (``consumers`` forward, ``producers`` backward).  A
transition is reached as soon as one adjacent place on the walk's near side
is expanded; unless it is a *stop transition* it adds its far-side places.
A *stop place* is recorded as reached but not expanded.  Each place is
expanded once and each transition reached once, so a walk costs
``O(|P| + |F|)`` instead of one scan of every transition per step.  The
result is the least fixed point of these rules, which is unique, so the
visiting order does not matter.

The QPS/BPS walks stop at the walked signal's transitions and at no place;
the cover-cube walks (:mod:`repro.structural.covercube`) and the Property-4
successor search (:mod:`repro.structural.adjacency`) also stop at the places
concurrent to the signal, whose mask :meth:`_WalkEngine.scr_place_masks`
answers once per signal.  The intersections that define QPS/BPS are single
AND operations, and per-transition walk results are memoised on the engine,
so the backward walks shared by many successors are computed once.  The
node-at-a-time BFS is retained as :func:`_directional_place_walk` — the
differential-test oracle.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.petri.compiled import compile_net
from repro.petri.net import PetriNet
from repro.stg.stg import STG
from repro.structural.concurrency import ConcurrencyRelation


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
    """Worklist walks over one STG's compiled net.

    ``net`` defaults to the STG's own net; another net over the same labels
    (a forward reduction) may be given instead.
    """

    def __init__(self, stg: STG, net: Optional[PetriNet] = None):
        compiled = compile_net(stg.net if net is None else net)
        self.compiled = compiled
        self.place_names = compiled.place_names
        self.place_index = compiled.place_index
        self.transition_index = compiled.transition_index
        self.signal_of = [
            stg.signal_of(name) for name in compiled.transition_names
        ]
        # signal -> mask over transition indices of its transitions
        self.signal_masks: dict[str, int] = {}
        for t, signal in enumerate(self.signal_of):
            self.signal_masks[signal] = self.signal_masks.get(signal, 0) | 1 << t
        self._cache: dict[tuple[int, bool], tuple[int, int]] = {}

    def reach(
        self,
        places: int,
        forward: bool,
        stop_transitions: int,
        stop_places: int = 0,
    ) -> tuple[int, int]:
        """``(places_mask, transitions_mask)`` reached from ``places``.

        The start places count as reached.  A reached place outside
        ``stop_places`` reaches every transition it feeds in the walk's
        direction; a reached transition outside ``stop_transitions`` reaches
        its far-side places.
        """
        compiled = self.compiled
        if forward:
            feeds, out_of = compiled.consumers, compiled.post_masks
        else:
            feeds, out_of = compiled.producers, compiled.pre_masks
        reached = 0
        pending = places & ~stop_places
        while pending:
            low = pending & -pending
            pending ^= low
            for u in feeds[low.bit_length() - 1]:
                bit = 1 << u
                if reached & bit:
                    continue
                reached |= bit
                if stop_transitions & bit:
                    continue
                new = out_of[u] & ~places
                if new:
                    places |= new
                    pending |= new & ~stop_places
        return places, reached

    def walk(self, transition: int, forward: bool) -> tuple[int, int]:
        """``(places_mask, boundary_transition_mask)`` of a directional walk.

        Starting from the far-side places of ``transition``, the walk stops
        at the transitions of its signal, which form the boundary.
        """
        key = (transition, forward)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        compiled = self.compiled
        start = (compiled.post_masks if forward else compiled.pre_masks)[transition]
        stop = self.signal_masks[self.signal_of[transition]]
        places, reached = self.reach(start, forward, stop)
        result = (places, reached & stop)
        self._cache[key] = result
        return result

    def scr_place_masks(
        self, concurrency: Optional[ConcurrencyRelation]
    ) -> Callable[[str], int]:
        """Signal -> mask of the places concurrent to it (SCR, Definition 3).

        Without a relation no place is concurrent.  The relation's place
        bits must be this net's: every relation is built over (or loaded
        against) the net of the STG it describes.
        """
        if concurrency is None:
            return lambda signal: 0
        if concurrency.place_names() != self.place_names:
            raise ValueError("the concurrency relation is over another net")
        return concurrency.signal_place_mask

    def places_mask(self, names) -> int:
        """Mask of the named places."""
        index = self.place_index
        mask = 0
        for name in names:
            mask |= 1 << index[name]
        return mask

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
