"""Reachability-graph generation (exhaustive token-flow analysis).

This is the state-based substrate that structural methods avoid; it is needed
here both as the correctness oracle for the structural algorithms (on small
and medium STGs) and as the baseline synthesis engine used for the CPU-time
comparisons of Tables VI and VII.

The exploration itself runs on the bit-packed compiled kernel
(:mod:`repro.petri.compiled`): markings are plain ints during BFS and are
converted back to :class:`~repro.petri.marking.Marking` objects only at the
API boundary.  Nets that are not safe (or markings that cannot be packed)
transparently fall back to the dict-based reference implementation, which is
also kept as the oracle for the kernel's differential tests.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from typing import Optional

from repro.petri.compiled import (
    BOUNDED_BITS_LADDER,
    BoundExceededError,
    CompiledBoundedNet,
    CompiledNet,
    StateSpaceLimitExceeded,
    UnsafeNetError,
    compile_bounded_net,
    compile_net,
)
from repro.petri.marking import Marking
from repro.petri.net import PetriNet

__all__ = [
    "IndexedGraph",
    "ReachabilityGraph",
    "StateSpaceLimitExceeded",
    "build_reachability_graph",
    "count_reachable_markings",
    "concurrent_pairs_from_rg",
    "marking_sets_of_places",
]


class ReachabilityGraph:
    """The reachability graph (RG) of a Petri net.

    Vertices are :class:`~repro.petri.marking.Marking` objects; edges are
    labelled with the fired transition.  Graphs produced by the compiled
    kernel additionally carry the packed form of every vertex, which the
    bulk queries (:func:`concurrent_pairs_from_rg`,
    :func:`marking_sets_of_places`) use to stay on int markings.
    """

    def __init__(self, net: PetriNet, initial: Marking):
        self.net = net
        self.initial = initial
        self._successors: dict[Marking, list[tuple[str, Marking]]] = {}
        self._predecessors: dict[Marking, list[tuple[str, Marking]]] = {}
        # Packed payload (populated by the compiled builder only).
        self._compiled: Optional[CompiledNet] = None
        self._packed: Optional[list[int]] = None
        self._packed_enabled: Optional[list[int]] = None
        self._marking_list: Optional[list[Marking]] = None
        self._packed_edges: Optional[list[tuple[int, int, int]]] = None
        self._indexed: Optional["IndexedGraph"] = None
        # Graphs built by the reference BFS are materialized from the start;
        # the compiled builder defers Marking objects and adjacency dicts
        # until a name-based accessor needs them (purely packed consumers —
        # the encoder, the region/coding/consistency algorithms, the mapped
        # verifier — never pay for them).
        self._materialized = True

    def _ensure_materialized(self) -> None:
        """Build the name-based view from the packed payload on demand."""
        if self._materialized:
            return
        self._materialized = True
        compiled = self._compiled
        markings = [self.initial]
        unpack = compiled.unpack
        markings.extend(unpack(bits) for bits in self._packed[1:])
        self._marking_list = markings
        successors = self._successors
        predecessors = self._predecessors
        for marking in markings:
            successors[marking] = []
            predecessors[marking] = []
        transition_names = compiled.transition_names
        for source, transition, target in self._packed_edges:
            label = transition_names[transition]
            source_marking = markings[source]
            target_marking = markings[target]
            successors[source_marking].append((label, target_marking))
            predecessors[target_marking].append((label, source_marking))

    # ------------------------------------------------------------------ #
    # Construction (used by the builder)
    # ------------------------------------------------------------------ #

    def _add_marking(self, marking: Marking) -> None:
        self._successors.setdefault(marking, [])
        self._predecessors.setdefault(marking, [])

    def _add_edge(self, source: Marking, transition: str, target: Marking) -> None:
        self._add_marking(source)
        self._add_marking(target)
        self._successors[source].append((transition, target))
        self._predecessors[target].append((transition, source))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def markings(self) -> list[Marking]:
        """All reachable markings (discovery order)."""
        self._ensure_materialized()
        return list(self._successors)

    def __len__(self) -> int:
        if self._packed is not None:
            return len(self._packed)
        return len(self._successors)

    def __contains__(self, marking: Marking) -> bool:
        self._ensure_materialized()
        return marking in self._successors

    def __iter__(self) -> Iterator[Marking]:
        self._ensure_materialized()
        return iter(self._successors)

    def successors(self, marking: Marking) -> list[tuple[str, Marking]]:
        """Outgoing edges of a marking as ``(transition, target)`` pairs."""
        self._ensure_materialized()
        return list(self._successors[marking])

    def predecessors(self, marking: Marking) -> list[tuple[str, Marking]]:
        """Incoming edges of a marking as ``(transition, source)`` pairs."""
        self._ensure_materialized()
        return list(self._predecessors[marking])

    def edges(self) -> Iterator[tuple[Marking, str, Marking]]:
        """Iterate over all edges as ``(source, transition, target)``."""
        self._ensure_materialized()
        for source, items in self._successors.items():
            for transition, target in items:
                yield source, transition, target

    def num_edges(self) -> int:
        """Total number of edges."""
        if self._packed_edges is not None:
            return len(self._packed_edges)
        return sum(len(items) for items in self._successors.values())

    def enabled_transitions(self, marking: Marking) -> set[str]:
        """Transitions enabled at a marking (labels of outgoing edges)."""
        self._ensure_materialized()
        return {transition for transition, _ in self._successors[marking]}

    def markings_enabling(self, transition: str) -> list[Marking]:
        """All markings at which ``transition`` is enabled."""
        self._ensure_materialized()
        return [m for m, items in self._successors.items()
                if any(label == transition for label, _ in items)]

    def is_deadlock(self, marking: Marking) -> bool:
        """True if no transition is enabled at the marking."""
        self._ensure_materialized()
        return not self._successors[marking]

    def deadlocks(self) -> list[Marking]:
        """All deadlocked markings."""
        self._ensure_materialized()
        return [m for m in self._successors if self.is_deadlock(m)]

    def is_strongly_connected(self) -> bool:
        """True if every marking can reach every other marking."""
        self._ensure_materialized()
        if not self._successors:
            return False
        start = next(iter(self._successors))
        if len(self._forward_reachable(start)) != len(self._successors):
            return False
        if len(self._backward_reachable(start)) != len(self._successors):
            return False
        return True

    def _forward_reachable(self, start: Marking) -> set[Marking]:
        seen = {start}
        frontier = deque([start])
        while frontier:
            current = frontier.popleft()
            for _, target in self._successors[current]:
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return seen

    def _backward_reachable(self, start: Marking) -> set[Marking]:
        seen = {start}
        frontier = deque([start])
        while frontier:
            current = frontier.popleft()
            for _, source in self._predecessors[current]:
                if source not in seen:
                    seen.add(source)
                    frontier.append(source)
        return seen

    # ------------------------------------------------------------------ #
    # Index-space view (the compiled state-based substrate)
    # ------------------------------------------------------------------ #

    def indexed(self) -> "IndexedGraph":
        """Integer-index view of the graph for the compiled state-based flow.

        Markings become dense indices in discovery order, transitions become
        the compiled transition indices (or the net's declaration order for
        reference-built graphs), adjacency becomes index pairs, and the
        enabled set of every marking becomes a bitmask over transition
        indices.  The view is built once and cached; graphs built by the
        bit-packed kernel reuse the kernel's own payload, graphs built by the
        dict-based fallback are indexed from their adjacency dicts, so every
        downstream consumer (encoding, regions, coding, consistency) runs the
        same integer algorithms regardless of how the graph was produced.
        """
        view = self._indexed
        if view is None:
            view = IndexedGraph(self)
            self._indexed = view
        return view


class IndexedGraph:
    """Dense-index payload of a :class:`ReachabilityGraph`.

    ``marking_list[i]`` is the marking of state ``i`` (discovery order),
    ``succ[i]`` / ``pred[i]`` hold ``(transition_index, state_index)`` pairs
    in the same order as the name-based adjacency, ``enabled[i]`` is the
    bitmask over transition indices of the transitions enabled at state
    ``i``, and ``edges`` lists ``(source, transition, target)`` triples in
    BFS firing order — the order in which the reference algorithms visit
    them, which is what lets single passes over ``edges`` replace reference
    BFS traversals exactly.
    """

    __slots__ = (
        "_graph",
        "_marking_list",
        "_index_of",
        "transition_names",
        "transition_index",
        "edges",
        "succ",
        "pred",
        "enabled",
    )

    def __init__(self, graph: ReachabilityGraph):
        self._graph = graph
        self._marking_list: Optional[list[Marking]] = None
        self._index_of: Optional[dict[Marking, int]] = None
        compiled = graph._compiled
        if (
            compiled is not None
            and graph._packed_edges is not None
            and graph._packed_enabled is not None
        ):
            # Marking objects stay deferred: purely packed consumers never
            # touch `marking_list`/`index_of`, so the unpacking cost is only
            # paid by name-based boundary queries.
            self.transition_names = compiled.transition_names
            self.transition_index = compiled.transition_index
            self.edges = graph._packed_edges
            self.enabled = graph._packed_enabled
        else:
            graph._ensure_materialized()
            self._marking_list = list(graph._successors)
            names = graph.net.transitions
            self.transition_names = names
            self.transition_index = {name: i for i, name in enumerate(names)}
            index_of = {m: i for i, m in enumerate(self._marking_list)}
            tindex = self.transition_index
            edges: list[tuple[int, int, int]] = []
            enabled: list[int] = []
            for source, marking in enumerate(self._marking_list):
                mask = 0
                for label, target in graph._successors[marking]:
                    t = tindex[label]
                    mask |= 1 << t
                    edges.append((source, t, index_of[target]))
                enabled.append(mask)
            self.edges = edges
            self.enabled = enabled
            self._index_of = index_of
        succ: list[list[tuple[int, int]]] = [[] for _ in self.enabled]
        pred: list[list[tuple[int, int]]] = [[] for _ in self.enabled]
        for source, transition, target in self.edges:
            succ[source].append((transition, target))
            pred[target].append((transition, source))
        self.succ = succ
        self.pred = pred

    @property
    def marking_list(self) -> list[Marking]:
        """Markings by state index (materializes the name-based view)."""
        markings = self._marking_list
        if markings is None:
            self._graph._ensure_materialized()
            markings = self._graph._marking_list
            self._marking_list = markings
        return markings

    @property
    def index_of(self) -> dict[Marking, int]:
        """Marking → state index (materializes the name-based view)."""
        index_of = self._index_of
        if index_of is None:
            index_of = {m: i for i, m in enumerate(self.marking_list)}
            self._index_of = index_of
        return index_of

    def __len__(self) -> int:
        return len(self.enabled)

    def signal_transition_masks(self, stg) -> dict[str, int]:
        """Per-signal bitmask over this graph's transition indices.

        ``stg`` is anything with ``signal_names`` and
        ``transitions_of_signal``; transitions the net does not know about
        simply contribute no bit.  Shared by the region, coding and
        consistency algorithms so the indexing convention lives in one
        place.
        """
        tindex = self.transition_index
        masks: dict[str, int] = {}
        for signal in stg.signal_names:
            mask = 0
            for name in stg.transitions_of_signal(signal):
                t = tindex.get(name)
                if t is not None:
                    mask |= 1 << t
            masks[signal] = mask
        return masks


def build_reachability_graph(
    net: PetriNet,
    max_markings: Optional[int] = None,
) -> ReachabilityGraph:
    """Breadth-first exhaustive exploration of the reachable markings.

    Runs on the bit-packed kernel (markings are ints during the BFS) and
    falls back to the dict-based reference exploration when the net is not
    safe.  Both paths produce identical graphs for safe nets — the
    differential tests in ``tests/test_compiled_kernel.py`` enforce this.

    Parameters
    ----------
    net:
        The Petri net, explored from its initial marking.
    max_markings:
        Optional safety bound; exceeding it raises
        :class:`StateSpaceLimitExceeded`.  Used by benchmarks that demonstrate
        the state-explosion of the baseline.
    """
    start = net.initial_marking
    compiled = compile_net(net)
    try:
        packed_start = compiled.pack(start)
        order, enabled, edges = compiled.explore(
            packed_start, max_markings=max_markings, want_edges=True
        )
    except UnsafeNetError:
        bounded = _bounded_explore(net, start, max_markings, want_edges=True)
        if bounded is None:
            return _reference_build_reachability_graph(net, start, max_markings)
        compiled, order, enabled, edges = bounded
    graph = ReachabilityGraph(net, start)
    graph._compiled = compiled
    graph._packed = order
    graph._packed_enabled = enabled
    graph._packed_edges = edges
    graph._materialized = False
    return graph


def count_reachable_markings(
    net: PetriNet,
    max_markings: Optional[int] = None,
) -> int:
    """Count reachable markings without storing the edges."""
    start = net.initial_marking
    compiled = compile_net(net)
    try:
        packed_start = compiled.pack(start)
        order, _, _ = compiled.explore(packed_start, max_markings=max_markings)
    except UnsafeNetError:
        bounded = _bounded_explore(net, start, max_markings, want_edges=False)
        if bounded is None:
            return _reference_count_reachable_markings(net, start, max_markings)
        return len(bounded[1])
    return len(order)


def _bounded_explore(
    net: PetriNet,
    start: Marking,
    max_markings: Optional[int],
    want_edges: bool,
):
    """Run the k-bounded kernel, widening the fields until the net fits.

    Returns ``(compiled, order, enabled, edges)`` on success, or ``None``
    when the net is not 255-bounded (or the marking is unpackable) and the
    caller must fall back to the unbounded reference semantics.
    ``StateSpaceLimitExceeded`` propagates — the reference BFS would hit the
    same limit.
    """
    for bits in BOUNDED_BITS_LADDER:
        compiled = compile_bounded_net(net, bits)
        try:
            packed_start = compiled.pack(start)
            order, enabled, edges = compiled.explore(
                packed_start, max_markings=max_markings, want_edges=want_edges
            )
        except BoundExceededError:
            continue
        except UnsafeNetError:
            return None
        return compiled, order, enabled, edges
    return None


def concurrent_pairs_from_rg(graph: ReachabilityGraph) -> set[frozenset[str]]:
    """Exact transition-concurrency pairs extracted from a reachability graph.

    Two transitions are concurrent when both are enabled at some marking and
    firing one does not disable the other (Section II-B).  This is the oracle
    against which the structural concurrency relation is validated.
    """
    compiled = graph._compiled
    if compiled is None or graph._packed is None or graph._packed_enabled is None:
        return _reference_concurrent_pairs_from_rg(graph)
    if isinstance(compiled, CompiledBoundedNet):
        return _bounded_concurrent_pairs_from_rg(graph, compiled)
    pre_masks = compiled.pre_masks
    post_masks = compiled.post_masks
    not_pre = compiled._not_pre
    confirmed: set[tuple[int, int]] = set()
    for marking, enabled in zip(graph._packed, graph._packed_enabled):
        if enabled & (enabled - 1) == 0:
            continue  # fewer than two enabled transitions
        transitions = []
        pending = enabled
        while pending:
            low = pending & -pending
            pending ^= low
            transitions.append(low.bit_length() - 1)
        for i, first in enumerate(transitions):
            after_first = (marking & not_pre[first]) | post_masks[first]
            for second in transitions[i + 1:]:
                if (first, second) in confirmed:
                    continue
                pre_second = pre_masks[second]
                if after_first & pre_second != pre_second:
                    continue
                after_second = (marking & not_pre[second]) | post_masks[second]
                pre_first = pre_masks[first]
                if after_second & pre_first == pre_first:
                    confirmed.add((first, second))
    names = compiled.transition_names
    return {frozenset((names[a], names[b])) for a, b in confirmed}


def _bounded_concurrent_pairs_from_rg(
    graph: ReachabilityGraph, compiled: "CompiledBoundedNet"
) -> set[frozenset[str]]:
    """Concurrency extraction over k-bit packed markings (SWAR enabled test)."""
    pre_guards = compiled.pre_guards
    pre_subs = compiled.pre_subs
    deltas = compiled.deltas
    confirmed: set[tuple[int, int]] = set()
    for marking, enabled in zip(graph._packed, graph._packed_enabled):
        if enabled & (enabled - 1) == 0:
            continue  # fewer than two enabled transitions
        transitions = []
        pending = enabled
        while pending:
            low = pending & -pending
            pending ^= low
            transitions.append(low.bit_length() - 1)
        for i, first in enumerate(transitions):
            after_first = marking + deltas[first]
            for second in transitions[i + 1:]:
                if (first, second) in confirmed:
                    continue
                guard = pre_guards[second]
                if ((after_first | guard) - pre_subs[second]) & guard != guard:
                    continue
                after_second = marking + deltas[second]
                guard = pre_guards[first]
                if ((after_second | guard) - pre_subs[first]) & guard == guard:
                    confirmed.add((first, second))
    names = compiled.transition_names
    return {frozenset((names[a], names[b])) for a, b in confirmed}


def marking_sets_of_places(graph: ReachabilityGraph, places: Iterable[str]) -> dict[str, set[Marking]]:
    """For every place, the set of reachable markings in which it is marked.

    This is the exact *marked region* MR(p) (Definition 6) computed from the
    reachability graph — the oracle for the structural cover-cube tests.
    """
    compiled = graph._compiled
    if compiled is None or graph._packed is None:
        return _reference_marking_sets_of_places(graph, places)
    graph._ensure_materialized()
    result: dict[str, set[Marking]] = {place: set() for place in places}
    packed = graph._packed
    marking_list = graph._marking_list
    if isinstance(compiled, CompiledBoundedNet):
        width = compiled._width
        field_mask = compiled.field_mask
        for place, bucket in result.items():
            index = compiled.place_index.get(place)
            if index is None:
                continue
            field = field_mask << (index * width)
            for bits, marking in zip(packed, marking_list):
                if bits & field:
                    bucket.add(marking)
        return result
    for place, bucket in result.items():
        index = compiled.place_index.get(place)
        if index is None:
            continue
        bit = 1 << index
        for bits, marking in zip(packed, marking_list):
            if bits & bit:
                bucket.add(marking)
    return result


# ---------------------------------------------------------------------- #
# Dict-based reference implementations
#
# These are the original Marking-object paths.  They serve two purposes:
# the automatic fallback for nets the kernel cannot pack (non-safe nets,
# markings on unknown places), and the oracle side of the differential
# tests that pin the compiled kernel to the reference semantics.
# ---------------------------------------------------------------------- #


def _reference_build_reachability_graph(
    net: PetriNet,
    start: Marking,
    max_markings: Optional[int] = None,
) -> ReachabilityGraph:
    """Reference BFS over :class:`Marking` objects (multiset semantics)."""
    graph = ReachabilityGraph(net, start)
    graph._add_marking(start)
    frontier: deque[Marking] = deque([start])
    seen: set[Marking] = {start}
    while frontier:
        current = frontier.popleft()
        for transition in net.enabled_transitions(current):
            target = net.fire(transition, current)
            if target not in seen:
                if max_markings is not None and len(seen) >= max_markings:
                    raise StateSpaceLimitExceeded(
                        f"more than {max_markings} reachable markings"
                    )
                seen.add(target)
                frontier.append(target)
            graph._add_edge(current, transition, target)
    return graph


def _reference_count_reachable_markings(
    net: PetriNet,
    start: Marking,
    max_markings: Optional[int] = None,
) -> int:
    """Reference marking count over :class:`Marking` objects."""
    frontier: deque[Marking] = deque([start])
    seen: set[Marking] = {start}
    while frontier:
        current = frontier.popleft()
        for transition in net.enabled_transitions(current):
            target = net.fire(transition, current)
            if target not in seen:
                if max_markings is not None and len(seen) >= max_markings:
                    raise StateSpaceLimitExceeded(
                        f"more than {max_markings} reachable markings"
                    )
                seen.add(target)
                frontier.append(target)
    return len(seen)


def _reference_concurrent_pairs_from_rg(graph: ReachabilityGraph) -> set[frozenset[str]]:
    """Reference concurrency extraction over :class:`Marking` objects."""
    net = graph.net
    pairs: set[frozenset[str]] = set()
    for marking in graph:
        enabled = sorted(graph.enabled_transitions(marking))
        for i, first in enumerate(enabled):
            after_first = net.fire(first, marking)
            for second in enabled[i + 1:]:
                if not net.is_enabled(second, after_first):
                    continue
                after_second = net.fire(second, marking)
                if net.is_enabled(first, after_second):
                    pairs.add(frozenset((first, second)))
    return pairs


def _reference_marking_sets_of_places(
    graph: ReachabilityGraph, places: Iterable[str]
) -> dict[str, set[Marking]]:
    """Reference marked-region extraction over :class:`Marking` objects."""
    result: dict[str, set[Marking]] = {place: set() for place in places}
    for marking in graph:
        for place in marking.marked_places:
            if place in result:
                result[place].add(marking)
    return result
