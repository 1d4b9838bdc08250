"""Structural and behavioural property checks for Petri nets.

The synthesis framework assumes live, safe, irredundant free-choice nets
(Section II-B).  Free choice, marked graph and state machine are purely
structural checks.  Liveness and safeness are decided on the reachability
graph (an optional marking bound protects against state explosion); for the
net classes used in the paper this matches the polynomial structural
characterizations, and the RG-based checks double as oracles in the tests.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from typing import Optional

from repro.petri.net import PetriNet
from repro.petri.reachability import ReachabilityGraph, build_reachability_graph


# ---------------------------------------------------------------------- #
# Structural net classes
# ---------------------------------------------------------------------- #


def is_state_machine(net: PetriNet) -> bool:
    """True if every transition has exactly one input and one output place."""
    for transition in net.transitions:
        if len(net.preset(transition)) != 1 or len(net.postset(transition)) != 1:
            return False
    return True


def is_marked_graph(net: PetriNet) -> bool:
    """True if every place has exactly one input and one output transition."""
    for place in net.places:
        if len(net.preset(place)) != 1 or len(net.postset(place)) != 1:
            return False
    return True


def is_free_choice(net: PetriNet) -> bool:
    """Free-choice condition of the paper.

    Every arc from a place is either the unique outgoing arc of the place or
    the unique incoming arc of its target transition.  Equivalently, if a
    place has more than one output transition, each of those transitions has
    that place as its only input place.
    """
    for place in net.places:
        successors = net.postset(place)
        if len(successors) <= 1:
            continue
        for transition in successors:
            if len(net.preset(transition)) != 1:
                return False
    return True


def _reached(start: Hashable, steps: Callable[[Hashable], Iterable[Hashable]]) -> set:
    """Every node reachable from ``start`` (itself included)."""
    seen = {start}
    frontier = [start]
    while frontier:
        for other in steps(frontier.pop()):
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return seen


def is_connected(net: PetriNet) -> bool:
    """True if the underlying undirected flow graph is connected."""
    nodes = net.nodes
    if not nodes:
        return False
    reached = _reached(nodes[0], lambda node: net.preset(node) | net.postset(node))
    return len(reached) == len(nodes)


def is_strongly_connected(net: PetriNet) -> bool:
    """True if the directed flow graph is strongly connected."""
    nodes = net.nodes
    if not nodes:
        return False
    start = nodes[0]
    return len(_reached(start, net.postset)) == len(nodes) == len(
        _reached(start, net.preset)
    )


# ---------------------------------------------------------------------- #
# Behavioural properties (reachability-graph based)
# ---------------------------------------------------------------------- #


def is_safe(
    net: PetriNet,
    graph: Optional[ReachabilityGraph] = None,
    max_markings: Optional[int] = None,
) -> bool:
    """True if no reachable marking assigns more than one token to a place."""
    if graph is None:
        graph = build_reachability_graph(net, max_markings=max_markings)
    return all(marking.is_safe() for marking in graph)


def is_live(
    net: PetriNet,
    graph: Optional[ReachabilityGraph] = None,
    max_markings: Optional[int] = None,
) -> bool:
    """True if every transition stays potentially firable from every marking.

    For a bounded net, liveness holds iff every bottom strongly connected
    component of the reachability graph contains an edge for every transition.
    """
    if graph is None:
        graph = build_reachability_graph(net, max_markings=max_markings)
    all_transitions = set(net.transitions)
    for members in _strongly_connected_components(
        graph.markings, lambda marking: [target for _, target in graph.successors(marking)]
    ):
        edges = [edge for marking in members for edge in graph.successors(marking)]
        if any(target not in members for _, target in edges):
            continue  # an edge leaves the component: not a bottom one
        if {label for label, _ in edges} != all_transitions:
            return False
    return True


def _strongly_connected_components(
    nodes: Iterable[Hashable], successors: Callable[[Hashable], list]
) -> list[set]:
    """Tarjan's strongly connected components, iteratively (no recursion)."""
    index: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    components: list[set] = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors(root)))]
        while work:
            node, pending = work[-1]
            for target in pending:
                if target not in index:
                    index[target] = low[target] = len(index)
                    stack.append(target)
                    on_stack.add(target)
                    work.append((target, iter(successors(target))))
                    break
                if target in on_stack:
                    low[node] = min(low[node], index[target])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node:
                            break
                    components.append(component)
    return components


def redundant_places(
    net: PetriNet,
    graph: Optional[ReachabilityGraph] = None,
) -> list[str]:
    """Places whose removal preserves the set of feasible firing sequences.

    A place is redundant when it never constrains the enabling of its output
    transitions: whenever all *other* input places of each output transition
    are marked, the place is marked too.  This behavioural check runs on the
    reachability graph and is exact for bounded nets.
    """
    if graph is None:
        graph = build_reachability_graph(net)
    redundant: list[str] = []
    for place in net.places:
        successors = net.postset(place)
        if not successors:
            # A place with no output transitions never restricts behaviour.
            redundant.append(place)
            continue
        constrains = False
        for marking in graph:
            if marking[place] > 0:
                continue
            for transition in successors:
                others = net.preset(transition) - {place}
                if all(marking[other] > 0 for other in others):
                    constrains = True
                    break
            if constrains:
                break
        if not constrains:
            redundant.append(place)
    return redundant

