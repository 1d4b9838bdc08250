"""State-based consistency checking of STGs.

An STG satisfies the consistency condition when it has no autoconcurrent
transitions and every firing sequence is switchover correct (Section V-B).
This module checks consistency on the reachability graph — it is the oracle
against which the *structural* consistency algorithm
(:mod:`repro.structural.consistency`) is validated, and it also reports
output-semimodularity violations (Section II-B), the remaining specification
correctness condition besides CSC.

All checks run on the indexed view of the graph: per-state enabled bitmasks
against per-signal transition masks for autoconcurrency, a single pass over
the indexed edge list for semimodularity, and bitset-guarded BFS for the
``next`` relation.  The dict-based passes are retained as ``_reference_*``
oracles for the differential tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.petri.marking import Marking
from repro.petri.reachability import ReachabilityGraph, build_reachability_graph
from repro.stg.encoding import (
    EncodedReachabilityGraph,
    EncodingError,
    encode_reachability_graph,
    infer_initial_values,
)
from repro.stg.stg import STG


@dataclass
class ConsistencyReport:
    """Result of the state-based consistency / semimodularity analysis."""

    consistent: bool
    autoconcurrent_pairs: list[tuple[str, str]] = field(default_factory=list)
    switchover_violations: list[str] = field(default_factory=list)
    semimodularity_violations: list[tuple[str, str]] = field(default_factory=list)
    message: str = ""

    @property
    def output_semimodular(self) -> bool:
        """True when no enabled output transition can be disabled."""
        return not self.semimodularity_violations

    def __bool__(self) -> bool:
        return self.consistent


def find_autoconcurrent_pairs(
    stg: STG, graph: ReachabilityGraph
) -> list[tuple[str, str]]:
    """Pairs of same-signal transitions that are simultaneously enabled."""
    indexed = graph.indexed()
    names = indexed.transition_names
    sig_masks = list(indexed.signal_transition_masks(stg).values())
    pairs: set[tuple[str, str]] = set()
    pairs_of_mask: dict[int, list[tuple[str, str]]] = {}
    for enabled in indexed.enabled:
        if enabled & (enabled - 1) == 0:
            continue  # fewer than two enabled transitions
        cached = pairs_of_mask.get(enabled)
        if cached is None:
            cached = []
            for sig_mask in sig_masks:
                both = enabled & sig_mask
                if both & (both - 1) == 0:
                    continue
                group = []
                while both:
                    low = both & -both
                    both ^= low
                    group.append(names[low.bit_length() - 1])
                group.sort()
                for i, first in enumerate(group):
                    for second in group[i + 1:]:
                        cached.append((first, second))
            pairs_of_mask[enabled] = cached
        pairs.update(cached)
    return sorted(pairs)


def find_semimodularity_violations(
    stg: STG, graph: ReachabilityGraph
) -> list[tuple[str, str]]:
    """Output transitions disabled by the firing of another transition.

    Returns pairs ``(disabled_output_transition, disabling_transition)``.
    """
    indexed = graph.indexed()
    names = indexed.transition_names
    sig_masks = indexed.signal_transition_masks(stg)
    output_tmask = 0
    same_signal_mask = []
    for t, name in enumerate(names):
        signal = stg.signal_of(name)
        if not stg.is_input(signal):
            output_tmask |= 1 << t
        same_signal_mask.append(sig_masks[signal])

    enabled = indexed.enabled
    violations: set[tuple[str, str]] = set()
    for source, fired, target in indexed.edges:
        outputs = enabled[source] & output_tmask
        if not outputs:
            continue
        # outputs enabled at the source, minus the fired transition and its
        # signal's other transitions, that are no longer enabled at the target
        candidates = outputs & ~same_signal_mask[fired] & ~enabled[target]
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            violations.add((names[low.bit_length() - 1], names[fired]))
    return sorted(violations)


def check_consistency_state_based(
    stg: STG,
    graph: Optional[ReachabilityGraph] = None,
    check_semimodularity: bool = True,
    encoded: Optional[EncodedReachabilityGraph] = None,
) -> ConsistencyReport:
    """Full state-based consistency check of an STG.

    Checks (1) nonautoconcurrency, (2) switchover correctness via the marking
    encoding, and optionally (3) output semimodularity.  A strict
    ``encoded`` graph (the default of :func:`encode_reachability_graph`)
    already proves (2) and supplies the graph, so nothing is re-encoded.
    """
    if encoded is not None:
        graph = encoded.graph
    elif graph is None:
        graph = build_reachability_graph(stg.net)
    autoconcurrent = find_autoconcurrent_pairs(stg, graph)
    switchover: list[str] = []
    if encoded is None:
        try:
            encode_reachability_graph(
                stg, graph, initial_values=infer_initial_values(stg, graph), strict=True
            )
        except EncodingError as error:
            switchover.append(str(error))
    semimodularity: list[tuple[str, str]] = []
    if check_semimodularity:
        semimodularity = find_semimodularity_violations(stg, graph)

    consistent = not autoconcurrent and not switchover
    message = "consistent" if consistent else "inconsistent"
    if autoconcurrent:
        message += f"; autoconcurrent pairs: {autoconcurrent}"
    if switchover:
        message += f"; switchover violations: {switchover}"
    if semimodularity:
        message += f"; semimodularity violations: {semimodularity}"
    return ConsistencyReport(
        consistent=consistent,
        autoconcurrent_pairs=autoconcurrent,
        switchover_violations=switchover,
        semimodularity_violations=semimodularity,
        message=message,
    )


def adjacent_transition_pairs(
    stg: STG, graph: Optional[ReachabilityGraph] = None
) -> dict[str, set[str]]:
    """State-based ``next`` relation: for every transition, its successors.

    ``b`` is in ``next(a)`` when some feasible sequence fires ``a``, then
    fires ``b`` without any other transition of the same signal in between
    (Section II-B).  Computed by a bitset-guarded search from every
    post-firing state that stops at transitions of the signal.  This is the
    oracle for the structural adjacency characterization (Properties 4/5).
    """
    if graph is None:
        graph = build_reachability_graph(stg.net)
    indexed = graph.indexed()
    names = indexed.transition_names
    tindex = indexed.transition_index
    sig_masks = indexed.signal_transition_masks(stg)
    succ = indexed.succ

    # Post-firing start states per transition, collected in one edge pass.
    starts: dict[int, list[int]] = {}
    for _, t, target in indexed.edges:
        starts.setdefault(t, []).append(target)

    result: dict[str, set[str]] = {t: set() for t in stg.transitions}
    for transition in stg.transitions:
        t = tindex.get(transition)
        if t is None:
            continue
        sig_mask = sig_masks[stg.signal_of(transition)]
        successors = result[transition]
        seen = 0
        stack = []
        for state in starts.get(t, ()):
            bit = 1 << state
            if not seen & bit:
                seen |= bit
                stack.append(state)
        while stack:
            current = stack.pop()
            for label, target in succ[current]:
                if sig_mask >> label & 1:
                    successors.add(names[label])
                    continue
                bit = 1 << target
                if not seen & bit:
                    seen |= bit
                    stack.append(target)
    return result


# ---------------------------------------------------------------------- #
# Dict-based reference implementations (differential-test oracles)
# ---------------------------------------------------------------------- #


def _reference_find_autoconcurrent_pairs(
    stg: STG, graph: ReachabilityGraph
) -> list[tuple[str, str]]:
    """Reference autoconcurrency scan over name sets."""
    pairs: set[tuple[str, str]] = set()
    for marking in graph:
        enabled = sorted(graph.enabled_transitions(marking))
        for i, first in enumerate(enabled):
            for second in enabled[i + 1:]:
                if first == second:
                    continue
                if stg.signal_of(first) == stg.signal_of(second):
                    pairs.add((first, second))
    return sorted(pairs)


def _reference_find_semimodularity_violations(
    stg: STG, graph: ReachabilityGraph
) -> list[tuple[str, str]]:
    """Reference semimodularity scan over name sets."""
    violations: set[tuple[str, str]] = set()
    net = stg.net
    for marking in graph:
        enabled = graph.enabled_transitions(marking)
        outputs_enabled = [
            t for t in enabled if not stg.is_input(stg.signal_of(t))
        ]
        if not outputs_enabled:
            continue
        for fired, target in graph.successors(marking):
            for output in outputs_enabled:
                if output == fired:
                    continue
                if stg.signal_of(output) == stg.signal_of(fired):
                    # Same-signal conflicts are autoconcurrency/consistency
                    # matters, not semimodularity.
                    continue
                if not net.is_enabled(output, target):
                    violations.add((output, fired))
    return sorted(violations)


def _reference_adjacent_transition_pairs(
    stg: STG, graph: ReachabilityGraph
) -> dict[str, set[str]]:
    """Reference ``next`` relation over Marking objects."""
    result: dict[str, set[str]] = {t: set() for t in stg.transitions}
    for transition in stg.transitions:
        signal = stg.signal_of(transition)
        starts = [
            target
            for marking in graph.markings_enabling(transition)
            for label, target in graph.successors(marking)
            if label == transition
        ]
        seen: set[Marking] = set()
        frontier = list(dict.fromkeys(starts))
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            for label, target in graph.successors(current):
                if stg.signal_of(label) == signal:
                    result[transition].add(label)
                    continue
                if target not in seen:
                    frontier.append(target)
    return result
