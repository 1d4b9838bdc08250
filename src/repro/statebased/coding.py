"""State coding checks (USC and CSC) on the encoded reachability graph.

The unique state coding (USC) property requires every reachable marking to
carry a distinct binary code; the weaker complete state coding (CSC) property
allows markings to share a code only when the *output* signals enabled at
them coincide (Section II-D).  CSC is the condition required for the
existence of a consistent next-state function.

The analysis runs on the packed representation: states are grouped by their
code *ints*, and the enabled-output-signal set of a state is a bitmask
derived from its enabled-transition mask through a per-transition lookup
(memoised per distinct enabled mask — enabled masks repeat heavily across a
reachability graph).  The dict-based pass is retained as
:func:`_reference_analyze_state_coding`, the differential-test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.petri.marking import Marking
from repro.stg.encoding import EncodedReachabilityGraph, encode_reachability_graph
from repro.stg.stg import STG


@dataclass
class CodingConflict:
    """A pair of markings sharing the same binary code."""

    code: tuple[int, ...]
    first: Marking
    second: Marking
    conflicting_signals: frozenset[str] = frozenset()

    @property
    def is_csc_conflict(self) -> bool:
        """True if the shared code also disagrees on enabled output signals."""
        return bool(self.conflicting_signals)


@dataclass
class CodingReport:
    """Result of the USC/CSC analysis."""

    satisfies_usc: bool
    satisfies_csc: bool
    usc_conflicts: list[CodingConflict] = field(default_factory=list)
    csc_conflicts: list[CodingConflict] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.satisfies_csc


def _enabled_output_signals(
    stg: STG, encoded: EncodedReachabilityGraph, marking: Marking
) -> frozenset[str]:
    return frozenset(
        stg.signal_of(t)
        for t in encoded.graph.enabled_transitions(marking)
        if not stg.is_input(stg.signal_of(t))
    )


def analyze_state_coding(
    stg: STG,
    encoded: Optional[EncodedReachabilityGraph] = None,
) -> CodingReport:
    """Full USC/CSC analysis by grouping states by packed binary code."""
    if encoded is None:
        encoded = encode_reachability_graph(stg)
    indexed = encoded.indexed()
    order = stg.signal_names
    signal_pos = {signal: i for i, signal in enumerate(order)}

    # transition index -> output-signal bit (0 for input-signal transitions)
    out_bit = []
    for name in indexed.transition_names:
        signal = stg.signal_of(name)
        out_bit.append(
            0 if stg.is_input(signal) else 1 << signal_pos[signal]
        )

    packed = encoded.packed_codes
    by_code: dict[int, list[int]] = {}
    for index, code in enumerate(packed):
        by_code.setdefault(code, []).append(index)

    enabled = indexed.enabled
    outputs_of_mask: dict[int, int] = {}

    def output_signature(state: int) -> int:
        mask = enabled[state]
        signature = outputs_of_mask.get(mask)
        if signature is None:
            signature = 0
            pending = mask
            while pending:
                low = pending & -pending
                pending ^= low
                signature |= out_bit[low.bit_length() - 1]
            outputs_of_mask[mask] = signature
        return signature

    bit_of = [1 << signal_pos[s] for s in order]
    usc_conflicts: list[CodingConflict] = []
    csc_conflicts: list[CodingConflict] = []
    for code, states in by_code.items():
        if len(states) < 2:
            continue
        # conflicts are the rare case; only they materialize Marking objects
        marking_list = indexed.marking_list
        code_tuple = encoded.code_tuple_of_int(code)
        signatures = [output_signature(state) for state in states]
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                difference = signatures[i] ^ signatures[j]
                conflict = CodingConflict(
                    code=code_tuple,
                    first=marking_list[states[i]],
                    second=marking_list[states[j]],
                    conflicting_signals=frozenset(
                        signal
                        for signal, bit in zip(order, bit_of)
                        if difference & bit
                    ),
                )
                usc_conflicts.append(conflict)
                if difference:
                    csc_conflicts.append(conflict)
    return CodingReport(
        satisfies_usc=not usc_conflicts,
        satisfies_csc=not csc_conflicts,
        usc_conflicts=usc_conflicts,
        csc_conflicts=csc_conflicts,
    )


def check_usc(stg: STG) -> bool:
    """True if every reachable marking has a unique binary code."""
    return analyze_state_coding(stg).satisfies_usc


def check_csc(stg: STG) -> bool:
    """True if markings sharing a code enable the same output signals."""
    return analyze_state_coding(stg).satisfies_csc


# ---------------------------------------------------------------------- #
# Dict-based reference implementation (differential-test oracle)
# ---------------------------------------------------------------------- #


def _reference_analyze_state_coding(
    stg: STG,
    encoded: Optional[EncodedReachabilityGraph] = None,
) -> CodingReport:
    """Reference USC/CSC analysis over dict codes and name sets."""
    if encoded is None:
        encoded = encode_reachability_graph(stg)
    order = stg.signal_names
    by_code: dict[tuple[int, ...], list[Marking]] = {}
    for marking in encoded.markings:
        code = tuple(encoded.code_of(marking)[s] for s in order)
        by_code.setdefault(code, []).append(marking)

    usc_conflicts: list[CodingConflict] = []
    csc_conflicts: list[CodingConflict] = []
    for code, markings in by_code.items():
        if len(markings) < 2:
            continue
        outputs = [
            _enabled_output_signals(stg, encoded, marking) for marking in markings
        ]
        for i in range(len(markings)):
            for j in range(i + 1, len(markings)):
                difference = outputs[i] ^ outputs[j]
                conflict = CodingConflict(
                    code=code,
                    first=markings[i],
                    second=markings[j],
                    conflicting_signals=frozenset(difference),
                )
                usc_conflicts.append(conflict)
                if difference:
                    csc_conflicts.append(conflict)
    return CodingReport(
        satisfies_usc=not usc_conflicts,
        satisfies_csc=not csc_conflicts,
        usc_conflicts=usc_conflicts,
        csc_conflicts=csc_conflicts,
    )
