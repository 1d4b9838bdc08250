"""State-based speed-independence verification of a synthesized circuit.

The check follows the theory of Section III: a circuit in the
complex-gate-per-excitation-function architecture is speed independent iff
its set and reset covers are *correct* (equation (2)) and *monotonic*
(Property 1).  Rather than re-checking cover inclusions symbolically, the
verifier walks every reachable marking of the specification and compares the
circuit's behaviour with the implied next-state value, then checks
monotonicity of the covers over the exact quiescent regions.  This is
exhaustive and independent of how the circuit was obtained, so it validates
the structural flow end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.statebased.nextstate import implied_value_bitsets
from repro.statebased.regions import SignalRegions, state_space
from repro.stg.stg import STG
from repro.synthesis.conditions import check_monotonicity_state_based
from repro.synthesis.netlist import Circuit


@dataclass
class VerificationReport:
    """Outcome of the speed-independence verification."""

    speed_independent: bool
    functional_errors: list[str] = field(default_factory=list)
    hazard_errors: list[str] = field(default_factory=list)
    checked_markings: int = 0
    checked_signals: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.speed_independent


def verify_speed_independence(
    stg: STG,
    circuit: Circuit,
    regions: Optional[SignalRegions] = None,
    signals: Optional[list[str]] = None,
) -> VerificationReport:
    """Verify that ``circuit`` implements ``stg`` without hazards.

    Functional correctness: at every reachable marking, every implemented
    signal's next value (with C-latch hold semantics, evaluated on the
    marking's binary code) must equal the specification's implied value —
    1 inside GER+ ∪ GQR1, 0 inside GER- ∪ GQR0 (markings with no implied
    value only occur for inconsistent specifications).

    Hazard freeness: the set and reset covers of every latch-based signal
    must be monotonic over the exact quiescent regions (Property 1); for
    combinational implementations monotonicity reduces to functional
    correctness, which was already checked.

    ``regions`` is the specification's state space
    (:func:`repro.statebased.regions.state_space`, computed here when
    omitted).
    """
    targets = signals if signals is not None else [
        s for s in circuit.signals if s in stg.non_input_signals
    ]
    if regions is None:
        regions = state_space(stg)
    encoded = regions.encoded

    functional: list[str] = []
    hazards: list[str] = []

    # Per-signal implied-value bitsets and a per-distinct-code evaluation
    # cache: the circuit is evaluated once per (signal, code) instead of
    # once per (signal, marking).
    on_bits, off_bits = implied_value_bitsets(regions, targets)
    packed = encoded.packed_codes
    value_cache: dict[tuple[str, int], int] = {}
    for index in range(len(packed)):
        code_int = packed[index]
        state_bit = 1 << index
        for signal in targets:
            if on_bits[signal] & state_bit:
                implied = 1
            elif off_bits[signal] & state_bit:
                implied = 0
            else:
                continue
            key = (signal, code_int)
            actual = value_cache.get(key)
            if actual is None:
                actual = circuit.next_value(
                    signal, encoded.code_dict_of_int(code_int)
                )
                value_cache[key] = actual
            if actual != implied:
                marking = encoded.marking_list[index]
                functional.append(
                    f"signal {signal}: circuit produces {actual}, specification "
                    f"implies {implied} at marking {marking} (code "
                    f"{encoded.code_string(marking)})"
                )

    for signal in targets:
        implementation = circuit[signal]
        if not implementation.uses_latch:
            continue
        set_report = check_monotonicity_state_based(
            stg, regions, signal, implementation.set_cover, "+"
        )
        if not set_report:
            hazards.extend(set_report.violations)
        reset_report = check_monotonicity_state_based(
            stg, regions, signal, implementation.reset_cover, "-"
        )
        if not reset_report:
            hazards.extend(reset_report.violations)

    return VerificationReport(
        speed_independent=not functional and not hazards,
        functional_errors=functional,
        hazard_errors=hazards,
        checked_markings=len(encoded),
        checked_signals=list(targets),
    )
