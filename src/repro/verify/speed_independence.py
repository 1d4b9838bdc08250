"""State-based speed-independence verification of a synthesized circuit.

The check follows the theory of Section III: a circuit in the
complex-gate-per-excitation-function architecture is speed independent iff
its set and reset covers are *correct* (equation (2)) and *monotonic*
(Property 1).  Rather than re-checking cover inclusions symbolically, the
verifier compares the circuit's behaviour with the implied next-state value
at every reachable marking of the specification, then checks monotonicity
of the covers over the exact quiescent regions.  This is exhaustive and
independent of how the circuit was obtained, so it validates the structural
flow end to end.

Correctness is bitset algebra over state indices: the column evaluator
:meth:`~repro.synthesis.netlist.Circuit.next_value_columns` yields, per
signal, the column ``v`` of next values over every state at once, and with
the implied-value bitsets ``on``/``off`` the erroneous states are
``(on & ~v) | (off & ~on & v)``.  The per-marking loop over dict codes is
retained as :func:`_reference_verify_speed_independence`, the
differential-test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.statebased.nextstate import implied_value_bitsets, next_state_value
from repro.statebased.regions import SignalRegions, state_space
from repro.stg.encoding import state_indices
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
    value only occur for inconsistent specifications).  Errors are listed
    by state index, then in signal order.

    Hazard freeness: the set and reset covers of every latch-based signal
    must be monotonic over the exact quiescent regions (Property 1); for
    combinational implementations monotonicity reduces to functional
    correctness, which was already checked.

    ``regions`` is the specification's state space
    (:func:`repro.statebased.regions.state_space`, computed here when
    omitted).
    """
    return _verify(stg, circuit, regions, signals, _functional_errors)


def _functional_errors(
    stg: STG, circuit: Circuit, regions: SignalRegions, targets: list[str]
) -> list[str]:
    """Correctness as bitset algebra over the circuit's state columns."""
    encoded = regions.encoded
    on_bits, off_bits = implied_value_bitsets(regions, targets)
    values = circuit.next_value_columns(
        encoded.state_columns(), encoded.state_mask, targets
    )
    errors_of = {
        s: (on_bits[s] & ~values[s]) | (off_bits[s] & ~on_bits[s] & values[s])
        for s in targets
    }
    errors: list[str] = []
    for index in state_indices(*errors_of.values()):
        marking = encoded.marking_list[index]
        for signal in targets:
            if errors_of[signal] >> index & 1:
                implied = on_bits[signal] >> index & 1
                errors.append(_error(signal, 1 - implied, implied, marking, encoded))
    return errors


def _error(signal, actual, implied, marking, encoded) -> str:
    return (
        f"signal {signal}: circuit produces {actual}, specification implies "
        f"{implied} at marking {marking} (code {encoded.code_string(marking)})"
    )


def _verify(
    stg: STG,
    circuit: Circuit,
    regions: Optional[SignalRegions],
    signals: Optional[list[str]],
    functional_errors: Callable[..., list[str]],
) -> VerificationReport:
    """Both halves of the check; ``functional_errors`` does correctness."""
    targets = signals if signals is not None else [
        s for s in circuit.signals if s in stg.non_input_signals
    ]
    if regions is None:
        regions = state_space(stg)
    functional = functional_errors(stg, circuit, regions, targets)
    hazards: list[str] = []
    for signal in targets:
        implementation = circuit[signal]
        if not implementation.uses_latch:
            continue
        for cover, direction in (
            (implementation.set_cover, "+"),
            (implementation.reset_cover, "-"),
        ):
            hazards.extend(
                check_monotonicity_state_based(
                    stg, regions, signal, cover, direction
                ).violations
            )
    return VerificationReport(
        speed_independent=not functional and not hazards,
        functional_errors=functional,
        hazard_errors=hazards,
        checked_markings=len(regions.encoded),
        checked_signals=list(targets),
    )


# ---------------------------------------------------------------------- #
# Per-marking reference implementation (differential-test oracle)
# ---------------------------------------------------------------------- #


def _reference_functional_errors(
    stg: STG, circuit: Circuit, regions: SignalRegions, targets: list[str]
) -> list[str]:
    """One dict-based ``next_value`` per (marking, signal)."""
    encoded = regions.encoded
    errors: list[str] = []
    for marking in encoded.marking_list:
        code = encoded.code_view(marking)
        for signal in targets:
            implied = next_state_value(stg, regions, signal, marking)
            actual = circuit.next_value(signal, code)
            if implied is not None and actual != implied:
                errors.append(_error(signal, actual, implied, marking, encoded))
    return errors


def _reference_verify_speed_independence(
    stg: STG,
    circuit: Circuit,
    regions: Optional[SignalRegions] = None,
    signals: Optional[list[str]] = None,
) -> VerificationReport:
    """Reference check: :func:`verify_speed_independence` per marking."""
    return _verify(stg, circuit, regions, signals, _reference_functional_errors)
