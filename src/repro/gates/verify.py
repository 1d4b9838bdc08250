"""Differential verification of a mapped netlist against its behaviour.

The speed-independence verifier (:mod:`repro.verify`) approves the
*behavioural* netlist — set/reset covers with C-latch hold semantics.
Technology mapping then rewrites that behaviour into a gate graph, and this
module closes the loop the paper leaves on paper (and that Balasubramanian's
DIMS critique shows is easy to get wrong): the gate-level evaluation of the
mapped netlist is compared with
:meth:`~repro.synthesis.netlist.Circuit.next_values` over **every** reachable
state code of the specification.  Any divergence — a dropped region gate, a
mis-collapsed gated latch, a wrong OR-tree — surfaces as a concrete state
code plus the disagreeing signal.

Both sides of the comparison are vectorized over the state space's
per-signal columns (:meth:`~repro.stg.encoding.EncodedReachabilityGraph.state_columns`,
bit ``i`` = state ``i``): the mapped netlist runs through the compiled
straight-line program of :mod:`repro.gates.compiled` once, and the
behavioural circuit through the column evaluator
:meth:`~repro.synthesis.netlist.Circuit.next_value_columns` — the same one
the speed-independence verifier and ``compare()`` use.  No per-code dict is
built; mismatches are read off the XOR of the two columns, one report per
distinct code.  The per-code loop over the event simulator is
retained as :func:`_reference_verify_mapped_netlist` — the oracle pinning
the vectorized path in the differential tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.gates.compiled import compile_netlist
from repro.gates.ir import GateNetlist
from repro.gates.simulate import GateLevelSimulator
from repro.stg.encoding import (
    EncodedReachabilityGraph,
    encode_reachability_graph,
    state_indices,
)
from repro.stg.stg import STG
from repro.synthesis.netlist import Circuit

#: mismatches reported verbatim before the report switches to counting
MAX_REPORTED_MISMATCHES = 20


@dataclass
class MappedVerificationReport:
    """Outcome of the gate-level differential check."""

    equivalent: bool
    checked_codes: int = 0
    checked_markings: int = 0
    mismatches: list[str] = field(default_factory=list)
    mismatch_count: int = 0

    def __bool__(self) -> bool:
        return self.equivalent


def verify_mapped_netlist(
    stg: STG,
    circuit: Circuit,
    netlist: GateNetlist,
    encoded: Optional[EncodedReachabilityGraph] = None,
) -> MappedVerificationReport:
    """Check the mapped netlist against the behavioural circuit.

    For every distinct reachable state code of ``stg``, the settled outputs
    of the gate-level evaluation must equal ``circuit.next_values`` on that
    code.  Pass a pre-computed ``encoded`` reachability graph (the
    ``.encoded`` of :func:`repro.statebased.regions.state_space`) to reuse
    an earlier enumeration.
    """
    if encoded is None:
        encoded = encode_reachability_graph(stg)
    evaluator = compile_netlist(netlist)
    signals = [s for s in circuit.signals if s in stg.non_input_signals] or list(
        circuit.signals
    )

    packed = encoded.packed_codes
    columns = encoded.state_columns()
    actual = evaluator.evaluate(columns, len(packed))
    expected = circuit.next_value_columns(columns, encoded.state_mask, signals)
    difference_of = {signal: actual[signal] ^ expected[signal] for signal in signals}

    # states sharing a code evaluate alike: report each differing code once,
    # at its first state
    mismatches: list[str] = []
    mismatch_count = 0
    reported: set[int] = set()
    for index in state_indices(*difference_of.values()):
        code = packed[index]
        if code in reported:
            continue
        reported.add(code)
        for signal in signals:
            if not difference_of[signal] >> index & 1:
                continue
            mismatch_count += 1
            if len(mismatches) < MAX_REPORTED_MISMATCHES:
                bits = "".join(map(str, encoded.code_tuple_of_int(code)))
                mismatches.append(
                    f"signal {signal}: gates produce {actual[signal] >> index & 1}, "
                    f"behaviour implies {expected[signal] >> index & 1} at code "
                    f"{bits} (signals {' '.join(stg.signal_names)})"
                )
    return MappedVerificationReport(
        equivalent=mismatch_count == 0,
        checked_codes=len(set(packed)),
        checked_markings=len(encoded),
        mismatches=mismatches,
        mismatch_count=mismatch_count,
    )


# ---------------------------------------------------------------------- #
# Per-code reference implementation (differential-test oracle)
# ---------------------------------------------------------------------- #


def _reference_verify_mapped_netlist(
    stg: STG,
    circuit: Circuit,
    netlist: GateNetlist,
    encoded: Optional[EncodedReachabilityGraph] = None,
) -> MappedVerificationReport:
    """Reference check: one event-driven ``settle`` per distinct code."""
    if encoded is None:
        encoded = encode_reachability_graph(stg)
    simulator = GateLevelSimulator(netlist)
    signals = [s for s in circuit.signals if s in stg.non_input_signals] or list(
        circuit.signals
    )

    mismatches: list[str] = []
    mismatch_count = 0
    seen: set[tuple[int, ...]] = set()
    order = list(stg.signal_names)
    for marking in encoded.markings:
        code = encoded.code_of(marking)
        key = tuple(code[s] for s in order)
        if key in seen:
            continue
        seen.add(key)
        expected = circuit.next_values(code)
        actual = simulator._reference_settle(code)
        for signal in signals:
            if actual[signal] != expected[signal]:
                mismatch_count += 1
                if len(mismatches) < MAX_REPORTED_MISMATCHES:
                    bits = "".join(str(code[s]) for s in order)
                    mismatches.append(
                        f"signal {signal}: gates produce {actual[signal]}, "
                        f"behaviour implies {expected[signal]} at code {bits} "
                        f"(signals {' '.join(order)})"
                    )
    return MappedVerificationReport(
        equivalent=mismatch_count == 0,
        checked_codes=len(seen),
        checked_markings=len(encoded.markings),
        mismatches=mismatches,
        mismatch_count=mismatch_count,
    )


__all__ = [
    "MappedVerificationReport",
    "verify_mapped_netlist",
]
