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

Both sides of the comparison are vectorized: the distinct reachable codes
are transposed into per-signal bit columns, the mapped netlist runs through
the compiled straight-line program of :mod:`repro.gates.compiled` once, and
the behavioural circuit's covers are evaluated as column expressions (a
cube is an AND of literal columns).  No per-code dict is ever built unless a
mismatch needs reporting.  The per-code loop over the event simulator is
retained as :func:`_reference_verify_mapped_netlist` — the oracle pinning
the vectorized path in the differential tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.boolean.cover import Cover
from repro.boolean.interning import var_index
from repro.gates.compiled import c_latch_column, compile_netlist, signal_columns
from repro.gates.ir import GateNetlist
from repro.gates.simulate import GateLevelSimulator
from repro.stg.encoding import EncodedReachabilityGraph, encode_reachability_graph
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


def _cover_column(cover: Cover, columns: dict[str, int], mask: int) -> int:
    """Column of a cover: bit ``j`` set iff the cover is on under code ``j``."""
    result = 0
    for cube in cover:
        acc = mask
        for variable, value in cube.items():
            column = columns.get(variable)
            if column is None:
                # variable outside the state-code universe: the vertex test
                # can never match (mirrors ``covers_vertex`` on a dict)
                acc = 0
                break
            acc &= column if value else ~column & mask
            if not acc:
                break
        result |= acc
        if result == mask:
            break
    return result


def _circuit_columns(
    circuit: Circuit, signals: list[str], columns: dict[str, int], mask: int
) -> dict[str, int]:
    """Vectorized :meth:`Circuit.next_values` restricted to ``signals``."""
    results: dict[str, int] = {}
    for signal in signals:
        implementation = circuit[signal]
        set_column = _cover_column(implementation.set_cover, columns, mask)
        if not implementation.uses_latch:
            results[signal] = set_column
            continue
        reset_column = _cover_column(implementation.reset_cover, columns, mask)
        current = columns.get(signal, 0)
        results[signal] = c_latch_column(set_column, reset_column, current) & mask
    return results


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

    order = list(stg.signal_names)
    signal_bits = [(signal, var_index(signal)) for signal in order]

    # distinct reachable codes, first-occurrence order
    seen: set[int] = set()
    unique_codes: list[int] = []
    for code in encoded.packed_codes:
        if code not in seen:
            seen.add(code)
            unique_codes.append(code)
    width = len(unique_codes)
    mask = (1 << width) - 1

    columns = signal_columns(unique_codes, signal_bits)
    actual = evaluator.evaluate(columns, width)
    expected = _circuit_columns(circuit, signals, columns, mask)

    mismatches: list[str] = []
    mismatch_count = 0
    difference_of = {
        signal: (actual[signal] ^ expected[signal]) & mask for signal in signals
    }
    if any(difference_of.values()):
        for j, code in enumerate(unique_codes):
            state_bit = 1 << j
            for signal in signals:
                if not difference_of[signal] & state_bit:
                    continue
                mismatch_count += 1
                if len(mismatches) < MAX_REPORTED_MISMATCHES:
                    bits = "".join(
                        str(code >> bit & 1) for _, bit in signal_bits
                    )
                    mismatches.append(
                        f"signal {signal}: gates produce "
                        f"{actual[signal] >> j & 1}, behaviour implies "
                        f"{expected[signal] >> j & 1} at code {bits} "
                        f"(signals {' '.join(order)})"
                    )
    return MappedVerificationReport(
        equivalent=mismatch_count == 0,
        checked_codes=width,
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
