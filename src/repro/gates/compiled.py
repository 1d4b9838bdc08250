"""Bit-parallel compiled evaluation of gate netlists.

A validated :class:`~repro.gates.ir.GateNetlist` has an acyclic
combinational interior once the specification-signal nets are treated as cut
points, so its one-step semantics — clamp the signal nets to the present
state code, settle the interior, read the next value of every output — is a
*straight-line program*: one evaluation per gate in topological order, no
event queue, no fixed-point iteration.

This module compiles that program once per netlist and evaluates it over
*columns*: each net carries one machine integer whose bit ``j`` is the net's
value under state code ``j``.  Evaluating the program over ``n`` codes costs
the same number of Python bytecodes as evaluating it over one, with the
per-code work done inside the big-int AND/OR/NOT primitives — the gate-level
analogue of the bit-packed marking kernel.  ``verify_mapped_netlist`` runs
the whole reachable code set through one program execution, and the
single-code :meth:`~repro.gates.simulate.GateLevelSimulator.settle` is the
``n = 1`` special case of the same program.

Gate semantics over columns (``mask`` is the all-ones column):

* SOP: OR over terms of AND over literal columns (a polarity-0 literal
  contributes ``~column & mask``); ``terms == ()`` is constant 0 and an
  empty term is constant 1.
* C-latch (pins ``set``, ``reset``): ``(set & ~reset) | (hold & current)``
  with ``hold = ~(set ^ reset)`` — rises where set wins, falls where reset
  wins, holds elsewhere (:func:`repro.synthesis.netlist.c_latch_column`,
  shared with the behavioural circuit's column evaluator).
* Gated latch (pins ``enable``, ``data`` with recorded polarity):
  ``(enable & data') | (~enable & current)`` where ``data'`` is the data
  column at the latch's polarity.

``current`` is the column of the latch's output net: the clamped present
value when the output is a signal net (the usual case), 0 otherwise —
matching the event simulator's ``values.get(output, 0)`` at first
evaluation.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.gates.ir import GateKind, GateNetlist
from repro.synthesis.netlist import c_latch_column


class SimulationError(RuntimeError):
    """Raised when a state code misses a clamped signal.

    (Re-exported by :mod:`repro.gates.simulate`; combinational oscillation
    cannot occur in the compiled path because validation rejects cyclic
    interiors up front.)
    """


#: opcodes of the straight-line program
_OP_SOP = 0
_OP_C_LATCH = 1
_OP_GATED_LATCH = 2


class CompiledNetlistEvaluator:
    """Topologically-ordered straight-line program over packed columns."""

    __slots__ = (
        "netlist",
        "order",
        "_num_slots",
        "_clamps",
        "_program",
        "_outputs",
    )

    def __init__(self, netlist: GateNetlist):
        self.netlist = netlist
        #: the gates in evaluation order (the program runs them in it)
        self.order = order = netlist.validate()

        slots: dict[str, int] = {}

        def slot_of(net: str) -> int:
            slot = slots.get(net)
            if slot is None:
                slot = len(slots)
                slots[net] = slot
            return slot

        #: (slot, signal) pairs of the clamped (specification-signal) nets
        self._clamps: list[tuple[int, str]] = [
            (slot_of(name), net.signal)
            for name, net in netlist.nets.items()
            if net.signal is not None
        ]
        clamped_slots = {slot for slot, _ in self._clamps}

        program: list[tuple] = []
        for gate in order:
            in_slots = tuple(slot_of(net) for net in gate.inputs)
            out_slot = slot_of(gate.output)
            writes = out_slot not in clamped_slots
            if gate.kind is GateKind.C_LATCH:
                program.append(
                    (_OP_C_LATCH, in_slots[0], in_slots[1], out_slot, writes)
                )
            elif gate.kind is GateKind.GATED_LATCH:
                polarity = gate.terms[0][0][1]
                program.append(
                    (_OP_GATED_LATCH, in_slots[0], in_slots[1], polarity,
                     out_slot, writes)
                )
            else:
                terms = tuple(
                    tuple((in_slots[pin], pol) for pin, pol in term)
                    for term in gate.terms
                )
                program.append((_OP_SOP, terms, out_slot, writes))
        self._program = program
        self._num_slots = len(slots)

        #: output signal -> index into ``program`` of its driving gate
        drivers = {gate.output: i for i, gate in enumerate(order)}
        self._outputs: list[tuple[str, int]] = []
        for name in netlist.outputs:
            signal = netlist.nets[name].signal or name
            self._outputs.append((signal, drivers[name]))

    # ------------------------------------------------------------------ #

    def evaluate(self, columns: Mapping[str, int], width: int) -> dict[str, int]:
        """Run the program over ``width`` parallel codes.

        ``columns`` maps every specification signal to its value column
        (bit ``j`` = value of the signal under code ``j``).  Returns the
        settled *next*-value column of every implemented output signal.
        """
        mask = (1 << width) - 1
        values = [0] * self._num_slots
        for slot, signal in self._clamps:
            try:
                values[slot] = columns[signal] & mask
            except KeyError as error:
                raise SimulationError(
                    f"state code is missing signal {signal!r}"
                ) from error

        computed = [0] * len(self._program)
        for index, op in enumerate(self._program):
            kind = op[0]
            if kind == _OP_SOP:
                _, terms, out_slot, writes = op
                column = 0
                for term in terms:
                    acc = mask
                    for slot, polarity in term:
                        value = values[slot]
                        acc &= value if polarity else ~value & mask
                        if not acc:
                            break
                    column |= acc
                    if column == mask:
                        break
            elif kind == _OP_C_LATCH:
                _, set_slot, reset_slot, out_slot, writes = op
                column = c_latch_column(
                    values[set_slot], values[reset_slot], values[out_slot]
                ) & mask
            else:  # _OP_GATED_LATCH
                _, enable_slot, data_slot, polarity, out_slot, writes = op
                enable = values[enable_slot]
                data = values[data_slot]
                if not polarity:
                    data = ~data & mask
                current = values[out_slot]
                column = (enable & data) | (~enable & mask & current)
            computed[index] = column
            if writes:
                values[out_slot] = column

        return {signal: computed[index] for signal, index in self._outputs}


def compile_netlist(netlist: GateNetlist) -> CompiledNetlistEvaluator:
    """Compiled evaluator for a netlist.

    Not cached: ``GateNetlist`` is a plain mutable dataclass with no
    structural version, so a cache keyed on object identity would keep
    serving a stale program after an in-place edit.  Compilation is one
    validation plus one topological sort — negligible next to the
    evaluation it feeds; callers that evaluate repeatedly hold on to the
    evaluator (or a :class:`~repro.gates.simulate.GateLevelSimulator`)
    themselves.
    """
    return CompiledNetlistEvaluator(netlist)


__all__ = [
    "CompiledNetlistEvaluator",
    "SimulationError",
    "compile_netlist",
]
