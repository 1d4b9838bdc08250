"""Typed gate-level netlist IR.

The synthesis flow ends in actual gate implementations (Section III-A
architectures, Appendix F mapping onto complex gates).  This module is the
intermediate representation those implementations are lowered to: a
:class:`GateNetlist` of :class:`GateInstance` nodes wired through named
:class:`Net` objects.  The IR is what the exporters
(:mod:`repro.gates.exporters`), the gate-level event simulator
(:mod:`repro.gates.simulate`) and the mapped-netlist differential verifier
(:mod:`repro.gates.verify`) all consume.

Gate semantics
--------------

Three gate kinds cover every cell the mapper emits:

* ``sop`` — a complex gate computing a sum of products over its input pins.
  ``terms`` holds the SOP as ``((pin_index, polarity), ...)`` tuples;
  polarity ``0`` means the pin enters the product complemented (complex
  CMOS gates absorb complemented inputs, matching the paper's area model).
  AND, OR and INV gates are all special cases: an AND is one term, an OR is
  one single-literal term per input, an INV is one term with one negative
  literal.  ``terms == ()`` is the constant 0 and ``((),)`` the constant 1.
* ``c-latch`` — the set/reset memory element of Fig. 3(b)/(c).  Pin 0 is the
  set input, pin 1 the reset input: the output rises when set is on, falls
  when reset is on, and holds otherwise.
* ``gated-latch`` — the collapsed memory element of Appendix D.  Pin 0 is
  the enable (the shared part of the set and reset cubes), pin 1 the data
  literal; ``terms`` holds exactly one single-literal term ``((1, pol),)``
  recording the data polarity.  While enabled the output follows the data
  literal; otherwise it holds.

Feedback discipline
-------------------

Nets that carry specification signals (primary inputs and latch/gate
outputs) are the only legal feedback points: the combinational interior of
the netlist must be acyclic once signal nets are treated as cut points.
:meth:`GateNetlist.validate` enforces this, and
:meth:`GateNetlist.topological_gates` returns an evaluation order under the
same convention.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional


class NetlistError(ValueError):
    """Raised when a gate netlist is malformed."""


class GateKind(Enum):
    """Semantic class of a gate instance."""

    SOP = "sop"
    C_LATCH = "c-latch"
    GATED_LATCH = "gated-latch"

    @property
    def is_latch(self) -> bool:
        return self is not GateKind.SOP


@dataclass(frozen=True)
class Net:
    """One named wire of the netlist.

    ``kind`` is ``input`` (primary input, driven by the environment),
    ``output`` (carries an implemented signal, driven by the signal's root
    gate or latch) or ``internal`` (intermediate wire).  ``signal`` names
    the specification signal the net carries, if any.
    """

    name: str
    kind: str = "internal"
    signal: Optional[str] = None

    def to_dict(self) -> dict:
        data: dict = {"name": self.name, "kind": self.kind}
        if self.signal is not None:
            data["signal"] = self.signal
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Net":
        return cls(
            name=data["name"], kind=data.get("kind", "internal"),
            signal=data.get("signal"),
        )


#: one product term of a SOP gate: ((pin_index, polarity), ...)
Term = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class GateInstance:
    """One gate of the netlist.

    ``cell`` is the library cell name (``and2``, ``aoi22``, ``c-latch``,
    ``wide-and7``, ...), ``kind`` the semantic class, ``inputs`` the ordered
    input net names (one per pin), ``output`` the driven net, ``terms`` the
    SOP over the pins (see the module docstring for the latch conventions)
    and ``area`` the cell area in normalized transistor units.
    """

    name: str
    cell: str
    kind: GateKind
    inputs: tuple[str, ...]
    output: str
    terms: tuple[Term, ...] = ()
    area: int = 0

    def evaluate(self, pin_values: Iterable[int], current: int = 0) -> int:
        """Evaluate the gate on concrete pin values.

        ``current`` is the present output value, consulted only by the latch
        kinds (hold semantics).
        """
        values = tuple(pin_values)
        if self.kind is GateKind.C_LATCH:
            set_on, reset_on = values[0], values[1]
            if set_on and not reset_on:
                return 1
            if reset_on and not set_on:
                return 0
            return current
        if self.kind is GateKind.GATED_LATCH:
            enable, data = values[0], values[1]
            if not enable:
                return current
            polarity = self.terms[0][0][1]
            return 1 if data == polarity else 0
        for term in self.terms:
            if all(values[pin] == polarity for pin, polarity in term):
                return 1
        return 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cell": self.cell,
            "kind": self.kind.value,
            "inputs": list(self.inputs),
            "output": self.output,
            "terms": [[[pin, polarity] for pin, polarity in term] for term in self.terms],
            "area": self.area,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GateInstance":
        return cls(
            name=data["name"],
            cell=data["cell"],
            kind=GateKind(data["kind"]),
            inputs=tuple(data["inputs"]),
            output=data["output"],
            terms=tuple(
                tuple((int(pin), int(polarity)) for pin, polarity in term)
                for term in data.get("terms", [])
            ),
            area=int(data.get("area", 0)),
        )


@dataclass
class GateNetlist:
    """A complete gate-level circuit.

    ``inputs``/``outputs`` list the primary (specification-signal) nets in a
    stable order; ``nets`` maps every net name to its :class:`Net` and
    ``gates`` holds the instances in creation order (which is also a valid
    evaluation order for the combinational interior).
    """

    name: str
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    nets: dict[str, Net] = field(default_factory=dict)
    gates: list[GateInstance] = field(default_factory=list)
    #: name of the gate library the netlist was mapped with
    library: str = ""

    # ------------------------------------------------------------------ #
    # Connectivity
    # ------------------------------------------------------------------ #

    def drivers(self) -> dict[str, GateInstance]:
        """Map of net name to its driving gate."""
        table: dict[str, GateInstance] = {}
        for gate in self.gates:
            table[gate.output] = gate
        return table

    def fanout(self, net: str) -> list[GateInstance]:
        """All gates reading a net."""
        return [gate for gate in self.gates if net in gate.inputs]

    def signal_nets(self) -> set[str]:
        """Nets carrying specification signals (the legal feedback points)."""
        return {
            name for name, net in self.nets.items() if net.signal is not None
        }

    # ------------------------------------------------------------------ #
    # Validation / ordering
    # ------------------------------------------------------------------ #

    def validate(self) -> list[GateInstance]:
        """Raise :class:`NetlistError` on structural problems.

        Returns the :meth:`topological_gates` order the cycle check sorted.
        """
        names = Counter(gate.name for gate in self.gates)
        duplicates = [name for name, count in names.items() if count > 1]
        if duplicates:
            raise NetlistError(f"duplicate gate names: {sorted(duplicates)}")
        driven = Counter(gate.output for gate in self.gates)
        multi = [net for net, count in driven.items() if count > 1]
        if multi:
            raise NetlistError(f"nets with multiple drivers: {sorted(multi)}")
        for name in list(self.inputs) + list(self.outputs):
            if name not in self.nets:
                raise NetlistError(f"primary net {name!r} is not declared")
        for net in self.inputs:
            if net in driven:
                raise NetlistError(f"primary input {net!r} has a driver")
        for net in self.outputs:
            if net not in driven:
                raise NetlistError(f"output {net!r} has no driver")
        for gate in self.gates:
            if gate.output not in self.nets:
                raise NetlistError(
                    f"gate {gate.name!r} drives undeclared net {gate.output!r}"
                )
            for net in gate.inputs:
                if net not in self.nets:
                    raise NetlistError(
                        f"gate {gate.name!r} reads undeclared net {net!r}"
                    )
            for term in gate.terms:
                for pin, polarity in term:
                    if not 0 <= pin < len(gate.inputs):
                        raise NetlistError(
                            f"gate {gate.name!r} term references pin {pin} "
                            f"outside its {len(gate.inputs)} inputs"
                        )
                    if polarity not in (0, 1):
                        raise NetlistError(
                            f"gate {gate.name!r} has invalid polarity {polarity!r}"
                        )
            if gate.kind.is_latch and len(gate.inputs) != 2:
                raise NetlistError(
                    f"latch {gate.name!r} must have exactly 2 inputs, "
                    f"has {len(gate.inputs)}"
                )
        return self.topological_gates()  # raises on combinational cycles

    def topological_gates(self) -> list[GateInstance]:
        """Gates in dependency order, signal nets acting as cut points.

        A gate only waits for the drivers of its *internal* input nets;
        feedback through specification-signal nets (latch outputs, the
        self-dependence of combinational complex gates) is legal and cut.
        Raises :class:`NetlistError` if the internal interior is cyclic.
        """
        cut = self.signal_nets()
        drivers = self.drivers()
        indegree: dict[str, int] = {}
        dependents: dict[str, list[GateInstance]] = {}
        for gate in self.gates:
            count = 0
            for net in set(gate.inputs):
                if net in cut or net not in drivers:
                    continue
                count += 1
                dependents.setdefault(net, []).append(gate)
            indegree[gate.name] = count
        ready = deque(gate for gate in self.gates if indegree[gate.name] == 0)
        order: list[GateInstance] = []
        while ready:
            gate = ready.popleft()
            order.append(gate)
            for consumer in dependents.get(gate.output, ()):
                indegree[consumer.name] -= 1
                if indegree[consumer.name] == 0:
                    ready.append(consumer)
        if len(order) != len(self.gates):
            stuck = sorted(set(g.name for g in self.gates) - set(g.name for g in order))
            raise NetlistError(f"combinational cycle through gates {stuck}")
        return order

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def num_gates(self) -> int:
        return len(self.gates)

    def num_nets(self) -> int:
        return len(self.nets)

    def total_area(self) -> int:
        return sum(gate.area for gate in self.gates)

    def num_latches(self) -> int:
        return sum(1 for gate in self.gates if gate.kind.is_latch)

    def cell_histogram(self) -> dict[str, int]:
        """Instance count per cell name."""
        return dict(Counter(gate.cell for gate in self.gates))

    def stats(self) -> dict:
        return {
            "gates": self.num_gates(),
            "nets": self.num_nets(),
            "area": self.total_area(),
            "latches": self.num_latches(),
            "cells": dict(sorted(self.cell_histogram().items())),
        }

    def describe(self) -> str:
        """Multi-line human readable dump of the gate graph."""
        lines = [
            f"netlist {self.name} "
            f"({self.num_gates()} gates, {self.num_nets()} nets, "
            f"area {self.total_area()})"
        ]
        for gate in self.gates:
            pins = ", ".join(gate.inputs)
            lines.append(f"  {gate.name}: {gate.cell}({pins}) -> {gate.output}")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        """JSON-serializable description (the ``json`` export format)."""
        return {
            "format": "repro-gate-netlist",
            "version": 1,
            "name": self.name,
            "library": self.library,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "nets": [self.nets[name].to_dict() for name in sorted(self.nets)],
            "gates": [gate.to_dict() for gate in self.gates],
        }

    @classmethod
    def from_json(cls, data: dict) -> "GateNetlist":
        """Reconstruct a netlist from :meth:`to_json` output (validated)."""
        if data.get("format") != "repro-gate-netlist":
            raise NetlistError(
                f"not a gate-netlist document (format={data.get('format')!r})"
            )
        netlist = cls(
            name=data["name"],
            library=data.get("library", ""),
            inputs=tuple(data.get("inputs", ())),
            outputs=tuple(data.get("outputs", ())),
            nets={net["name"]: Net.from_dict(net) for net in data.get("nets", ())},
            gates=[GateInstance.from_dict(gate) for gate in data.get("gates", ())],
        )
        netlist.validate()
        return netlist
