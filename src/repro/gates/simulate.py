"""Gate-level simulation of a mapped netlist.

The simulator implements the one-step semantics the speed-independence
verifier uses on the behavioural netlist: given the binary code of a
reachable state (a value for every specification signal), the signal nets
are clamped to their present values, events propagate through the
combinational interior until every internal net settles, and the gate or
latch driving each output signal then yields that signal's *next* value.

Clamping the signal nets is what makes the interior acyclic (see the
feedback discipline in :mod:`repro.gates.ir`): the self-dependence of a
combinational complex gate and the feedback of a latch both pass through a
clamped net, so propagation always terminates.  Because validation already
rejects cyclic interiors, settling needs no event queue at all —
:meth:`GateLevelSimulator.settle` executes the compiled straight-line
program of :mod:`repro.gates.compiled` at width 1; whole code sets run
through the same program in :func:`repro.gates.verify.verify_mapped_netlist`.
The original event-driven stabilization loop is kept as
:meth:`GateLevelSimulator._reference_settle` — the oracle of the
differential tests and the executable statement of the semantics (including
the oscillation guard for netlists that bypass validation).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping

from repro.gates.compiled import CompiledNetlistEvaluator, SimulationError
from repro.gates.ir import GateNetlist, NetlistError


class GateLevelSimulator:
    """Evaluator of a :class:`~repro.gates.ir.GateNetlist`.

    Construction validates the netlist and compiles the topological
    straight-line program, so repeated :meth:`settle` calls stay cheap.
    """

    def __init__(self, netlist: GateNetlist):
        self.netlist = netlist
        self._evaluator = CompiledNetlistEvaluator(netlist)
        self._order = self._evaluator.order
        #: signal carried by each clamped net
        self._clamped: dict[str, str] = {
            name: net.signal
            for name, net in netlist.nets.items()
            if net.signal is not None
        }
        #: gates consuming each internal net
        self._consumers: dict[str, list[int]] = {}
        for index, gate in enumerate(self._order):
            for net in set(gate.inputs):
                if net in self._clamped:
                    continue
                self._consumers.setdefault(net, []).append(index)
        #: output signal -> driving gate
        self._output_driver = {}
        drivers = netlist.drivers()
        for name in netlist.outputs:
            signal = netlist.nets[name].signal or name
            self._output_driver[signal] = drivers[name]

    # ------------------------------------------------------------------ #

    def settle(self, code: Mapping[str, int]) -> dict[str, int]:
        """Propagate ``code`` and return the next value of every output.

        ``code`` must assign a present value to every specification signal
        (inputs and implemented outputs).  The returned mapping gives, for
        each implemented signal, the settled value its driving gate or latch
        produces — directly comparable with
        :meth:`repro.synthesis.netlist.Circuit.next_values`.
        """
        return self._evaluator.evaluate(code, 1)

    # ------------------------------------------------------------------ #
    # Reference event-driven loop (differential-test oracle)
    # ------------------------------------------------------------------ #

    def _reference_settle(self, code: Mapping[str, int]) -> dict[str, int]:
        """Event-driven stabilization (the original semantics)."""
        values: dict[str, int] = {}
        for net, signal in self._clamped.items():
            try:
                values[net] = code[signal]
            except KeyError as error:
                raise SimulationError(
                    f"state code is missing signal {signal!r}"
                ) from error

        pending = deque(range(len(self._order)))
        queued = [True] * len(self._order)
        budget = len(self._order) * (len(self._order) + 1) + 1
        computed: dict[str, int] = {}
        while pending:
            budget -= 1
            if budget < 0:
                raise SimulationError(
                    f"netlist {self.netlist.name!r} did not settle "
                    "(combinational oscillation outside the signal nets)"
                )
            index = pending.popleft()
            queued[index] = False
            gate = self._order[index]
            current = values.get(gate.output, 0)
            pins = (values.get(net, 0) for net in gate.inputs)
            value = gate.evaluate(pins, current=current)
            computed[gate.output] = value
            if gate.output in self._clamped:
                # drivers of clamped (signal) nets produce the *next* value;
                # the present value other gates read stays clamped
                continue
            if values.get(gate.output) != value:
                values[gate.output] = value
                for consumer in self._consumers.get(gate.output, ()):
                    if not queued[consumer]:
                        queued[consumer] = True
                        pending.append(consumer)

        results: dict[str, int] = {}
        for signal, gate in self._output_driver.items():
            results[signal] = computed[gate.output]
        return results


def simulate_settled(netlist: GateNetlist, code: Mapping[str, int]) -> dict[str, int]:
    """One-shot convenience wrapper around :class:`GateLevelSimulator`."""
    return GateLevelSimulator(netlist).settle(code)


__all__ = ["GateLevelSimulator", "SimulationError", "simulate_settled", "NetlistError"]
