"""The signal transition graph data structure.

An :class:`STG` is the triple ``(N, A, λ)`` of the paper: an underlying Petri
net, a set of signals partitioned into inputs and outputs (plus internal
signals added, for example, by state-signal insertion), and a labelling of
transitions with signal value changes.

Transition node names *are* their labels (``a+``, ``b-/2``), so the labelling
function is implicit and the underlying net can be analysed directly with the
:mod:`repro.petri` machinery.  Places that connect exactly one transition to
exactly one transition (the "implicit" places usually omitted from drawings
and from the ``.g`` format) are ordinary places named ``<t1,t2>``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Optional

from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.stg.signals import SignalTransition, SignalType, parse_transition_label


class STG:
    """A signal transition graph."""

    def __init__(self, name: str = "stg"):
        self.name = name
        self.net = PetriNet(name)
        self._signals: dict[str, SignalType] = {}
        self._labels: dict[str, SignalTransition] = {}
        # signal -> {"": all its transitions, "+"/"-"/"~": by direction}, in
        # label order; built on first query, dropped whenever labels change
        self._by_signal: Optional[dict[str, dict[str, list[str]]]] = None
        self._initial_values: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Signal management
    # ------------------------------------------------------------------ #

    def add_signal(self, name: str, signal_type: SignalType) -> None:
        """Declare a signal with its role (idempotent, role may be updated)."""
        self._signals[name] = signal_type

    @property
    def signals(self) -> dict[str, SignalType]:
        """Mapping from signal name to type."""
        return dict(self._signals)

    @property
    def signal_names(self) -> list[str]:
        """All declared signal names, in declaration order."""
        return list(self._signals)

    @property
    def input_signals(self) -> list[str]:
        """Signals driven by the environment."""
        return [s for s, t in self._signals.items() if t is SignalType.INPUT]

    @property
    def output_signals(self) -> list[str]:
        """Signals the circuit must produce (outputs)."""
        return [s for s, t in self._signals.items() if t is SignalType.OUTPUT]

    @property
    def internal_signals(self) -> list[str]:
        """Internal (state) signals the circuit must produce."""
        return [s for s, t in self._signals.items() if t is SignalType.INTERNAL]

    @property
    def non_input_signals(self) -> list[str]:
        """Signals implemented by the circuit (outputs + internals)."""
        return [
            s for s, t in self._signals.items() if t.is_controlled_by_circuit
        ]

    def signal_type(self, signal: str) -> SignalType:
        """The declared role of a signal."""
        return self._signals[signal]

    def is_input(self, signal: str) -> bool:
        """True if ``signal`` is an input signal."""
        return self._signals[signal] is SignalType.INPUT

    # ------------------------------------------------------------------ #
    # Initial signal values
    # ------------------------------------------------------------------ #

    def set_initial_value(self, signal: str, value: int) -> None:
        """Declare the binary value of ``signal`` at the initial marking."""
        if value not in (0, 1):
            raise ValueError("initial value must be 0 or 1")
        self._initial_values[signal] = value

    def set_initial_values(self, values: Mapping[str, int]) -> None:
        """Declare initial values for several signals."""
        for signal, value in values.items():
            self.set_initial_value(signal, value)

    @property
    def initial_values(self) -> dict[str, int]:
        """Declared initial binary values (may be partial)."""
        return dict(self._initial_values)

    # ------------------------------------------------------------------ #
    # Transitions and places
    # ------------------------------------------------------------------ #

    def add_transition(self, label: str) -> SignalTransition:
        """Add a labelled transition; the signal is auto-declared as input
        if unknown (parsers re-declare roles explicitly)."""
        transition = parse_transition_label(label)
        name = transition.name()
        self.net.add_transition(name)
        self._labels[name] = transition
        self._by_signal = None
        if transition.signal not in self._signals:
            self._signals[transition.signal] = SignalType.INPUT
        return transition

    def add_place(self, name: str, tokens: int = 0) -> None:
        """Add an explicit place."""
        self.net.add_place(name, tokens)

    def add_arc(self, source: str, target: str) -> None:
        """Add an arc; a transition→transition arc inserts an implicit place."""
        source_is_transition = self.net.is_transition(source)
        target_is_transition = self.net.is_transition(target)
        if source_is_transition and target_is_transition:
            implicit = f"<{source},{target}>"
            self.net.add_place(implicit)
            self.net.add_arc(source, implicit)
            self.net.add_arc(implicit, target)
        else:
            self.net.add_arc(source, target)

    def set_marking(self, places: Iterable[str] | Mapping[str, int]) -> None:
        """Set the initial marking from marked places or a count mapping.

        An iterable of names puts one token on each listed place (the safe
        case); a mapping assigns explicit token counts, for k-bounded STGs.
        Place names of the form ``<t1,t2>`` refer to implicit places.
        """
        for place in self.net.places:
            self.net.set_initial_tokens(place, 0)
        if isinstance(places, Mapping):
            for place, count in places.items():
                self.net.set_initial_tokens(place, count)
        else:
            for place in places:
                self.net.set_initial_tokens(place, 1)

    # ------------------------------------------------------------------ #
    # Label queries
    # ------------------------------------------------------------------ #

    @property
    def transitions(self) -> list[str]:
        """All transition names."""
        return self.net.transitions

    @property
    def places(self) -> list[str]:
        """All place names (explicit and implicit)."""
        return self.net.places

    def label(self, transition: str) -> SignalTransition:
        """The signal transition labelling a net transition."""
        return self._labels[transition]

    def signal_of(self, transition: str) -> str:
        """The signal of a transition."""
        return self._labels[transition].signal

    def direction_of(self, transition: str) -> str:
        """The switching direction (``+``/``-``) of a transition."""
        return self._labels[transition].direction

    def remove_labels(self, transitions: Iterable[str]) -> None:
        """Forget the labels of ``transitions`` (absent names are ignored).

        The net's nodes are left alone: callers that delete transitions from
        ``net`` drop their labels here.
        """
        for transition in transitions:
            self._labels.pop(transition, None)
        self._by_signal = None

    def _signal_index(self, signal: str) -> dict[str, list[str]]:
        index = self._by_signal
        if index is None:
            index = {}
            for t, lab in self._labels.items():
                entry = index.setdefault(lab.signal, {"": []})
                entry[""].append(t)
                entry.setdefault(lab.direction, []).append(t)
            self._by_signal = index
        return index.get(signal, {})

    def transitions_of_signal(self, signal: str) -> list[str]:
        """All transitions of one signal."""
        return list(self._signal_index(signal).get("", ()))

    def rising_transitions(self, signal: str) -> list[str]:
        """All rising transitions of a signal."""
        return self.transitions_by_direction(signal, "+")

    def falling_transitions(self, signal: str) -> list[str]:
        """All falling transitions of a signal."""
        return self.transitions_by_direction(signal, "-")

    def transitions_by_direction(self, signal: str, direction: str) -> list[str]:
        """Transitions of a signal with a given direction (``+`` or ``-``)."""
        return list(self._signal_index(signal).get(direction, ()))

    @property
    def initial_marking(self) -> Marking:
        """The initial marking of the underlying net."""
        return self.net.initial_marking

    # ------------------------------------------------------------------ #
    # Convenience construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(
        cls,
        name: str,
        inputs: Iterable[str],
        outputs: Iterable[str],
        edges: Iterable[tuple[str, str]],
        marking: Iterable[str],
        internal: Iterable[str] = (),
        initial_values: Optional[Mapping[str, int]] = None,
    ) -> "STG":
        """Build an STG from transition/place edge pairs.

        ``edges`` may connect transitions directly (an implicit place is
        inserted) or go through explicit place names.  Any edge endpoint that
        parses as a signal transition of a declared signal is treated as a
        transition; everything else is a place.
        """
        stg = cls(name)
        declared: set[str] = set()
        for signal in inputs:
            stg.add_signal(signal, SignalType.INPUT)
            declared.add(signal)
        for signal in outputs:
            stg.add_signal(signal, SignalType.OUTPUT)
            declared.add(signal)
        for signal in internal:
            stg.add_signal(signal, SignalType.INTERNAL)
            declared.add(signal)

        def is_transition_label(token: str) -> bool:
            try:
                parsed = parse_transition_label(token)
            except ValueError:
                return False
            return parsed.signal in declared and parsed.direction in "+-"

        # First pass: create nodes.
        for source, target in edges:
            for token in (source, target):
                if stg.net.has_node(token):
                    continue
                if is_transition_label(token):
                    stg.add_transition(token)
                else:
                    stg.add_place(token)
        # Second pass: create arcs.
        for source, target in edges:
            stg.add_arc(source, target)
        stg.set_marking(marking)
        if initial_values:
            stg.set_initial_values(initial_values)
        return stg

    def copy(self, name: Optional[str] = None) -> "STG":
        """A deep copy of the STG."""
        clone = STG(name or self.name)
        clone.net = self.net.copy(name or self.name)
        clone._signals = dict(self._signals)
        clone._labels = dict(self._labels)
        clone._initial_values = dict(self._initial_values)
        return clone

    # ------------------------------------------------------------------ #
    # Summary
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:
        return (
            f"STG({self.name!r}, signals={len(self._signals)}, "
            f"|P|={self.net.num_places()}, |T|={self.net.num_transitions()})"
        )

    def describe(self) -> str:
        """Multi-line human readable summary."""
        lines = [
            f"STG {self.name}",
            f"  inputs : {', '.join(self.input_signals) or '-'}",
            f"  outputs: {', '.join(self.output_signals) or '-'}",
        ]
        if self.internal_signals:
            lines.append(f"  internal: {', '.join(self.internal_signals)}")
        lines.append(
            f"  places: {self.net.num_places()}  transitions: "
            f"{self.net.num_transitions()}  arcs: {self.net.num_arcs()}"
        )
        marked = ", ".join(sorted(self.initial_marking.marked_places))
        lines.append(f"  marking: {marked}")
        return "\n".join(lines)
