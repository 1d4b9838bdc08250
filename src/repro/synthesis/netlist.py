"""Circuit netlists produced by the synthesis flow.

A synthesized circuit assigns one :class:`SignalImplementation` to every
non-input signal.  Depending on the architecture (Section III-A) the
implementation is:

* ``COMPLEX_GATE`` — a single atomic complex gate computing the next-state
  function (Fig. 3(a));
* ``SET_RESET_LATCH`` — set and reset complex gates feeding a C-latch
  (Fig. 3(b));
* ``ER_ONE_HOT`` — one complex gate per excitation region, OR-ed into the
  set/reset inputs of the C-latch (Fig. 3(c));
* ``GATED_LATCH`` — the collapsed memory element of Appendix D.

The netlist knows how to evaluate itself on one binary signal vector
(:meth:`Circuit.next_value`) or, as *columns*, on many state codes at once
(:meth:`Circuit.next_value_columns`: bit ``j`` of an int column is a value
under code ``j``, ``mask`` the all-ones column) — the one evaluator every
whole-state-space check runs on.  It also reports its cost in literals and
estimated transistors (used by the area experiments).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from collections.abc import Iterable, Mapping
from typing import Optional

from repro.boolean.cost import CLATCH_TRANSISTORS, sop_transistor_estimate
from repro.boolean.cover import Cover


def c_latch_column(set_column: int, reset_column: int, current: int) -> int:
    """Column form of the C-latch next value.

    Rises where set wins, falls where reset wins, holds ``current``
    elsewhere; shared with the gate-level evaluator of
    :mod:`repro.gates.compiled`.  The caller masks the result.
    """
    return (set_column & ~reset_column) | (current & ~(set_column ^ reset_column))


def cover_column(cover: Cover, columns: Mapping[str, int], mask: int) -> int:
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


class Architecture(Enum):
    """Implementation architectures of Section III-A."""

    COMPLEX_GATE = "complex-gate-per-signal"
    SET_RESET_LATCH = "complex-gate-per-excitation-function"
    ER_ONE_HOT = "complex-gate-per-excitation-region"
    GATED_LATCH = "gated-latch"


@dataclass
class SignalImplementation:
    """The logic implementing one output signal."""

    signal: str
    architecture: Architecture
    #: single cover for COMPLEX_GATE; set-network cover otherwise
    set_cover: Cover
    #: reset-network cover (empty for COMPLEX_GATE)
    reset_cover: Cover
    #: per-excitation-region covers (ER_ONE_HOT only), keyed by transition
    region_covers: dict[str, Cover] = field(default_factory=dict)
    uses_latch: bool = True

    # ------------------------------------------------------------------ #
    # Cost
    # ------------------------------------------------------------------ #

    def literal_count(self) -> int:
        """Total literals of the implementation's combinational logic."""
        if self.architecture is Architecture.ER_ONE_HOT and self.region_covers:
            return sum(cover.num_literals() for cover in self.region_covers.values())
        if (
            self.architecture is Architecture.GATED_LATCH
            and len(self.set_cover) == 1
            and len(self.reset_cover) == 1
        ):
            # The collapsed gated latch shares the common literals of the set
            # and reset cubes (Appendix D): data input = common part,
            # control input = the single differing literal.
            common = self.set_cover.cubes[0].supercube(self.reset_cover.cubes[0])
            return common.num_literals() + 2
        total = self.set_cover.num_literals()
        if self.uses_latch:
            total += self.reset_cover.num_literals()
        return total

    def transistor_estimate(self) -> int:
        """Estimated transistor count (combinational logic + memory cell)."""
        if self.architecture is Architecture.ER_ONE_HOT and self.region_covers:
            total = sum(
                sop_transistor_estimate(cover) for cover in self.region_covers.values()
            )
        else:
            total = sop_transistor_estimate(self.set_cover)
            if self.uses_latch:
                total += sop_transistor_estimate(self.reset_cover)
        if self.uses_latch:
            total += CLATCH_TRANSISTORS
        return total

    # ------------------------------------------------------------------ #
    # Behaviour
    # ------------------------------------------------------------------ #

    def next_value(self, vector: Mapping[str, int]) -> int:
        """Next value of the signal for a complete input/state vector.

        For latch-based architectures the C-latch semantics apply: the output
        rises when the set network is on, falls when the reset network is on,
        and holds its value otherwise.
        """
        current = vector.get(self.signal, 0)
        set_on = self.set_cover.covers_vertex(vector)
        if not self.uses_latch:
            return 1 if set_on else 0
        reset_on = self.reset_cover.covers_vertex(vector)
        if set_on and not reset_on:
            return 1
        if reset_on and not set_on:
            return 0
        return current

    def next_value_column(self, columns: Mapping[str, int], mask: int) -> int:
        """Column form of :meth:`next_value` over many codes at once."""
        set_column = cover_column(self.set_cover, columns, mask)
        if not self.uses_latch:
            return set_column
        reset_column = cover_column(self.reset_cover, columns, mask)
        current = columns.get(self.signal, 0)
        return c_latch_column(set_column, reset_column, current) & mask

    def set_expression(self) -> str:
        """Human-readable SOP of the set network (or the single gate)."""
        return self.set_cover.to_expression()

    def reset_expression(self) -> str:
        """Human-readable SOP of the reset network."""
        return self.reset_cover.to_expression()

    def describe(self) -> str:
        """One-line description of the implementation."""
        if not self.uses_latch:
            return f"{self.signal} = {self.set_expression()}"
        return (
            f"{self.signal} = C-latch(set = {self.set_expression()}, "
            f"reset = {self.reset_expression()})"
        )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        """Lossless JSON-serializable form of the implementation."""
        return {
            "signal": self.signal,
            "architecture": self.architecture.value,
            "set_cover": self.set_cover.to_json(),
            "reset_cover": self.reset_cover.to_json(),
            "region_covers": {
                transition: cover.to_json()
                for transition, cover in self.region_covers.items()
            },
            "uses_latch": self.uses_latch,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SignalImplementation":
        """Rebuild an implementation from :meth:`to_json` output."""
        return cls(
            signal=data["signal"],
            architecture=Architecture(data["architecture"]),
            set_cover=Cover.from_json(data["set_cover"]),
            reset_cover=Cover.from_json(data["reset_cover"]),
            region_covers={
                transition: Cover.from_json(cover)
                for transition, cover in data.get("region_covers", {}).items()
            },
            uses_latch=bool(data.get("uses_latch", True)),
        )


@dataclass
class Circuit:
    """A complete synthesized circuit: one implementation per output signal."""

    name: str
    implementations: dict[str, SignalImplementation] = field(default_factory=dict)
    signal_order: tuple[str, ...] = ()
    metadata: dict = field(default_factory=dict)

    def __getitem__(self, signal: str) -> SignalImplementation:
        return self.implementations[signal]

    def __contains__(self, signal: str) -> bool:
        return signal in self.implementations

    def __iter__(self):
        return iter(self.implementations.values())

    @property
    def signals(self) -> list[str]:
        """The implemented (non-input) signals."""
        return list(self.implementations)

    # ------------------------------------------------------------------ #
    # Cost
    # ------------------------------------------------------------------ #

    def literal_count(self) -> int:
        """Total literal count of the circuit."""
        return sum(impl.literal_count() for impl in self.implementations.values())

    def transistor_estimate(self) -> int:
        """Total estimated transistor count of the circuit."""
        return sum(impl.transistor_estimate() for impl in self.implementations.values())

    def num_latches(self) -> int:
        """Number of memory elements in the circuit."""
        return sum(1 for impl in self.implementations.values() if impl.uses_latch)

    # ------------------------------------------------------------------ #
    # Behaviour
    # ------------------------------------------------------------------ #

    def next_values(self, vector: Mapping[str, int]) -> dict[str, int]:
        """Next value of every implemented signal for a complete vector."""
        return {
            signal: impl.next_value(vector)
            for signal, impl in self.implementations.items()
        }

    def next_value(self, signal: str, vector: Mapping[str, int]) -> int:
        """Next value of one signal."""
        return self.implementations[signal].next_value(vector)

    def next_value_columns(
        self, columns: Mapping[str, int], mask: int, signals: Iterable[str]
    ) -> dict[str, int]:
        """Next-value column of each of ``signals`` (see the module notes)."""
        return {
            signal: self.implementations[signal].next_value_column(columns, mask)
            for signal in signals
        }

    def describe(self) -> str:
        """Multi-line human readable netlist."""
        lines = [f"circuit {self.name}"]
        for signal in self.signals:
            lines.append("  " + self.implementations[signal].describe())
        lines.append(
            f"  cost: {self.literal_count()} literals, "
            f"{self.transistor_estimate()} transistors, "
            f"{self.num_latches()} latches"
        )
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        """Lossless, versioned JSON form of the circuit.

        Covers serialize by literal names (see :meth:`Cube.to_json`), so a
        circuit loaded in another process re-interns its variables and
        re-derives the packed masks — the same contract as pickling.
        """
        return {
            "format": "repro-circuit",
            "version": 1,
            "name": self.name,
            "signal_order": list(self.signal_order),
            "metadata": dict(self.metadata),
            "implementations": [
                self.implementations[signal].to_json() for signal in self.implementations
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Circuit":
        """Rebuild a circuit from :meth:`to_json` output."""
        if data.get("format") != "repro-circuit":
            raise ValueError(
                f"not a circuit document (format={data.get('format')!r})"
            )
        implementations = [
            SignalImplementation.from_json(impl)
            for impl in data.get("implementations", ())
        ]
        return cls(
            name=data["name"],
            implementations={impl.signal: impl for impl in implementations},
            signal_order=tuple(data.get("signal_order", ())),
            metadata=dict(data.get("metadata", {})),
        )


def combinational_implementation(
    signal: str, cover: Cover, architecture: Architecture = Architecture.COMPLEX_GATE
) -> SignalImplementation:
    """An implementation without a memory element (complete cover)."""
    return SignalImplementation(
        signal=signal,
        architecture=architecture,
        set_cover=cover,
        reset_cover=Cover.empty(cover.variables),
        uses_latch=False,
    )


def latch_implementation(
    signal: str,
    set_cover: Cover,
    reset_cover: Cover,
    architecture: Architecture = Architecture.SET_RESET_LATCH,
    region_covers: Optional[dict[str, Cover]] = None,
) -> SignalImplementation:
    """A set/reset C-latch based implementation."""
    return SignalImplementation(
        signal=signal,
        architecture=architecture,
        set_cover=set_cover,
        reset_cover=reset_cover,
        region_covers=dict(region_covers or {}),
        uses_latch=True,
    )
