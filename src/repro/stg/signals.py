"""Signal names, signal types, and transition labels.

Transitions of an STG are labelled with value changes of circuit signals:
``a+`` (rising), ``a-`` (falling), with an optional index to distinguish
multiple transitions of the same signal (``a+/2``).  The paper writes indexed
transitions as ``a+1`` / ``a*1``; the astg text format uses ``a+/1``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum


class SignalType(Enum):
    """Role of a signal in the specification."""

    INPUT = "input"
    OUTPUT = "output"
    INTERNAL = "internal"
    DUMMY = "dummy"

    @property
    def is_controlled_by_circuit(self) -> bool:
        """True for signals the synthesized circuit must produce."""
        return self in (SignalType.OUTPUT, SignalType.INTERNAL)


_LABEL_RE = re.compile(
    r"^(?P<signal>[A-Za-z_][A-Za-z0-9_\[\].]*)"
    r"(?P<direction>[+\-~])?"
    r"(?:/(?P<index>\d+))?$"
)


@dataclass(frozen=True)
class SignalTransition:
    """A labelled signal transition ``signal`` ``direction`` ``index``.

    ``direction`` is ``'+'`` for rising, ``'-'`` for falling and ``'~'`` for
    dummy/toggle events (kept for completeness; the synthesis flow requires
    ``+``/``-`` only).  ``index`` distinguishes multiple transitions of the
    same signal and direction.
    """

    signal: str
    direction: str
    index: int = 0

    def __post_init__(self) -> None:
        if self.direction not in ("+", "-", "~"):
            raise ValueError(f"invalid transition direction {self.direction!r}")
        if self.index < 0:
            raise ValueError("transition index must be non-negative")

    # ------------------------------------------------------------------ #

    @property
    def target_value(self) -> int:
        """Value of the signal after the transition fires (1 for ``+``)."""
        if self.direction == "+":
            return 1
        if self.direction == "-":
            return 0
        raise ValueError("dummy transitions have no target value")

    @property
    def source_value(self) -> int:
        """Value of the signal required for the transition to be consistent."""
        return 1 - self.target_value

    def name(self) -> str:
        """Canonical transition name, e.g. ``a+`` or ``a-/2``."""
        base = f"{self.signal}{self.direction}"
        if self.index:
            return f"{base}/{self.index}"
        return base

    def __str__(self) -> str:
        return self.name()


def parse_transition_label(label: str) -> SignalTransition:
    """Parse a transition label of the astg ``.g`` format.

    Accepts ``a+``, ``a-``, ``a+/1``, ``a~`` (dummy) and plain ``a`` (treated
    as a dummy event).
    """
    match = _LABEL_RE.match(label.strip())
    if not match:
        raise ValueError(f"cannot parse transition label {label!r}")
    signal = match.group("signal")
    direction = match.group("direction") or "~"
    index = int(match.group("index") or 0)
    return SignalTransition(signal, direction, index)
