"""Next-state functions derived from exact signal regions.

The next-state function of an output signal ``a`` (Section II-E) maps every
binary code to:

* 1 on ``GER(a+) ∪ GQR(a=1)``,
* 0 on ``GER(a-) ∪ GQR(a=0)``,
* don't-care elsewhere (unreachable codes).

For a consistent STG satisfying CSC, the three sets are a consistent
partition of the Boolean space (no code is claimed both 0 and 1).

The on/off sets are assembled as bitset unions over state indices and
converted to covers of packed minterm cubes in one pass; the membership
test of :func:`next_state_value` is two mask probes.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.boolean.cover import Cover
from repro.boolean.function import BooleanFunction
from repro.petri.marking import Marking
from repro.statebased.regions import SignalRegions, compute_signal_regions
from repro.stg.stg import STG


def next_state_function(
    stg: STG,
    signal: str,
    regions: Optional[SignalRegions] = None,
) -> BooleanFunction:
    """The incompletely specified next-state function of one signal."""
    if regions is None:
        regions = compute_signal_regions(stg, signals=[signal])
    on_bits = regions.ger_bits(signal, "+") | regions.gqr_bits(signal, 1)
    off_bits = regions.ger_bits(signal, "-") | regions.gqr_bits(signal, 0)
    on_set = regions.codes_of(on_bits)
    off_set = regions.codes_of(off_bits)
    variables = stg.signal_names
    encoded = regions.encoded
    dc_set = Cover.from_pairs(
        encoded.space_pairs(encoded.key_set_of_bits(on_bits | off_bits), complement=True),
        tuple(variables),
    )
    return BooleanFunction(on_set, off_set, dc_set, variables, name=signal)


def next_state_functions(
    stg: STG,
    regions: Optional[SignalRegions] = None,
    signals: Optional[list[str]] = None,
) -> dict[str, BooleanFunction]:
    """Next-state functions for all (or the given) non-input signals."""
    targets = signals if signals is not None else stg.non_input_signals
    if regions is None:
        regions = compute_signal_regions(stg, signals=targets)
    return {
        signal: next_state_function(stg, signal, regions) for signal in targets
    }


def implied_value_bitsets(
    regions: SignalRegions, signals: list[str]
) -> tuple[dict[str, int], dict[str, int]]:
    """Per-signal (on, off) state-index bitsets of the implied next value.

    A state implies 1 for a signal when it lies in ``GER(+) ∪ GQR(1)``, 0
    when in ``GER(-) ∪ GQR(0)``, nothing otherwise.  This is the bulk form
    of :func:`next_state_value`, shared by the speed-independence verifier
    and the differential ``compare()`` mode so the definition lives in one
    place.
    """
    on_bits = {
        s: regions.ger_bits(s, "+") | regions.gqr_bits(s, 1) for s in signals
    }
    off_bits = {
        s: regions.ger_bits(s, "-") | regions.gqr_bits(s, 0) for s in signals
    }
    return on_bits, off_bits


def next_state_value(
    stg: STG,
    regions: SignalRegions,
    signal: str,
    marking: Union[Marking, int],
) -> Optional[int]:
    """Implied next-state value of a signal at one reachable marking.

    ``marking`` may be a :class:`~repro.petri.marking.Marking` or a state
    index of the encoded reachability graph.
    """
    index = marking if isinstance(marking, int) else regions.encoded.index(marking)
    bit = 1 << index
    if (regions.ger_bits(signal, "+") | regions.gqr_bits(signal, 1)) & bit:
        return 1
    if (regions.ger_bits(signal, "-") | regions.gqr_bits(signal, 0)) & bit:
        return 0
    return None
