"""Exhaustive state-based synthesis baseline (SIS / ASSASSIN style).

This engine performs the explicit token-flow analysis that the structural
flow avoids: the full reachability graph is generated and encoded, the exact
signal regions are extracted, and the set/reset covers are minimized against
the exact off-sets.  Its purpose in the reproduction is twofold: it is the
correctness oracle of the test-suite, and it plays the role of the
state-based comparators in Tables V–VII (its run time explodes with the
number of markings while the structural engine's does not).

The whole chain runs on the compiled state-based substrate: packed int
codes computed during the BFS (:mod:`repro.stg.encoding`), bitset regions
(:mod:`repro.statebased.regions`), mask-based USC/CSC grouping
(:mod:`repro.statebased.coding`) and packed-cube region covers, so "explodes
with the number of markings" now means machine-integer work per marking
rather than dict churn per marking.
"""

from __future__ import annotations

from typing import Optional

from repro.boolean.cover import Cover
from repro.boolean.minimize import OffSetColumns, minimize_cover
from repro.statebased.coding import analyze_state_coding
from repro.statebased.regions import SignalRegions
from repro.stg.consistency import check_consistency_state_based
from repro.stg.stg import STG
from repro.synthesis.conditions import (
    check_cover_correctness,
    check_monotonicity_state_based,
)
from repro.synthesis.netlist import (
    Circuit,
    combinational_implementation,
    latch_implementation,
)


class StateBasedSynthesisError(RuntimeError):
    """Raised when the specification cannot be synthesized state-based."""


def check_state_based_specification(
    stg: STG,
    regions: SignalRegions,
    assume_csc: bool = False,
    error: type[StateBasedSynthesisError] = StateBasedSynthesisError,
) -> None:
    """The specification check of the state-based flows, on their state space.

    Raises ``error`` when the STG is inconsistent or, unless ``assume_csc``,
    when it violates CSC.
    """
    report = check_consistency_state_based(stg, encoded=regions.encoded)
    if not report.consistent:
        raise error(f"inconsistent STG: {report.message}")
    if not assume_csc:
        coding = analyze_state_coding(stg, regions.encoded)
        if not coding.satisfies_csc:
            raise error(
                f"CSC violations: {len(coding.csc_conflicts)} conflicting pairs"
            )


def synthesize_state_based(
    stg: STG,
    regions: SignalRegions,
    signals: Optional[list[str]] = None,
    allow_combinational: bool = True,
    assume_csc: bool = False,
) -> Circuit:
    """Synthesize a circuit by exhaustive reachability analysis.

    Parameters
    ----------
    regions:
        The specification's state space from
        :func:`repro.statebased.regions.state_space`; the pipeline passes
        its memoised ``states`` stage.
    allow_combinational:
        Offer the complex gate per signal next to the set/reset latch
        (``False`` keeps every signal a latch).
    assume_csc:
        Skip only the CSC part of the specification check (the caller takes
        responsibility, mirroring the structural flow's ``assume_csc``);
        consistency is always verified.
    """
    check_state_based_specification(stg, regions, assume_csc)

    targets = signals if signals is not None else stg.non_input_signals
    variables = tuple(stg.signal_names)
    used_keys = set(regions.encoded.split_keys())
    unreachable = regions.dc_pairs()

    circuit = Circuit(name=stg.name, signal_order=variables)
    for signal in targets:
        circuit.implementations[signal] = _synthesize_signal(
            stg, regions, signal, used_keys, unreachable, allow_combinational
        )
    return circuit


def _synthesize_signal(
    stg: STG,
    regions: SignalRegions,
    signal: str,
    used_keys: set[int],
    unreachable: list[tuple[int, int]],
    allow_combinational: bool,
):
    """Derive the implementation of one signal from the exact regions.

    On-sets stay exact minterm covers (they seed the expansion, so their
    cube list is part of the minimizer's contract); off- and dc-sets are
    disjoint ``(care, value)`` pairs with identical minterm semantics — the
    minimizer only ever asks semantic questions of them.  The complex
    gate's off-set is the set function's, and the reset function's off-set
    is the complex gate's on-set, so each is computed once; the off-set the
    complex gate and the set function share is transposed once.
    """
    encoded = regions.encoded
    on_bits = regions.ger_bits(signal, "+") | regions.gqr_bits(signal, 1)
    off_bits = regions.ger_bits(signal, "-") | regions.gqr_bits(signal, 0)
    off_set = OffSetColumns(
        encoded.space_pairs(encoded.key_set_of_bits(off_bits), complement=False)
    )

    if allow_combinational:
        # Complex gate per signal: a cover of the full next-state function.
        on_set = regions.codes_of(on_bits)
        cover = minimize_cover(on_set, off_set, unreachable)
        if check_cover_correctness(on_set, off_set, cover):
            # only keep the combinational form when it is actually cheaper
            set_candidate, reset_candidate = _set_reset_covers(
                stg, regions, signal, used_keys, on_bits, off_set
            )
            latch_cost = set_candidate.num_literals() + reset_candidate.num_literals() + 4
            if cover.num_literals() <= latch_cost:
                return combinational_implementation(signal, cover)
            return latch_implementation(signal, set_candidate, reset_candidate)

    set_cover, reset_cover = _set_reset_covers(
        stg, regions, signal, used_keys, on_bits, off_set
    )
    return latch_implementation(signal, set_cover, reset_cover)


def _set_reset_covers(
    stg: STG,
    regions: SignalRegions,
    signal: str,
    used_keys: set[int],
    on_bits: int,
    set_off: OffSetColumns,
) -> tuple[Cover, Cover]:
    """Minimized set and reset covers against the exact off-sets.

    ``on_bits`` are the states of ``GER(+) ∪ GQR(1)``, the reset function's
    off-set; ``set_off`` is the set function's off-set, transposed.
    """
    encoded = regions.encoded
    ger_plus = regions.ger_codes(signal, "+")
    ger_minus = regions.ger_codes(signal, "-")
    reset_off = encoded.space_pairs(encoded.key_set_of_bits(on_bits), complement=False)
    # dc = quiescent-region codes plus all unreachable codes, i.e. the
    # complement of the used codes outside the quiescent region
    gqr_one_keys = encoded.key_set_of_bits(regions.gqr_bits(signal, 1))
    gqr_zero_keys = encoded.key_set_of_bits(regions.gqr_bits(signal, 0))
    set_dc = encoded.space_pairs(used_keys - gqr_one_keys, complement=True)
    reset_dc = encoded.space_pairs(used_keys - gqr_zero_keys, complement=True)
    set_cover = minimize_cover(ger_plus, set_off, set_dc)
    reset_cover = minimize_cover(ger_minus, reset_off, reset_dc)

    if not check_monotonicity_state_based(stg, regions, signal, set_cover, "+"):
        set_cover = ger_plus
    if not check_monotonicity_state_based(stg, regions, signal, reset_cover, "-"):
        reset_cover = ger_minus
    return set_cover, reset_cover
