"""The structural synthesis engine (Section VIII).

The flow follows the two-step heuristic of the paper: first derive correct,
monotonic set and reset covers from the structural region approximations;
then apply a sequence of minimizations whose aggressiveness is selected by
``SynthesisOptions.level`` (matching the M1..M5 points of Fig. 13):

1. **M1** — atomic complex gate per excitation region: one cover per
   transition, expanded toward its restricted quiescent region and the
   dc-set (equations (3)/(4));
2. **M2** — transitions of a signal merged into one set and one reset cover
   (atomic complex gate per excitation function, equation (2));
3. **M3** — complete-cover detection: when a set (reset) cover also covers
   the whole quiescent region, the signal becomes a combinational complex
   gate and the C-latch is removed;
4. **M4** — memory-element collapsing into a gated latch when the set and
   reset covers are single cubes at Hamming distance one (Appendix D);
5. **M5** — backward expansion: covers may extend into the backward
   quiescent regions while the opposite network still holds the latch
   (Appendix E).

Technology mapping (Appendix F) is performed separately by
:mod:`repro.synthesis.mapping`.

Every expansion is accepted only if the resulting cover stays correct
(equation (2)) and monotonic (Property 16), both checked structurally.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.boolean.cover import Cover
from repro.boolean.minimize import minimize_cover
from repro.stg.stg import STG
from repro.structural.approximation import SignalRegionApproximation
from repro.synthesis.conditions import (
    check_cover_correctness,
    check_monotonicity_structural,
    reset_function_sets,
    set_function_sets,
)
from repro.synthesis.netlist import (
    Architecture,
    Circuit,
    SignalImplementation,
    combinational_implementation,
    latch_implementation,
)


class SynthesisError(RuntimeError):
    """Raised when the specification cannot be synthesized by this flow."""


def require_csc(refinement, options: SynthesisOptions) -> None:
    """Refuse a refinement whose CSC the structural check left uncertified.

    ``options.assume_csc`` overrides the refusal.  The unresolved places are
    listed sorted, so the message does not depend on the hash seed.
    """
    if not refinement.csc_certified and not options.assume_csc:
        raise SynthesisError(
            "CSC could not be certified structurally for places "
            f"{sorted(refinement.unresolved_places)}; state-signal insertion "
            "would be required (pass assume_csc=True to override after an "
            "external CSC check)"
        )


@dataclass
class SynthesisOptions:
    """Knobs of the synthesis flow.

    ``level`` selects how many minimization steps are applied (1..5, see the
    module docstring); ``assume_csc`` accepts specifications whose CSC
    property could not be certified structurally (the caller takes
    responsibility, e.g. after a state-based check); ``signals`` restricts
    synthesis to some non-input signals (default: all of them).

    The rest of the flow has one configuration, the paper's: consistency is
    always checked, with the Property-4 adjacency (Property 5 stays a library
    entry point, ``check_consistency_structural(use_sufficient_conditions=
    True)``); the SM-cover holds one-token components only; and the CSC check
    accepts Theorem 14's same-event code sharing.
    """

    level: int = 5
    assume_csc: bool = False
    signals: Optional[list[str]] = None

    def __post_init__(self) -> None:
        if not 1 <= self.level <= 5:
            raise ValueError("minimization level must be between 1 and 5")


@dataclass
class SynthesisResult:
    """A synthesized circuit together with flow statistics.

    The circuit's cost and rendering queries are delegated explicitly (a
    ``__getattr__`` passthrough would recurse infinitely under
    ``copy.copy``/pickle while ``circuit`` is not yet set, which breaks
    process-pool batch results).
    """

    circuit: Circuit
    approximation: SignalRegionApproximation
    statistics: dict = field(default_factory=dict)

    def literal_count(self) -> int:
        """Total literal count of the synthesized circuit."""
        return self.circuit.literal_count()

    def transistor_estimate(self) -> int:
        """Total estimated transistor count of the synthesized circuit."""
        return self.circuit.transistor_estimate()

    def num_latches(self) -> int:
        """Number of memory elements in the synthesized circuit."""
        return self.circuit.num_latches()

    def describe(self) -> str:
        """Multi-line human readable netlist of the synthesized circuit."""
        return self.circuit.describe()


def _minimize_against(
    on_set: Cover,
    off_set: Cover,
    variables: tuple[str, ...],
    dc_set: Optional[Cover] = None,
) -> Cover:
    """Expand the on-set against the off-set (toward QR and dc-set)."""
    if on_set.is_empty():
        return Cover.empty(variables)
    return minimize_cover(on_set, off_set, dc_set).with_variables(variables)


def _monotonic_for_signal(
    approximation: SignalRegionApproximation,
    signal: str,
    direction: str,
    cover: Cover,
) -> bool:
    """Property 16 for every transition of ``signal`` in ``direction``."""
    stg = approximation.stg
    for transition in stg.transitions_by_direction(signal, direction):
        if not check_monotonicity_structural(approximation, transition, cover):
            return False
    return True


def _per_region_covers(
    approximation: SignalRegionApproximation,
    signal: str,
    direction: str,
) -> dict[str, Cover]:
    """M1: one expanded cover per excitation region (equations (3)/(4))."""
    stg = approximation.stg
    variables = tuple(stg.signal_names)
    # The off-set of a region cover is everything the specification reaches
    # except the region's own ER and restricted QR.
    result: dict[str, Cover] = {}
    opposite = "-" if direction == "+" else "+"
    value = 1 if direction == "+" else 0
    base_off = [
        approximation.ger_cover(signal, opposite),
        approximation.gqr_cover(signal, 1 - value),
    ]
    for transition in stg.transitions_by_direction(signal, direction):
        own = approximation.er_cover(transition)
        allowed = own.union(approximation.qr_cover(transition, restricted=True))
        covers = list(base_off)
        for other in stg.transitions_by_direction(signal, direction):
            if other == transition:
                continue
            covers.append(approximation.er_cover(other).sharp(allowed))
            covers.append(approximation.qr_cover(other, restricted=True).sharp(allowed))
        off_set = Cover.union_all(covers, variables)
        expanded = _minimize_against(own, off_set, variables)
        if not check_cover_correctness(own, off_set, expanded):
            expanded = own
        if not check_monotonicity_structural(approximation, transition, expanded):
            expanded = own
        result[transition] = expanded
    return result


def _merged_cover(
    approximation: SignalRegionApproximation,
    signal: str,
    direction: str,
) -> Cover:
    """M2: a single expanded cover for all transitions of one direction."""
    variables = tuple(approximation.stg.signal_names)
    value = 1 if direction == "+" else 0
    if direction == "+":
        on_set, off_set = set_function_sets(approximation, signal)
    else:
        on_set, off_set = reset_function_sets(approximation, signal)
    quiescent = approximation.gqr_cover(signal, value)
    expanded = _minimize_against(on_set, off_set, variables, dc_set=quiescent)
    if not check_cover_correctness(on_set, off_set, expanded):
        expanded = on_set
    if not _monotonic_for_signal(approximation, signal, direction, expanded):
        expanded = on_set
    return expanded


def _try_complete_cover(
    approximation: SignalRegionApproximation,
    signal: str,
    direction: str,
    cover: Cover,
) -> Optional[Cover]:
    """M3: check whether the cover also absorbs the whole quiescent region.

    If it does (possibly after a further expansion whose on-set includes the
    quiescent region), the signal can be implemented by a combinational
    complex gate computing its next-state function.
    """
    variables = tuple(approximation.stg.signal_names)
    value = 1 if direction == "+" else 0
    quiescent = approximation.gqr_cover(signal, value)
    if cover.contains_cover(quiescent):
        return cover
    if direction == "+":
        on_set = approximation.next_state_on_set(signal)
        off_set = approximation.next_state_off_set(signal)
    else:
        on_set = approximation.next_state_off_set(signal)
        off_set = approximation.next_state_on_set(signal)
    candidate = _minimize_against(on_set, off_set, variables)
    if check_cover_correctness(on_set, off_set, candidate) and candidate.contains_cover(
        on_set
    ):
        return candidate
    return None


def _try_gated_latch(set_cover: Cover, reset_cover: Cover) -> bool:
    """M4: set/reset single cubes with the same support at distance one."""
    if len(set_cover) != 1 or len(reset_cover) != 1:
        return False
    set_cube = set_cover.cubes[0]
    reset_cube = reset_cover.cubes[0]
    if set_cube.support != reset_cube.support:
        return False
    return set_cube.distance(reset_cube) == 1


def _backward_expand(
    approximation: SignalRegionApproximation,
    signal: str,
    direction: str,
    cover: Cover,
    opposite_cover: Cover,
) -> Cover:
    """M5: expand into the backward quiescent regions (Appendix E).

    The markings of the backward region of a transition may be covered only
    where the opposite network is still on (the C-latch then holds its
    output), so the usable dc extension is the intersection of the backward
    covers with the opposite cover.
    """
    stg = approximation.stg
    variables = tuple(stg.signal_names)
    backward = Cover.union_all(
        (
            approximation.br_cover(transition)
            for transition in stg.transitions_by_direction(signal, direction)
        ),
        variables,
    )
    usable = backward.intersection(opposite_cover)
    if usable.is_empty():
        return cover
    if direction == "+":
        on_set, off_set = set_function_sets(approximation, signal)
    else:
        on_set, off_set = reset_function_sets(approximation, signal)
    reduced_off = off_set.sharp(usable)
    expanded = _minimize_against(cover, reduced_off, variables)
    if not check_cover_correctness(on_set, reduced_off, expanded):
        return cover
    if not _monotonic_for_signal(approximation, signal, direction, expanded):
        return cover
    return expanded


def prepare_approximation(
    stg: STG, options: Optional[SynthesisOptions] = None
) -> tuple[SignalRegionApproximation, dict]:
    """Run the analysis front-end: consistency, approximation, refinement, CSC.

    .. deprecated::
        Thin shim over the staged :class:`repro.api.pipeline.Pipeline`
        (stages ``analyze`` and ``refine``), kept for the historical
        module-level API.  New code should drive the pipeline directly —
        it memoises the artifacts so sweeps reuse the front-end.

    Returns the (refined) signal-region approximation and a statistics
    dictionary.  Raises :class:`SynthesisError` on consistency or CSC
    failures (unless ``options.assume_csc``).
    """
    from repro.api.pipeline import Pipeline
    from repro.api.spec import Spec

    options = options or SynthesisOptions()
    pipeline = Pipeline()
    spec = Spec.from_stg(stg)
    analysis = pipeline.analyze(spec)
    refinement = pipeline.refine(spec)
    require_csc(refinement, options)
    stats = {
        "sm_components": analysis.sm_components,
        "sm_cover": analysis.sm_cover_size,
        "conflicts_before": refinement.conflicts_before,
        "conflicts_after": refinement.conflicts_after,
        "csc_certified": refinement.csc_certified,
        "cubes": refinement.cubes,
        "analysis_seconds": analysis.seconds + refinement.seconds,
    }
    return refinement.approximation, stats


def synthesize(
    stg: STG,
    options: Optional[SynthesisOptions] = None,
    approximation: Optional[SignalRegionApproximation] = None,
) -> SynthesisResult:
    """Synthesize a speed-independent circuit from an STG, structurally.

    This is the legacy module-level entry point, retained as a shim (the
    structural backend of :mod:`repro.api` calls it with a pre-computed
    approximation).  Prefer :func:`repro.api.run` / the staged
    :class:`repro.api.pipeline.Pipeline` for new code: they add artifact
    caching, pluggable backends, batch execution and typed reports.
    """
    options = options or SynthesisOptions()
    stats: dict = {}
    if approximation is None:
        approximation, stats = prepare_approximation(stg, options)
    start = time.perf_counter()

    signals = options.signals if options.signals is not None else stg.non_input_signals
    circuit = Circuit(name=stg.name, signal_order=tuple(stg.signal_names))
    for signal in signals:
        circuit.implementations[signal] = _synthesize_signal(
            approximation, signal, options
        )
    stats["synthesis_seconds"] = time.perf_counter() - start
    stats["level"] = options.level
    return SynthesisResult(circuit=circuit, approximation=approximation, statistics=stats)


def _synthesize_signal(
    approximation: SignalRegionApproximation,
    signal: str,
    options: SynthesisOptions,
) -> SignalImplementation:
    """Synthesize one output signal at the requested minimization level."""
    level = options.level

    if level == 1:
        set_regions = _per_region_covers(approximation, signal, "+")
        reset_regions = _per_region_covers(approximation, signal, "-")
        variables = tuple(approximation.stg.signal_names)
        set_cover = Cover.union_all(set_regions.values(), variables)
        reset_cover = Cover.union_all(reset_regions.values(), variables)
        return latch_implementation(
            signal,
            set_cover,
            reset_cover,
            architecture=Architecture.ER_ONE_HOT,
            region_covers={**set_regions, **reset_regions},
        )

    set_cover = _merged_cover(approximation, signal, "+")
    reset_cover = _merged_cover(approximation, signal, "-")

    if level >= 3:
        complete_set = _try_complete_cover(approximation, signal, "+", set_cover)
        if complete_set is not None:
            return combinational_implementation(signal, complete_set)
        complete_reset = _try_complete_cover(approximation, signal, "-", reset_cover)
        if complete_reset is not None:
            # The reset network computes the complemented next-state function;
            # implementing the signal as NOT(reset) keeps the cost model
            # identical, so the reset cover is reported as the gate.
            return combinational_implementation(signal, complete_reset)

    if level >= 5:
        set_cover = _backward_expand(approximation, signal, "+", set_cover, reset_cover)
        reset_cover = _backward_expand(approximation, signal, "-", reset_cover, set_cover)

    architecture = Architecture.SET_RESET_LATCH
    if level >= 4 and _try_gated_latch(set_cover, reset_cover):
        architecture = Architecture.GATED_LATCH
    return latch_implementation(signal, set_cover, reset_cover, architecture=architecture)
