"""Speed-independent synthesis flow.

Implements the three implementation architectures of Section III, the
correctness and monotonicity conditions (equations (1)–(4), Property 16), the
minimization loop of Section VIII and the Appendix, and a small gate library
with Boolean-matching technology mapping.

:func:`repro.synthesis.engine.synthesize` is the structural algorithm of
Section VIII: it turns a refined signal-region approximation
(:mod:`repro.structural`) into a circuit.  The paths from a spec to a circuit
are the backends of :mod:`repro.api` (``Pipeline().synthesize``), which run
the analysis front-end first.
"""

from repro.synthesis.netlist import Architecture, Circuit, SignalImplementation
from repro.synthesis.conditions import (
    check_cover_correctness,
    check_monotonicity_structural,
    check_monotonicity_state_based,
)
from repro.synthesis.mapping import (
    GateLibrary,
    LibraryCell,
    MappingResult,
    default_library,
    get_library,
    latch_free_library,
    map_circuit,
    two_input_library,
)
from repro.synthesis.engine import SynthesisError, SynthesisOptions

__all__ = [
    "Architecture",
    "Circuit",
    "SignalImplementation",
    "check_cover_correctness",
    "check_monotonicity_structural",
    "check_monotonicity_state_based",
    "GateLibrary",
    "LibraryCell",
    "MappingResult",
    "default_library",
    "get_library",
    "latch_free_library",
    "map_circuit",
    "two_input_library",
    "SynthesisError",
    "SynthesisOptions",
]
