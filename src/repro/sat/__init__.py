"""Exact synthesis on SAT: dependency-free CDCL solver plus CNF encodings.

``repro.sat`` is the third synthesis backend of the reproduction.  Where
the structural flow approximates (ROADMAP item 2's open question was "by
how much?"), this subsystem answers with certificates: a pure-python CDCL
solver (:mod:`repro.sat.solver`), a selection-variable CNF encoding of
cover correctness and monotonicity (:mod:`repro.sat.encode`), and a
cardinality-descent driver that reaches provably minimum-gate /
minimum-literal implementations and enumerates all of them
(:mod:`repro.sat.synthesize`).  The optimality-gap experiment
(:mod:`repro.experiments.optimality_gap`) turns the difference into a
table.
"""

from repro.sat.encode import SatBudgetExceeded
from repro.sat.solver import CDCLSolver
from repro.sat.synthesize import ExactSynthesisError, exact_synthesize

__all__ = [
    "CDCLSolver",
    "ExactSynthesisError",
    "SatBudgetExceeded",
    "exact_synthesize",
]
