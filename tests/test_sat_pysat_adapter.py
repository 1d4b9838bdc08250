"""The `pysat` adapter, driven without the optional package.

:class:`~repro.sat.solver.PysatSolver` encodes each at-most constraint as a
unary counter and tightens it with a unit clause on a counter output.  The
exact descent carries those constraints across its three phases on one
solver, so the adapter must reach the same minima as the pure-python
engine.  A stand-in ``pysat.solvers`` module, injected into
``sys.modules`` for the test only, wraps :class:`~repro.sat.solver.CDCLSolver`
behind the slice of pysat's ``Solver`` surface the adapter calls.
"""

from __future__ import annotations

import sys
import types

import pytest

from repro.api.spec import Spec
from repro.experiments.optimality_gap import GAP_SPECS
from repro.sat import synthesize as sat_synthesize
from repro.sat.solver import CDCLSolver, PysatSolver, new_solver


class _StandInSolver:
    """``pysat.solvers.Solver`` over the pure-python CDCL engine."""

    def __init__(self, name: str = "glucose3"):
        self.name = name
        self._solver = CDCLSolver()

    def add_clause(self, lits) -> None:
        self._solver.add_clause(lits)

    def solve(self, assumptions=()) -> bool:
        return self._solver.solve(assumptions) is True

    def get_model(self) -> list[int]:
        return [var if value else -var for var, value in self._solver.model().items()]

    def accum_stats(self) -> dict:
        return dict(self._solver.stats)


@pytest.fixture()
def stand_in_pysat(monkeypatch):
    solvers = types.ModuleType("pysat.solvers")
    solvers.Solver = _StandInSolver
    package = types.ModuleType("pysat")
    package.solvers = solvers
    monkeypatch.setitem(sys.modules, "pysat", package)
    monkeypatch.setitem(sys.modules, "pysat.solvers", solvers)


def _minima(name: str, prefer: str) -> list:
    """Every cover problem's minima in one gap spec's exact synthesis."""
    found: list = []
    minimize = sat_synthesize.minimize_problem

    def recording(problem, **options):
        solution = minimize(problem, **options)
        found.append((
            problem.signal,
            problem.kind,
            solution.gates,
            solution.literals,
            solution.solutions,
            solution.truncated,
        ))
        return solution

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sat_synthesize, "minimize_problem", recording)
        sat_synthesize.exact_synthesize(
            Spec.from_benchmark(name).stg, assume_csc=True, prefer=prefer
        )
    return found


def test_stand_in_is_picked_up(stand_in_pysat):
    solver = new_solver(prefer="pysat")
    assert isinstance(solver, PysatSolver)
    handle = solver.add_at_most([(1, 1), (2, 1), (3, 1)], 2)
    solver.add_clause([1, 2, 3])
    assert solver.solve() is True
    assert solver.tighten(handle, 0) is True
    assert solver.solve() is False


@pytest.mark.parametrize("name", GAP_SPECS)
def test_pysat_adapter_reaches_the_cdcl_minima(name, stand_in_pysat):
    assert _minima(name, "pysat") == _minima(name, "cdcl")
