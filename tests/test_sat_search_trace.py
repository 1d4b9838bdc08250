"""The exact backend's search tree, pinned phase by phase.

``tests/data/sat_search_trace.json`` records every
:func:`~repro.sat.synthesize.minimize_problem` call that the exact synthesis
of the 13 ``repro gap`` specs makes, in call order: the problem (signal,
kind, candidate count), its outcome (gates, literals, solution count,
``truncated``, the ``conflicts`` it reports), each solver it loaded (the
final work counters, the variable count and the length of the clause
arena: problem plus learnt clauses; the cost bounds are native at-most
constraints, not clauses), and the solver work of each of its three
descent phases.  The phases share one solver until an UNSAT answer ends
it, so a phase's work is a delta of the counters summed over the
problem's solvers.

The specs are traced in the test process, after whatever it ran before:
candidate cubes are ordered by their masks renumbered to the STG's signal
order, not by the bit positions of the process-global interner
(:mod:`repro.boolean.interning`), so the search does not depend on what
the process interned first.

The synthesis descent loads its unit clauses one per call, so the file also
pins a solver fed in batches: seeded random clause batches (units,
repeats, complements, literals already decided at the root) alternating
with ``solve()`` calls, recording after each step the verdicts, the work
counters, the variable count, the arena length and the model.  There a
unit clause must be propagated before the rest of its batch is read.

A change to clause loading or propagation that alters a single decision
shows up here even where every reported circuit stays the same, and the
per-problem ``conflicts`` counts reach the reports
(``circuit.metadata["sat"]``), so this file pins them too.

Regenerate (only when the search changes on purpose) with::

    PYTHONPATH=src python tests/test_sat_search_trace.py > tests/data/sat_search_trace.json
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro.sat.synthesize as sat_synthesize
from repro.api.spec import Spec
from repro.experiments.optimality_gap import GAP_SPECS
from repro.sat.solver import CDCLSolver
from repro.statebased.regions import state_space

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "sat_search_trace.json"


@contextmanager
def _recording():
    """Record every ``minimize_problem`` call and the solvers it builds."""
    problems: list[dict] = []
    solvers: list = []
    cdcl_solver = sat_synthesize.CDCLSolver
    minimize_problem = sat_synthesize.minimize_problem

    def recording_solver(*args, **kwargs):
        solver = cdcl_solver(*args, **kwargs)
        solvers.append(solver)
        return solver

    def recording_minimize(problem, **kwargs):
        first = len(solvers)
        solution = minimize_problem(problem, **kwargs)
        problems.append({
            "signal": problem.signal,
            "kind": problem.kind,
            "candidates": solution.candidates,
            "gates": solution.gates,
            "literals": solution.literals,
            "solutions": len(solution.solutions),
            "truncated": solution.truncated,
            "conflicts": solution.stats.get("conflicts", 0),
            "solvers": [
                {
                    "stats": dict(solver.stats),
                    "num_vars": solver.num_vars,
                    "clauses": len(solver._clauses),
                }
                for solver in solvers[first:]
            ],
            "phases": solution.stats.get("phases", {}),
        })
        return solution

    sat_synthesize.CDCLSolver = recording_solver
    sat_synthesize.minimize_problem = recording_minimize
    try:
        yield problems
    finally:
        sat_synthesize.CDCLSolver = cdcl_solver
        sat_synthesize.minimize_problem = minimize_problem


def trace(name: str) -> list[dict]:
    """The recorded descent of one spec's exact synthesis, as ``repro gap`` runs it."""
    stg = Spec.from_benchmark(name).stg
    regions = state_space(stg)
    with _recording() as problems:
        sat_synthesize.exact_synthesize(stg, regions, assume_csc=True)
    return problems


#: seeds of the batch-loading traces
BATCH_SEEDS = range(8)


def batch_trace(seed: int) -> list[list]:
    """Load random clause batches into one solver, solving after each."""
    rng = random.Random(seed)
    solver = CDCLSolver(seed=seed)
    steps: list[list] = []
    for _ in range(12):
        batch = [
            [
                rng.choice((1, -1)) * rng.randint(1, 60)
                for _ in range(rng.choice((1, 2, 3, 3, 3, 4)))
            ]
            for _ in range(rng.randint(5, 20))
        ]
        loaded = solver.add_clauses(batch)
        verdict = solver.solve()
        model = "".join(
            "1" if solver.value_of(var) else "0"
            for var in range(1, solver.num_vars + 1)
        )
        steps.append([
            loaded,
            verdict,
            dict(solver.stats),
            solver.num_vars,
            len(solver._clauses),
            model if verdict else None,
        ])
        if not verdict:
            break
    return steps


def build_golden() -> dict:
    return {
        "specs": {name: trace(name) for name in GAP_SPECS},
        "batches": [batch_trace(seed) for seed in BATCH_SEEDS],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_gap_registry(golden):
    assert list(golden["specs"]) == list(GAP_SPECS)


@pytest.mark.parametrize("seed", BATCH_SEEDS)
def test_batch_trace_matches(seed, golden):
    assert batch_trace(seed) == golden["batches"][seed]


@pytest.mark.parametrize("name", GAP_SPECS)
def test_search_trace_matches(name, golden):
    expected = golden["specs"][name]
    actual = trace(name)
    for index, (want, got) in enumerate(zip(expected, actual)):
        assert got == want, f"{name}: minimize_problem call {index} diverged"
    assert len(actual) == len(expected)
    for problem in actual:
        if not problem["solvers"]:  # an empty on-set needs no search
            assert problem["phases"] == {} and problem["conflicts"] == 0
            continue
        # three descent phases, whose work adds up to that of every solver
        assert list(problem["phases"]) == ["cubes", "literals", "enumerate"]
        for kind in problem["phases"]["cubes"]:
            spent = sum(solver["stats"][kind] for solver in problem["solvers"])
            assert sum(phase[kind] for phase in problem["phases"].values()) == spent
        assert problem["conflicts"] == sum(
            solver["stats"]["conflicts"] for solver in problem["solvers"]
        )


if __name__ == "__main__":
    print(json.dumps(build_golden(), indent=1))
