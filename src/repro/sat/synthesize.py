"""Exact two-level synthesis by cardinality-constrained SAT descent.

The exact backend searches the same correctness space the paper's flows
approximate: equation (2) cover correctness plus the Property 1
monotonicity/acknowledgement condition, on the exact state-based regions.
Per signal it solves three :class:`~repro.sat.encode.CoverProblem`
instances — ``set``/``reset`` (monotone excitation functions) and
``complete`` (the combinational next-state function) — each to the
**lexicographic minimum** (fewest cubes, then fewest literals):

1. *gate descent*: solve once, put a native at-most constraint over the
   selection variables (``add_at_most``) at that model's cube count, and
   tighten it straight to the lower bound of on-set codes that need a
   cube each (:meth:`~repro.sat.encode.SignalEncoding.cost_floors`): a
   model there is minimum.  When the floor is UNSAT, a fresh solver steps
   one unit below each model until UNSAT or the proven ``floor + 1``;
2. *literal descent*: the cube bound tightened to that minimum, the same
   game on a weighted constraint (cube weight = literal count);
3. *enumeration*: with both bounds at their minima, every model is a
   minimum implementation and is excluded by a blocking clause over its
   selected cubes until the space is dry (or ``max_solutions`` truncates).

The phases share one solver (:class:`_Descent`): adding a constraint or
tightening a bound never invalidates a learnt clause.  Only an UNSAT
answer ends a solver, because bounds only tighten; the next step loads a
fresh one with every bound some model met.  On the 13 ``repro gap`` specs
87 cover problems load 92 solvers.  Every solver is a
:class:`~repro.sat.solver.CDCLSolver` at its default seed, and the search
has no setting beyond the module-level candidate budget
(:data:`~repro.sat.encode.CANDIDATE_BUDGET`), so the minima and the
reported ``conflicts`` depend on the specification alone.

The minima are sorted by candidate indices and the circuit is built from
the first: candidates are in a process-independent order (see
:func:`~repro.sat.encode.enumerate_implicants`), so the pick does not
depend on which minimum the search found first.

The implementation architecture is then chosen exactly: minimum literal
cost among the combinational complex gate, the set/reset C-latch and the
collapsed gated latch (single-cube covers with equal support at Hamming
distance one, costed as in Appendix D).  Level-5 structural covers can
leave this space through M5 backward expansion (they lean on the opposite
network holding the latch); the optimality-gap experiment therefore
reports the structural baseline at the strongest level inside the space.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from repro.obs import current_obs

from repro.boolean.interning import mask_of_tuple, var_index
from repro.sat.encode import (
    CoverProblem,
    SignalEncoding,
    build_encoding,
    cover_of_masks,
    signal_order_remap,
)
from repro.sat.solver import CDCLSolver
from repro.statebased.regions import SignalRegions
from repro.statebased.synthesis import (
    StateBasedSynthesisError,
    check_state_based_specification,
)
from repro.stg.encoding import state_indices
from repro.stg.stg import STG
from repro.synthesis.netlist import (
    Architecture,
    Circuit,
    combinational_implementation,
    latch_implementation,
)

__all__ = [
    "ExactSynthesisError",
    "ProblemSolution",
    "exact_synthesize",
    "minimize_problem",
]


class ExactSynthesisError(StateBasedSynthesisError):
    """The specification admits no cover in the exact search space."""


@dataclass
class ProblemSolution:
    """All lexicographic minima of one :class:`CoverProblem`."""

    problem: CoverProblem
    #: minimum cube count / minimum literal count (at that cube count)
    gates: int
    literals: int
    #: every minimum implementation, as packed-cube mask lists in candidate
    #: order, sorted by candidate indices: ``solutions[0]`` is the canonical
    #: minimum, whichever the search happened to find first
    solutions: list[list[tuple[int, int]]]
    #: True when ``max_solutions`` cut the enumeration short
    truncated: bool = False
    candidates: int = 0
    stats: dict = field(default_factory=dict)
    #: the built CNF (kept for the gated-latch search; not serialized)
    encoding: Optional[SignalEncoding] = None


#: solver work counters surfaced into the ``repro_sat_total`` metric
_SOLVER_WORK = ("conflicts", "propagations", "decisions", "restarts", "learned")


def _observe_phase(obs, phase: str, work: dict, started: float) -> None:
    """Feed one descent phase's wall time and solver work into the registry.

    ``work`` is the phase's delta of :meth:`_Descent.work`: the phases of
    one cover problem share a solver, so each reads the counters before and
    after it runs.
    """
    if obs is None:
        return
    obs.sat_phase_seconds.observe(time.perf_counter() - started, phase=phase)
    for kind in _SOLVER_WORK:
        amount = work.get(kind, 0)
        if amount:
            obs.sat_work.inc(float(amount), kind=kind)


def _fresh_solver(encoding: SignalEncoding) -> CDCLSolver:
    solver = CDCLSolver()
    solver.ensure_vars(encoding.num_vars)
    if not solver.add_clauses(encoding.clauses):
        raise ExactSynthesisError(
            f"{encoding.problem.signal}/{encoding.problem.kind}: "
            "cover constraints are unsatisfiable"
        )
    return solver


class _Descent:
    """The solver of one cover problem's descent, and the bounds it carries.

    All three phases run on one solver while it stays satisfiable: adding
    an at-most constraint, tightening a bound or adding a blocking clause
    never invalidates a learnt clause.  An UNSAT answer ends the solver,
    since the bound it refuted can never be loosened again; the next step
    loads a fresh one with the encoding and each constraint at the last
    bound a model met.
    """

    def __init__(self, encoding: SignalEncoding):
        self.encoding = encoding
        #: ``[items, bound]`` per at-most constraint, at a bound a model met
        self.bounds: list[list] = []
        self.handles: list = []
        self.solver: Optional[CDCLSolver] = None
        #: solvers loaded, and the work counters of those UNSAT ended
        self.built = 0
        self.spent = dict.fromkeys(_SOLVER_WORK, 0)
        #: candidate indices of the last model, read before any tighten
        #: (which unwinds the assignment to the root)
        self.selection: list[int] = []

    def live(self):
        """The live solver; a fresh one after an UNSAT answer."""
        if self.solver is None:
            self.solver = _fresh_solver(self.encoding)
            self.built += 1
            self.handles = [
                self.solver.add_at_most(items, bound) for items, bound in self.bounds
            ]
        return self.solver

    def work(self) -> dict[str, int]:
        """Work counters summed over every solver this problem loaded."""
        if self.solver is None:
            return dict(self.spent)
        stats = self.solver.stats
        return {kind: self.spent[kind] + stats[kind] for kind in _SOLVER_WORK}

    def solve(self) -> bool:
        """Solve on the live solver: keep a model's selection, or end the solver."""
        solver = self.live()
        if solver.solve() is True:
            self.selection = self.encoding.selection_of_model(solver.model())
            return True
        self.spent = self.work()
        self.solver = None
        return False

    def minimum(self, weights: list[int], floor: int) -> int:
        """Minimize the selection's total weight, trying ``floor`` first.

        ``floor`` is a proven lower bound (see
        :meth:`~repro.sat.encode.SignalEncoding.cost_floors`).  An at-most
        constraint is added at the last model's weight and tightened
        straight to ``floor``: a model there is minimum.  When ``floor`` is
        UNSAT, ``floor + 1`` is proven, and a fresh solver steps one unit
        below each model until UNSAT or that bound.  The constraint ends at
        the minimum on the live solver.
        """
        best = sum(weights[i] for i in self.selection)
        items = list(zip(self.encoding.select_vars, weights))
        self.bounds.append([items, best])
        if self.solver is not None:
            self.handles.append(self.solver.add_at_most(items, best))
        if best > floor and not self._meets(weights, floor):
            while best > floor + 1 and self._meets(weights, best - 1):
                best = self.bounds[-1][1]
        best = self.bounds[-1][1]
        if self.solver is not None:
            self.solver.tighten(self.handles[-1], best)
        return best

    def _meets(self, weights: list[int], bound: int) -> bool:
        """Tighten the last constraint to ``bound``; True if a model meets it."""
        self.live().tighten(self.handles[-1], bound)
        if not self.solve():
            return False
        self.bounds[-1][1] = sum(weights[i] for i in self.selection)
        return True


def minimize_problem(
    problem: CoverProblem,
    max_solutions: int = 64,
) -> ProblemSolution:
    """Lexicographic (cubes, literals) minimization plus full enumeration."""
    start = time.perf_counter()
    encoding = build_encoding(problem, primes_only=problem.kind == "complete")
    if not problem.on_codes:
        return ProblemSolution(
            problem=problem,
            gates=0,
            literals=0,
            solutions=[[]],
            candidates=len(encoding.candidates),
            stats={"seconds": time.perf_counter() - start},
            encoding=encoding,
        )
    if any(not clause for clause in encoding.clauses):
        raise ExactSynthesisError(
            f"{problem.signal}/{problem.kind}: an on-set code has no valid "
            "covering cube (state coding conflict?)"
        )
    gate_floor, literal_floor = encoding.cost_floors()
    descent = _Descent(encoding)
    phases: dict[str, dict[str, int]] = {}
    obs = current_obs()

    @contextmanager
    def _phase(name: str):
        started = time.perf_counter()
        before = descent.work()
        if obs is None:
            yield
        else:
            with obs.tracer.span(
                "sat:" + name, signal=problem.signal, kind=problem.kind
            ):
                yield
        after = descent.work()
        phases[name] = {kind: after[kind] - before[kind] for kind in _SOLVER_WORK}
        _observe_phase(obs, name, phases[name], started)

    # phase 1: minimum cube count
    with _phase("cubes"):
        if not descent.solve():
            raise ExactSynthesisError(
                f"{problem.signal}/{problem.kind}: no monotone cover exists"
            )
        gates = descent.minimum([1] * len(encoding.candidates), gate_floor)

    # phase 2: minimum literal count at that cube count
    with _phase("literals"):
        literals = descent.minimum(encoding.weights(), literal_floor)

    # phase 3: enumerate every (gates, literals) minimum
    with _phase("enumerate"):
        selections: list[list[int]] = []
        truncated = False
        while descent.solve():
            selections.append(descent.selection)
            if len(selections) >= max_solutions:
                truncated = True
                break
            blocking = [-encoding.select_vars[i] for i in descent.selection]
            if not descent.solver.add_clause(blocking):
                break
        solutions = [
            [encoding.candidates[i] for i in selection]
            for selection in sorted(selections)
        ]
    if not solutions:  # pragma: no cover - phases 1-2 proved feasibility
        raise ExactSynthesisError(
            f"{problem.signal}/{problem.kind}: enumeration found no model"
        )
    stats = {
        "candidates": len(encoding.candidates),
        "solvers": descent.built,
        "phases": phases,
        "conflicts": descent.work()["conflicts"],
        "seconds": time.perf_counter() - start,
    }
    return ProblemSolution(
        problem=problem,
        gates=gates,
        literals=literals,
        solutions=solutions,
        truncated=truncated,
        candidates=len(encoding.candidates),
        stats=stats,
        encoding=encoding,
    )


# ---------------------------------------------------------------------- #
# Per-signal problem construction
# ---------------------------------------------------------------------- #


def _signal_problems(
    regions: SignalRegions, signal: str
) -> tuple[CoverProblem, CoverProblem, CoverProblem]:
    """(set, reset, complete) cover problems of one signal."""
    encoded = regions.encoded
    indexed = encoded.indexed()
    codes = encoded.packed_codes
    signal_names = tuple(encoded.stg.signal_names)
    signals_mask = mask_of_tuple(signal_names)
    signal_bits = tuple(var_index(name) for name in signal_names)
    remap = signal_order_remap(signal_bits)

    def on_codes_of(bits: int) -> tuple[int, ...]:
        return tuple(sorted(regions.code_set(bits), key=remap))

    def quiescent_of(bits: int):
        states = tuple((s, codes[s]) for s in state_indices(bits))
        edges = tuple(
            (source, state)
            for state, _ in states
            for _, source in indexed.pred[state]
            if bits >> source & 1
        )
        return states, edges

    def off_of(bits: int) -> tuple[tuple[int, int], ...]:
        return tuple(encoded.space_pairs(encoded.key_set_of_bits(bits), complement=False))

    ger_plus = regions.ger_bits(signal, "+")
    ger_minus = regions.ger_bits(signal, "-")
    gqr_one = regions.gqr_bits(signal, 1)
    gqr_zero = regions.gqr_bits(signal, 0)

    set_states, set_edges = quiescent_of(gqr_one)
    reset_states, reset_edges = quiescent_of(gqr_zero)
    set_problem = CoverProblem(
        signal=signal,
        kind="set",
        signals_mask=signals_mask,
        on_codes=on_codes_of(ger_plus),
        off_pairs=off_of(ger_minus | gqr_zero),
        quiescent_states=set_states,
        quiescent_edges=set_edges,
        signal_bits=signal_bits,
    )
    reset_problem = CoverProblem(
        signal=signal,
        kind="reset",
        signals_mask=signals_mask,
        on_codes=on_codes_of(ger_minus),
        off_pairs=off_of(ger_plus | gqr_one),
        quiescent_states=reset_states,
        quiescent_edges=reset_edges,
        signal_bits=signal_bits,
    )
    complete_problem = CoverProblem(
        signal=signal,
        kind="complete",
        signals_mask=signals_mask,
        on_codes=on_codes_of(ger_plus | gqr_one),
        off_pairs=off_of(ger_minus | gqr_zero),
        signal_bits=signal_bits,
    )
    return set_problem, reset_problem, complete_problem


# ---------------------------------------------------------------------- #
# Gated-latch search (Appendix D, exact)
# ---------------------------------------------------------------------- #


def _valid_single_cubes(solution: ProblemSolution) -> list[tuple[int, int]]:
    """Candidate cubes that alone form a correct monotone cover."""
    problem = solution.problem
    encoding = solution.encoding or build_encoding(problem)
    edges = problem.quiescent_edges
    valid = []
    for care, value in encoding.candidates:
        if any((code & care) != value for code in problem.on_codes):
            continue
        covered = {
            state
            for state, code in problem.quiescent_states
            if (code & care) == value
        }
        if any(
            state in covered and source not in covered
            for source, state in edges
        ):
            continue
        valid.append((care, value))
    return valid


def _best_gated_latch(
    set_solution: ProblemSolution,
    reset_solution: ProblemSolution,
) -> Optional[tuple[int, list[tuple[tuple[int, int], tuple[int, int]]]]]:
    """Minimum-cost (set cube, reset cube) pairs collapsible to a gated latch.

    Eligibility follows :func:`repro.synthesis.engine._try_gated_latch`:
    both covers single cubes with identical support at Hamming distance
    one; the cost is the Appendix D count — the shared literals plus the
    data and control inputs.  The pairs come in candidate order (reset
    cube, then set cube), which is the same in every process.
    """
    if not set_solution.problem.on_codes or not reset_solution.problem.on_codes:
        return None
    set_cubes = _valid_single_cubes(set_solution)
    if not set_cubes:
        return None
    reset_cubes = _valid_single_cubes(reset_solution)
    best_cost: Optional[int] = None
    best_pairs: list[tuple[tuple[int, int], tuple[int, int]]] = []
    by_care: dict[int, list[int]] = {}
    for care, value in set_cubes:
        by_care.setdefault(care, []).append(value)
    for care, reset_value in reset_cubes:
        for set_value in by_care.get(care, ()):
            if ((set_value ^ reset_value)).bit_count() != 1:
                continue
            cost = care.bit_count() + 1
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_pairs = [((care, set_value), (care, reset_value))]
            elif cost == best_cost:
                best_pairs.append(((care, set_value), (care, reset_value)))
    if best_cost is None:
        return None
    return best_cost, best_pairs


# ---------------------------------------------------------------------- #
# The exact synthesis driver
# ---------------------------------------------------------------------- #


def exact_synthesize(
    stg: STG,
    regions: SignalRegions,
    signals: Optional[list[str]] = None,
    assume_csc: bool = False,
) -> Circuit:
    """Synthesize the provably minimum-literal circuit of a specification.

    Mirrors :func:`repro.statebased.synthesis.synthesize_state_based`'s
    contract (the state space ``regions`` from
    :func:`repro.statebased.regions.state_space`, the same specification
    check) but replaces heuristic two-level minimization with the SAT
    descent of :func:`minimize_problem`, then picks the cheapest of the
    three implementation architectures per signal.  The per-signal search
    summaries land in ``circuit.metadata["sat"]["signals"]``.
    :data:`~repro.sat.encode.CANDIDATE_BUDGET` bounds the per-problem
    implicant space; blowing it raises
    :class:`~repro.sat.encode.SatBudgetExceeded` (a capacity skip, not a
    synthesis failure).  Enumeration keeps at most
    ``minimize_problem``'s default of 64 minima per cover problem.
    """
    check_state_based_specification(
        stg, regions, assume_csc, error=ExactSynthesisError
    )

    targets = signals if signals is not None else stg.non_input_signals
    variables = tuple(stg.signal_names)

    circuit = Circuit(name=stg.name, signal_order=variables)
    signal_stats: dict[str, dict] = {}
    for signal in targets:
        implementation, info = _synthesize_signal(regions, signal, variables)
        circuit.implementations[signal] = implementation
        signal_stats[signal] = info
    circuit.metadata["sat"] = {
        "exact": True,
        "signals": signal_stats,
    }
    return circuit


def _synthesize_signal(
    regions: SignalRegions,
    signal: str,
    variables: tuple[str, ...],
):
    """Minimum implementation of one signal across all architectures."""
    set_problem, reset_problem, complete_problem = _signal_problems(regions, signal)
    set_solution = minimize_problem(set_problem)
    reset_solution = minimize_problem(reset_problem)
    complete_solution = minimize_problem(complete_problem)
    gated = _best_gated_latch(set_solution, reset_solution)

    latch_cost = set_solution.literals + reset_solution.literals
    costs = [
        ("complex-gate", complete_solution.literals),
        ("gated-latch", gated[0] if gated else None),
        ("set-reset-latch", latch_cost),
    ]
    choice = min(
        (cost, order)
        for order, (_, cost) in enumerate(costs)
        if cost is not None
    )[1]
    architecture = costs[choice][0]

    if architecture == "complex-gate":
        cover = cover_of_masks(complete_solution.solutions[0], variables)
        implementation = combinational_implementation(signal, cover)
        minima = len(complete_solution.solutions)
    elif architecture == "gated-latch":
        assert gated is not None
        _, pairs = gated
        set_pair, reset_pair = pairs[0]
        implementation = latch_implementation(
            signal,
            cover_of_masks([set_pair], variables),
            cover_of_masks([reset_pair], variables),
            architecture=Architecture.GATED_LATCH,
        )
        minima = len(pairs)
    else:
        implementation = latch_implementation(
            signal,
            cover_of_masks(set_solution.solutions[0], variables),
            cover_of_masks(reset_solution.solutions[0], variables),
        )
        minima = len(set_solution.solutions) * len(reset_solution.solutions)

    info = {
        "architecture": implementation.architecture.value,
        "literals": implementation.literal_count(),
        "minima": minima,
        "truncated": any(
            s.truncated for s in (set_solution, reset_solution, complete_solution)
        ),
        "set": _solution_summary(set_solution),
        "reset": _solution_summary(reset_solution),
        "complete": _solution_summary(complete_solution),
        "gated_cost": gated[0] if gated else None,
    }
    return implementation, info


def _solution_summary(solution: ProblemSolution) -> dict:
    return {
        "gates": solution.gates,
        "literals": solution.literals,
        "solutions": len(solution.solutions),
        "candidates": solution.candidates,
        "truncated": solution.truncated,
        "conflicts": solution.stats.get("conflicts", 0),
    }
