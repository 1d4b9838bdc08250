"""Exact two-level synthesis by cardinality-constrained SAT descent.

The exact backend searches the same correctness space the paper's flows
approximate: equation (2) cover correctness plus the Property 1
monotonicity/acknowledgement condition, on the exact state-based regions.
Per signal it solves three :class:`~repro.sat.encode.CoverProblem`
instances — ``set``/``reset`` (monotone excitation functions) and
``complete`` (the combinational next-state function) — each to the
**lexicographic minimum** (fewest cubes, then fewest literals):

1. *gate descent*: solve once, then put a native at-most constraint over
   the selection variables (``add_at_most``) and tighten it below each
   model's cube count until UNSAT — the last satisfiable bound is the
   provable minimum cube count — or until a model meets the lower bound of
   on-set codes that need a cube each
   (:meth:`~repro.sat.encode.SignalEncoding.cost_floors`), which proves it
   minimum without the UNSAT call;
2. *literal descent*: fresh solver pinned to the minimum cube count,
   same game on a weighted constraint (cube weight = literal count);
3. *enumeration*: fresh solver pinned to both minima; every model is a
   minimum implementation and is excluded by a blocking clause over its
   selected cubes until the space is dry (or ``max_solutions`` truncates).

Each phase has its own solver because bounds only tighten: a clause learnt
under one bound holds under every tighter bound, not under a looser one.
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
from contextlib import nullcontext
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
from repro.sat.solver import new_solver
from repro.statebased.regions import SignalRegions, state_space
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
    "ExactSynthesisResult",
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


@dataclass
class ExactSynthesisResult:
    """Provably minimum circuit plus the exact regions and statistics."""

    circuit: Circuit
    regions: SignalRegions
    statistics: dict = field(default_factory=dict)


#: solver work counters surfaced into the ``repro_sat_total`` metric
_SOLVER_WORK = ("conflicts", "propagations", "decisions", "restarts", "learned")


def _observe_phase(obs, phase: str, solver, started: float) -> None:
    """Feed one descent phase's wall time and solver work into the registry.

    Each phase runs on a *fresh* solver (the encoding plus its own at-most
    constraints), so its ``stats`` dict is exactly this phase's work — no
    delta bookkeeping needed.
    """
    if obs is None:
        return
    obs.sat_phase_seconds.observe(time.perf_counter() - started, phase=phase)
    stats = getattr(solver, "stats", None) or {}
    for kind in _SOLVER_WORK:
        amount = stats.get(kind, 0)
        if amount:
            obs.sat_work.inc(float(amount), kind=kind)


def _fresh_solver(encoding: SignalEncoding, seed: int, prefer: Optional[str]):
    solver = new_solver(seed=seed, prefer=prefer)
    solver.ensure_vars(encoding.num_vars)
    if not solver.add_clauses(encoding.clauses):
        raise ExactSynthesisError(
            f"{encoding.problem.signal}/{encoding.problem.kind}: "
            "cover constraints are unsatisfiable"
        )
    return solver


def _descend(solver, encoding: SignalEncoding, items, first: int, floor: int) -> int:
    """Tighten ``sum(items) ≤ B`` until UNSAT or ``floor``; the minimum sum.

    ``first`` is the weighted sum of an already-found model; one at-most
    constraint is added at that bound and each step tightens it below the
    last model's sum.  ``floor`` is a proven lower bound (see
    :meth:`~repro.sat.encode.SignalEncoding.cost_floors`): a model that
    reaches it is minimum without an UNSAT proof.
    """
    best = first
    handle = solver.add_at_most(items, best)
    weight_of = dict(items)
    while best > floor:
        if not solver.tighten(handle, best - 1):
            break
        if solver.solve() is not True:
            break
        model = solver.model()
        best = sum(
            weight_of[var]
            for var in encoding.select_vars
            if model.get(var)
        )
    return best


def minimize_problem(
    problem: CoverProblem,
    budget: int = 4096,
    max_solutions: int = 64,
    seed: int = 0,
    prefer: Optional[str] = None,
) -> ProblemSolution:
    """Lexicographic (cubes, literals) minimization plus full enumeration."""
    start = time.perf_counter()
    encoding = build_encoding(
        problem, budget=budget, primes_only=problem.kind == "complete"
    )
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
    stats = {"candidates": len(encoding.candidates)}
    gate_floor, literal_floor = encoding.cost_floors()
    unit_items = [(var, 1) for var in encoding.select_vars]
    weights = encoding.weights()
    weighted_items = [
        (var, weight) for var, weight in zip(encoding.select_vars, weights)
    ]
    obs = current_obs()

    def _span(phase: str):
        if obs is None:
            return nullcontext()
        return obs.tracer.span(
            "sat:" + phase, signal=problem.signal, kind=problem.kind
        )

    # phase 1: minimum cube count
    phase_started = time.perf_counter()
    with _span("cubes"):
        solver = _fresh_solver(encoding, seed, prefer)
        if solver.solve() is not True:
            raise ExactSynthesisError(
                f"{problem.signal}/{problem.kind}: no monotone cover exists"
            )
        first = len(encoding.selection_of_model(solver.model()))
        gates = _descend(solver, encoding, unit_items, first, gate_floor)
    conflicts = getattr(solver, "stats", {}).get("conflicts", 0)
    _observe_phase(obs, "cubes", solver, phase_started)

    # phase 2: minimum literal count at that cube count
    phase_started = time.perf_counter()
    with _span("literals"):
        solver = _fresh_solver(encoding, seed, prefer)
        solver.add_at_most(unit_items, gates)
        if solver.solve() is not True:  # pragma: no cover - phase 1 proved SAT
            raise ExactSynthesisError(
                f"{problem.signal}/{problem.kind}: minimum-gate bound lost"
            )
        model = solver.model()
        first = sum(
            weights[i] for i in encoding.selection_of_model(model)
        )
        literals = _descend(solver, encoding, weighted_items, first, literal_floor)
    conflicts += getattr(solver, "stats", {}).get("conflicts", 0)
    _observe_phase(obs, "literals", solver, phase_started)

    # phase 3: enumerate every (gates, literals) minimum
    phase_started = time.perf_counter()
    with _span("enumerate"):
        solver = _fresh_solver(encoding, seed, prefer)
        solver.add_at_most(unit_items, gates)
        solver.add_at_most(weighted_items, literals)
        selections: list[list[int]] = []
        truncated = False
        while solver.solve() is True:
            selection = encoding.selection_of_model(solver.model())
            selections.append(selection)
            if len(selections) >= max_solutions:
                truncated = True
                break
            if not solver.add_clause([-encoding.select_vars[i] for i in selection]):
                break
        solutions = [
            [encoding.candidates[i] for i in selection]
            for selection in sorted(selections)
        ]
    conflicts += getattr(solver, "stats", {}).get("conflicts", 0)
    _observe_phase(obs, "enumerate", solver, phase_started)
    if not solutions:  # pragma: no cover - phases 1-2 proved feasibility
        raise ExactSynthesisError(
            f"{problem.signal}/{problem.kind}: enumeration found no model"
        )
    stats["conflicts"] = conflicts
    stats["seconds"] = time.perf_counter() - start
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


def _valid_single_cubes(solution: ProblemSolution, budget: int) -> list[tuple[int, int]]:
    """Candidate cubes that alone form a correct monotone cover."""
    problem = solution.problem
    encoding = solution.encoding or build_encoding(problem, budget=budget)
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
    budget: int,
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
    set_cubes = _valid_single_cubes(set_solution, budget)
    if not set_cubes:
        return None
    reset_cubes = _valid_single_cubes(reset_solution, budget)
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
    signals: Optional[list[str]] = None,
    check_specification: bool = True,
    regions: Optional[SignalRegions] = None,
    assume_csc: bool = False,
    candidate_budget: int = 4096,
    max_solutions: int = 64,
    seed: int = 0,
    prefer: Optional[str] = None,
) -> ExactSynthesisResult:
    """Synthesize the provably minimum-literal circuit of a specification.

    Mirrors :func:`repro.statebased.synthesis.synthesize_state_based`'s
    contract (same state space ``regions``, computed here when omitted, and
    the same specification check) but replaces heuristic two-level
    minimization with the SAT descent of :func:`minimize_problem`, then
    picks the cheapest of the three implementation architectures per
    signal.  ``candidate_budget`` bounds the per-problem implicant space and
    ``max_solutions`` the enumeration; blowing the former raises
    :class:`~repro.sat.encode.SatBudgetExceeded` (a capacity skip, not a
    synthesis failure).
    """
    start = time.perf_counter()
    if regions is None:
        regions = state_space(stg)
    stats: dict = {"markings": len(regions.encoded)}
    if check_specification:
        check_state_based_specification(
            stg, regions, assume_csc, error=ExactSynthesisError
        )

    targets = signals if signals is not None else stg.non_input_signals
    variables = tuple(stg.signal_names)

    circuit = Circuit(name=stg.name, signal_order=variables)
    signal_stats: dict[str, dict] = {}
    for signal in targets:
        implementation, info = _synthesize_signal(
            regions,
            signal,
            variables,
            budget=candidate_budget,
            max_solutions=max_solutions,
            seed=seed,
            prefer=prefer,
        )
        circuit.implementations[signal] = implementation
        signal_stats[signal] = info
    stats["signals"] = signal_stats
    stats["minima"] = {
        signal: info["minima"] for signal, info in signal_stats.items()
    }
    stats["seconds"] = time.perf_counter() - start
    circuit.metadata["sat"] = {
        "exact": True,
        "signals": signal_stats,
    }
    return ExactSynthesisResult(circuit=circuit, regions=regions, statistics=stats)


def _synthesize_signal(
    regions: SignalRegions,
    signal: str,
    variables: tuple[str, ...],
    budget: int,
    max_solutions: int,
    seed: int,
    prefer: Optional[str],
):
    """Minimum implementation of one signal across all architectures."""
    set_problem, reset_problem, complete_problem = _signal_problems(regions, signal)
    set_solution = minimize_problem(
        set_problem, budget=budget, max_solutions=max_solutions, seed=seed, prefer=prefer
    )
    reset_solution = minimize_problem(
        reset_problem, budget=budget, max_solutions=max_solutions, seed=seed, prefer=prefer
    )
    complete_solution = minimize_problem(
        complete_problem,
        budget=budget,
        max_solutions=max_solutions,
        seed=seed,
        prefer=prefer,
    )
    gated = _best_gated_latch(set_solution, reset_solution, budget)

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
