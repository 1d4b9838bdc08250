"""Tests of the exact SAT synthesis backend (:mod:`repro.sat`).

The exact backend's contract is differential: on every spec it must agree
with both existing backends at every reachable code, and its literal count
must never exceed either heuristic's (their covers are feasible points of
the exact search space).  Plus unit tests of the CNF building blocks.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Pipeline, SynthesisOptions, compare, get_backend
from repro.api.artifacts import SynthesisArtifact
from repro.api.backends import BACKEND_NAMES, SATBackend
from repro.api.spec import Spec
from repro.experiments.optimality_gap import GAP_SPECS
from repro.sat import encode as sat_encode
from repro.sat import synthesize as sat_synthesize
from repro.sat.encode import (
    CoverProblem,
    SatBudgetExceeded,
    SignalEncoding,
    _reference_add_counter,
    build_encoding,
    enumerate_implicants,
)
from repro.sat.solver import CDCLSolver
from repro.sat.synthesize import exact_synthesize, minimize_problem
from repro.statebased.regions import state_space

#: small specs with enumerable state spaces and certified CSC
EXACT_NAMES = ["handshake_seq", "sequencer", "converter_2to4", "muller_pipeline_2"]


class TestCardinalityEncodings:
    def test_add_counter_thresholds(self):
        # weights 2 + 1 + 3; every threshold output must track the sum
        items = [(1, 2), (2, 1), (3, 3)]
        width = 6
        clauses: list[list[int]] = []
        next_var, outputs = _reference_add_counter(clauses, items, width, 3)
        assert len(outputs) == width
        solver = CDCLSolver()
        solver.ensure_vars(next_var)
        solver.add_clauses(clauses)
        for bits in itertools.product([False, True], repeat=3):
            total = sum(w for (lit, w), b in zip(items, bits) if b)
            assumptions = [lit if b else -lit for (lit, _), b in zip(items, bits)]
            assert solver.solve(assumptions=assumptions) is True
            for j in range(width):
                if total >= j + 1:
                    assert solver.value_of(outputs[j]) is True
        # and the tightening clause actually bans the heavy selection
        solver.add_clause([-outputs[2]])  # sum <= 2
        assert solver.solve(assumptions=[3]) is False  # weight 3 alone busts it
        assert solver.solve(assumptions=[2, -1, -3]) is True

    def test_add_counter_empty(self):
        clauses: list[list[int]] = []
        assert _reference_add_counter(clauses, [], 4, 0) == (0, [])
        assert clauses == []


class TestImplicantEnumeration:
    def test_single_minterm_no_off_set_expands_to_tautology(self):
        # 2 signals, seed 0b00, empty off-set: the free expansion reaches
        # the universal cube (care == 0)
        cubes = enumerate_implicants(0b11, [0b00], [], budget=64)
        assert (0, 0) in cubes
        assert len(cubes) == 4  # 00, 0-, -0, --

    def test_off_set_prunes_expansion(self):
        # off-set = exactly 0b11: cubes containing it are pruned
        cubes = enumerate_implicants(0b11, [0b00], [(0b11, 0b11)], budget=64)
        assert (0, 0) not in cubes
        assert all((care & 0b11) != 0 or False for care, _ in cubes) or cubes
        for care, value in cubes:
            # no cube may contain the off minterm 11
            assert not ((0b11 & care) == (value & care) and value | ~care & 0b11)

    def test_primes_only_keeps_maximal(self):
        all_cubes = set(enumerate_implicants(0b11, [0b00], [(0b11, 0b11)], budget=64))
        primes = set(
            enumerate_implicants(
                0b11, [0b00], [(0b11, 0b11)], budget=64, primes_only=True
            )
        )
        assert primes < all_cubes
        # the two 1-literal cubes a'=(01 care, 00 val) and b' are the primes
        assert primes == {(0b01, 0b00), (0b10, 0b00)}

    def test_budget_raises(self):
        with pytest.raises(SatBudgetExceeded):
            enumerate_implicants((1 << 10) - 1, [0], [], budget=8)


class TestMinimizeProblem:
    def test_empty_on_set_is_the_empty_cover(self):
        problem = CoverProblem(
            signal="x", kind="set", signals_mask=0b11, on_codes=(), off_pairs=()
        )
        solution = minimize_problem(problem)
        assert solution.gates == 0 and solution.literals == 0
        assert solution.solutions == [[]]

    def test_two_minterm_merge(self):
        # on = {00, 01}, off = {10, 11}: minimum is the single cube a'
        problem = CoverProblem(
            signal="x",
            kind="complete",
            signals_mask=0b11,
            on_codes=(0b00, 0b10),  # bit0 = a varies; bit1 = b stays 0
            off_pairs=((0b01, 0b01),),  # b == 1 is off  (care=b, value=b)
        )
        solution = minimize_problem(problem)
        assert solution.gates == 1
        assert solution.literals == 1
        assert len(solution.solutions) == 1

    def test_infeasible_on_code_raises(self):
        from repro.sat.synthesize import ExactSynthesisError

        problem = CoverProblem(
            signal="x",
            kind="complete",
            signals_mask=0b1,
            on_codes=(0b0,),
            off_pairs=((0b0, 0b0),),  # off-set covers every code
        )
        with pytest.raises(ExactSynthesisError):
            minimize_problem(problem)

    def test_enumeration_cap_marks_truncation(self):
        # 2 on-minterms, generous off-free space, max_solutions=1
        problem = CoverProblem(
            signal="x",
            kind="complete",
            signals_mask=0b111,
            on_codes=(0b000, 0b111),
            off_pairs=(),
        )
        solution = minimize_problem(problem, max_solutions=1)
        assert len(solution.solutions) == 1
        assert solution.truncated is True


def _brute_force_minima(encoding, most: int):
    """(gates, literals, count) of the lexicographic minima, by enumeration.

    A selection's auxiliary state variables are what the encoding ties them
    to (the OR of the selected cubes covering the state's code), so a
    selection is feasible when every clause holds under that completion.
    """
    problem = encoding.problem
    weights = encoding.weights()
    for size in range(1, most + 1):
        best = None
        count = 0
        for selection in itertools.combinations(range(len(encoding.candidates)), size):
            value = {encoding.select_vars[i]: True for i in selection}
            for state, code in problem.quiescent_states:
                value[encoding.state_vars[state]] = any(
                    (code & encoding.candidates[i][0]) == encoding.candidates[i][1]
                    for i in selection
                )
            if not all(
                any(value.get(abs(lit), False) == (lit > 0) for lit in clause)
                for clause in encoding.clauses
            ):
                continue
            literals = sum(weights[i] for i in selection)
            if best is None or literals < best:
                best, count = literals, 1
            elif literals == best:
                count += 1
        if best is not None:
            return size, best, count
    raise AssertionError("no cover with one cube per on-set code")


@st.composite
def small_problems(draw):
    """Random 3-signal cover problems, optionally with quiescent constraints."""
    roles = draw(st.lists(st.sampled_from("ood-"), min_size=8, max_size=8))
    on = [code for code, role in enumerate(roles) if role == "o"][:3]
    if not on:
        on = [draw(st.integers(0, 7))]
    off = [code for code, role in enumerate(roles) if role == "-" and code not in on]
    dc = [code for code in range(8) if code not in on and code not in off]
    kind = draw(st.sampled_from(("set", "complete")))
    states: tuple = ()
    edges: tuple = ()
    if kind == "set" and dc:
        codes = draw(st.lists(st.sampled_from(dc), max_size=4))
        states = tuple(enumerate(codes))
        if len(states) > 1:
            pairs = draw(
                st.lists(st.tuples(st.integers(0, len(states) - 1),
                                   st.integers(0, len(states) - 1)), max_size=4)
            )
            edges = tuple(pair for pair in pairs if pair[0] != pair[1])
    return CoverProblem(
        signal="x",
        kind=kind,
        signals_mask=0b111,
        on_codes=tuple(on),
        off_pairs=tuple((0b111, code) for code in off),
        quiescent_states=states,
        quiescent_edges=edges,
    )


def _zero_floors(encoding):
    """Floors of zero: no cube probe can succeed, so every descent falls back."""
    return 0, 0


class TestMinimaAgainstEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(problem=small_problems())
    def test_descent_floors_and_enumeration(self, problem):
        self._check(problem)

    @settings(max_examples=60, deadline=None)
    @given(problem=small_problems())
    def test_fallback_descent_without_floors(self, problem):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SignalEncoding, "cost_floors", _zero_floors)
            self._check(problem)

    @staticmethod
    def _check(problem):
        encoding = build_encoding(problem, primes_only=problem.kind == "complete")
        gates, literals, count = _brute_force_minima(encoding, len(problem.on_codes))
        cube_floor, literal_floor = encoding.cost_floors()
        assert cube_floor <= gates
        assert literal_floor <= literals
        solution = minimize_problem(problem, max_solutions=10_000)
        assert (solution.gates, solution.literals) == (gates, literals)
        assert len(solution.solutions) == count and not solution.truncated
        assert solution.solutions == sorted(solution.solutions, key=lambda cubes: [
            encoding.candidates.index(cube) for cube in cubes
        ])


GOLDEN_TRACE = Path(__file__).resolve().parent / "data" / "sat_search_trace.json"

#: the gap-spec cover problems whose literal floor lies below the minimum:
#: the floor probe is UNSAT, so each loads exactly one fresh solver more
FALLBACK_PROBLEMS = {
    ("dma_ctrl", "xreq", "reset"),
    ("selector", "ack1", "reset"),
    ("selector", "ack1", "complete"),
    ("selector", "ack2", "reset"),
    ("selector", "ack2", "complete"),
}


def _solved(name: str) -> list:
    """``(problem, solution, solvers)`` of every cover problem of a gap spec.

    ``solvers`` are the solvers the problem loaded.  Each descent phase ends
    at most two (at its floor probe and at its last step), and enumeration
    may need one more: a problem that loads a sixth fails at once, so a
    descent that never ends fails too.
    """
    solved: list = []
    built: list = []
    cdcl_solver = sat_synthesize.CDCLSolver
    minimize = sat_synthesize.minimize_problem

    def counting_solver(*args, **options):
        built.append(cdcl_solver(*args, **options))
        assert len(built) <= 5, "a cover problem loaded more than five solvers"
        return built[-1]

    def recording(problem, **options):
        built.clear()
        solution = minimize(problem, **options)
        solved.append((problem, solution, list(built)))
        return solution

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sat_synthesize, "CDCLSolver", counting_solver)
        patch.setattr(sat_synthesize, "minimize_problem", recording)
        stg = Spec.from_benchmark(name).stg
        exact_synthesize(stg, state_space(stg), assume_csc=True)
    return solved


def _minima(solved) -> list:
    return [
        (p.signal, p.kind, s.gates, s.literals, s.solutions, s.truncated)
        for p, s, _ in solved
    ]


class TestOneSolverDescent:
    """The three phases share a solver; only an UNSAT answer loads another."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_TRACE.read_text())["specs"]

    @pytest.mark.parametrize("name", ["dma_ctrl", "selector", "parallelizer"])
    def test_failed_floor_probes_load_one_more_solver(self, name, golden):
        solved = _solved(name)
        assert len(solved) == len(golden[name])
        for (problem, solution, solvers), want in zip(solved, golden[name]):
            fallback = (name, problem.signal, problem.kind) in FALLBACK_PROBLEMS
            assert len(solvers) == solution.stats["solvers"] == 1 + fallback
            outcome = (solution.gates, solution.literals, len(solution.solutions))
            assert outcome == (want["gates"], want["literals"], want["solutions"])
            assert not solution.truncated
            # conflicts are summed over every solver the problem loaded
            spent = sum(solver.stats["conflicts"] for solver in solvers)
            assert solution.stats["conflicts"] == spent == want["conflicts"]
            phases = solution.stats["phases"]
            assert sum(phase["conflicts"] for phase in phases.values()) == spent

    def test_bounds_end_at_the_minima_on_the_live_solver(self):
        # on = x0·x3' with 1 cube of 2 literals.  From the full selection (a
        # model of every encoding: 3 cubes here) the floor probe at 0 fails,
        # and the fresh solver's model under the bound 2 has 1 cube: the
        # cube bound must still end at 1 before the literal descent, which
        # meets its floor on that solver
        problem = CoverProblem(
            signal="x",
            kind="complete",
            signals_mask=0b1111,
            on_codes=(1, 3, 5, 7),
            off_pairs=tuple((0b1111, code) for code in (2, 4, 6, 8, 9, 10, 12, 13, 14)),
        )
        encoding = build_encoding(problem, primes_only=True)
        descent = sat_synthesize._Descent(encoding)
        assert descent.solve()
        descent.selection = list(range(len(encoding.candidates)))
        gates = descent.minimum([1] * len(encoding.candidates), 0)
        literals = descent.minimum(encoding.weights(), encoding.cost_floors()[1])
        assert (gates, literals) == (1, 2)
        assert descent.built == 2
        assert [card.bound for card in descent.solver._cards] == [gates, literals]

    @pytest.mark.parametrize("name", GAP_SPECS)
    def test_fallback_everywhere_keeps_the_minima(self, name, monkeypatch):
        expected = _minima(_solved(name))
        monkeypatch.setattr(SignalEncoding, "cost_floors", _zero_floors)
        fallen = _solved(name)
        assert _minima(fallen) == expected
        assert all(len(solvers) >= 2 for _, _, solvers in fallen)


class TestExactSynthesize:
    def test_fig6_circuit_is_minimal_and_correct(self, fig6):
        regions = state_space(fig6)
        circuit = exact_synthesize(fig6, regions)
        assert circuit.metadata["sat"]["exact"] is True
        assert len(regions.encoded) > 0
        # exact never beats the spec: verify against the state-based baseline
        from repro.statebased.synthesis import synthesize_state_based

        baseline = synthesize_state_based(fig6, regions)
        assert circuit.literal_count() <= baseline.literal_count()

    def test_signals_subset(self, fig6):
        signal = sorted(fig6.non_input_signals)[0]
        circuit = exact_synthesize(fig6, state_space(fig6), signals=[signal])
        assert list(circuit.implementations) == [signal]

    def test_budget_exhaustion_raises_skip(self, fig6, monkeypatch):
        monkeypatch.setattr(sat_encode, "CANDIDATE_BUDGET", 1)
        with pytest.raises(SatBudgetExceeded):
            exact_synthesize(fig6, state_space(fig6))

    @pytest.mark.parametrize(
        "option", ["prefer", "seed", "max_solutions", "candidate_budget"]
    )
    def test_search_takes_no_solver_options(self, fig6, option):
        with pytest.raises(TypeError, match=option):
            exact_synthesize(fig6, state_space(fig6), **{option: 1})

    def test_environment_selects_no_solver(self, monkeypatch):
        # the search depends only on the spec: a solver-selecting variable
        # left in the environment changes neither minima nor conflicts
        expected = _solved("selector")
        monkeypatch.setenv("REPRO_SAT_SOLVER", "pysat")
        solved = _solved("selector")
        assert _minima(solved) == _minima(expected)
        assert [s.stats["conflicts"] for _, s, _ in solved] == [
            s.stats["conflicts"] for _, s, _ in expected
        ]
        assert all(
            type(solver) is CDCLSolver for _, _, solvers in solved for solver in solvers
        )


class TestSATBackend:
    def test_registered(self):
        assert "sat" in BACKEND_NAMES
        assert isinstance(get_backend("sat"), SATBackend)

    @pytest.mark.parametrize(
        "option", ["candidate_budget", "max_solutions", "seed", "prefer"]
    )
    def test_backend_takes_no_options(self, option):
        with pytest.raises(TypeError):
            SATBackend(**{option: 1})

    @pytest.mark.parametrize("name", EXACT_NAMES)
    def test_agrees_with_both_backends_and_never_worse(self, name):
        pipeline = Pipeline()
        spec = Spec.from_benchmark(name)
        options = SynthesisOptions(level=5, assume_csc=True)
        exact = pipeline.synthesize(spec, options, backend="sat")
        for baseline in ("structural", "statebased"):
            report = compare(
                spec, options, pipeline=pipeline, backends=(baseline, "sat")
            )
            assert report.matching, report.mismatches
            assert report.backends == (baseline, "sat")
            assert exact.literals <= report.structural.synthesis.literals

    def test_artifact_details_roundtrip(self):
        pipeline = Pipeline()
        spec = Spec.from_benchmark("sequencer")
        artifact = pipeline.synthesize(
            spec, SynthesisOptions(assume_csc=True), backend="sat"
        )
        assert artifact.details["exact"] is True
        assert artifact.details["minima"]  # per-signal minima counts
        signals = artifact.circuit.metadata["sat"]["signals"]
        assert artifact.details["signals"] == signals
        assert artifact.details["minima"] == {
            signal: info["minima"] for signal, info in signals.items()
        }
        restored = SynthesisArtifact.from_json(json.loads(json.dumps(artifact.to_json())))
        assert restored.details == json.loads(json.dumps(artifact.details))
        assert restored.literals == artifact.literals

    def test_store_roundtrip_preserves_details(self, tmp_path):
        from repro.api.store import ArtifactStore

        pipeline = Pipeline(store=ArtifactStore(tmp_path / "store"))
        spec = Spec.from_benchmark("sequencer")
        options = SynthesisOptions(assume_csc=True)
        first = pipeline.synthesize(spec, options, backend="sat")
        fresh = Pipeline(store=ArtifactStore(tmp_path / "store"))
        second = fresh.synthesize(spec, options, backend="sat")
        assert second.details == json.loads(json.dumps(first.details))
        assert second.literals == first.literals


class TestGapExperiment:
    def test_gap_rows_smoke(self):
        from repro.experiments.optimality_gap import gap_rows

        rows = gap_rows(names=["fig6", "muller_pipeline_2"])
        assert [r["spec"] for r in rows] == ["fig6", "muller_pipeline_2", "TOTAL"]
        for row in rows[:-1]:
            assert row["status"] == "ok"
            assert row["sound"] is True and row["matching"] is True
            assert row["exact_lits"] <= row["structural_lits"]
            assert row["exact_lits"] <= row["statebased_lits"]
        total = rows[-1]
        assert total["status"] == "2/2 ok"
        assert total["gap_lits"] == total["structural_lits"] - total["exact_lits"]

    def test_gap_registry_is_complete(self):
        from repro.benchmarks.registry import list_benchmarks
        from repro.experiments.optimality_gap import GAP_SPECS

        assert len(GAP_SPECS) == 13
        assert set(GAP_SPECS) <= set(list_benchmarks())


class TestCLI:
    def test_gap_command(self, capsys):
        from repro.api.cli import main

        code = main(["gap", "--spec", "fig6", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        rows = json.loads(out)
        assert rows[-1]["spec"] == "TOTAL"
        assert rows[0]["sound"] is True

    def test_synthesize_sat_backend(self, capsys):
        from repro.api.cli import main

        code = main(["synthesize", "sequencer", "--backend", "sat", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert data["backend"] == "sat"
        assert data["synthesize"]["details"]["exact"] is True

    def test_compare_backend_pair(self, capsys):
        from repro.api.cli import main

        code = main(["compare", "fig6", "--backends", "statebased", "sat"])
        out = capsys.readouterr().out
        assert code == 0
        assert "MATCH" in out
