"""Tests of the pure-python CDCL solver (:mod:`repro.sat.solver`).

The solver is the trust anchor of the exact backend, so it gets the same
treatment as the compiled kernels: hand-built formulas with known
answers, structured hard instances (pigeonhole), and a randomized
differential sweep against the naive DPLL ``_reference_dpll`` oracle.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.sat.solver import CDCLSolver, _luby, _reference_dpll


def satisfies(clauses, model: dict[int, bool]) -> bool:
    """Check a model against a CNF (every clause has a true literal)."""
    return all(
        any(model.get(abs(lit), False) == (lit > 0) for lit in clause)
        for clause in clauses
    )


def pigeonhole(holes: int) -> list[list[int]]:
    """PHP(holes+1, holes): unsatisfiable for every ``holes`` >= 1."""
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1  # noqa: E731
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1, p2 in itertools.combinations(range(pigeons), 2):
            clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert CDCLSolver().solve() is True

    def test_single_unit(self):
        solver = CDCLSolver()
        solver.add_clause([1])
        assert solver.solve() is True
        assert solver.value_of(1) is True

    def test_contradictory_units(self):
        solver = CDCLSolver()
        solver.add_clause([1])
        assert solver.add_clause([-1]) is False
        assert solver.solve() is False

    def test_empty_clause_is_unsat(self):
        solver = CDCLSolver()
        assert solver.add_clause([]) is False
        assert solver.solve() is False

    def test_unit_propagation_chain(self):
        # 1, 1->2, 2->3, 3->4: all forced true without any decision
        solver = CDCLSolver()
        solver.add_clauses([[1], [-1, 2], [-2, 3], [-3, 4]])
        assert solver.solve() is True
        assert all(solver.value_of(v) is True for v in (1, 2, 3, 4))
        assert solver.stats["decisions"] == 0

    def test_conflict_learning_small_unsat(self):
        # all eight clauses over three variables: classically unsat
        solver = CDCLSolver()
        for bits in itertools.product((1, -1), repeat=3):
            solver.add_clause([sign * var for sign, var in zip(bits, (1, 2, 3))])
        assert solver.solve() is False

    def test_model_satisfies_formula(self):
        clauses = [[1, 2], [-1, 3], [-2, -3], [2, 3]]
        solver = CDCLSolver()
        solver.add_clauses(clauses)
        assert solver.solve() is True
        assert satisfies(clauses, solver.model())

    def test_default_phase_is_negative(self):
        # phase saving starts negative so selection variables in the
        # synthesis encodings default to "unselected"
        solver = CDCLSolver()
        solver.ensure_vars(3)
        solver.add_clause([1, 2, 3])
        assert solver.solve() is True
        assert sum(1 for v in (1, 2, 3) if solver.value_of(v)) == 1


class TestPigeonhole:
    @pytest.mark.parametrize("holes", [1, 2, 3, 4])
    def test_unsat(self, holes):
        solver = CDCLSolver()
        solver.add_clauses(pigeonhole(holes))
        assert solver.solve() is False
        if holes >= 3:
            assert solver.stats["conflicts"] > 0  # genuinely needed search

    def test_conflict_budget_returns_none(self):
        solver = CDCLSolver()
        solver.add_clauses(pigeonhole(5))
        verdict = solver.solve(max_conflicts=1)
        assert verdict is None
        # the budget is a pause, not a corruption: solving on works
        assert solver.solve() is False


class TestAssumptions:
    def test_sat_and_refuted_assumptions(self):
        solver = CDCLSolver()
        solver.add_clauses([[1, 2], [-1, -2]])
        assert solver.solve(assumptions=[1]) is True
        assert solver.value_of(1) is True and solver.value_of(2) is False
        assert solver.solve(assumptions=[1, 2]) is False
        # assumptions do not persist: the plain formula stays satisfiable
        assert solver.solve() is True

    def test_incremental_clause_addition(self):
        solver = CDCLSolver()
        solver.add_clause([1, 2])
        assert solver.solve() is True
        solver.add_clause([-1])
        assert solver.solve() is True
        assert solver.value_of(2) is True
        solver.add_clause([-2])
        assert solver.solve() is False

    def test_model_enumeration_via_blocking(self):
        # x1+x2+x3 >= 1 has exactly 7 models
        clauses = [[1, 2, 3]]
        solver = CDCLSolver()
        solver.add_clauses(clauses)
        seen = set()
        while solver.solve() is True:
            model = tuple(bool(solver.value_of(v)) for v in (1, 2, 3))
            assert model not in seen
            seen.add(model)
            solver.add_clause(
                [-v if solver.value_of(v) else v for v in (1, 2, 3)]
            )
        assert len(seen) == 7


class TestDeterminism:
    def test_same_seed_same_model(self):
        clauses = [[1, 2, 5], [-2, 3], [-5, -3, 4], [2, -4], [1, -5]]
        models = []
        for _ in range(2):
            solver = CDCLSolver(seed=7)
            solver.add_clauses(clauses)
            assert solver.solve() is True
            models.append(tuple(sorted(solver.model().items())))
        assert models[0] == models[1]

    def test_luby_sequence(self):
        assert [_luby(i) for i in range(1, 16)] == [
            1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, 1,
        ]
        # every power of two appears, and the sequence never explodes
        assert max(_luby(i) for i in range(1, 64)) == 32


class TestDifferential:
    """Randomized 3-CNF sweep: CDCL vs the naive DPLL oracle."""

    def random_cnf(self, rng, num_vars, num_clauses):
        clauses = []
        for _ in range(num_clauses):
            size = rng.randint(1, 3)
            chosen = rng.sample(range(1, num_vars + 1), size)
            clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
        return clauses

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_reference(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            num_vars = rng.randint(3, 8)
            clauses = self.random_cnf(rng, num_vars, rng.randint(2, 4 * num_vars))
            expected, _model = _reference_dpll(clauses, num_vars)
            solver = CDCLSolver(seed=seed)
            solver.add_clauses(clauses)
            verdict = solver.solve()
            assert verdict is expected, f"divergence on {clauses}"
            if verdict:
                assert satisfies(clauses, solver.model())

    def test_reference_oracle_basics(self):
        assert _reference_dpll([[1], [-1]], 1) == (False, None)
        sat, model = _reference_dpll([[1, 2], [-1]], 2)
        assert sat is True and model[2] is True


class TestBulkLoading:
    """``add_clauses`` simplifies each clause against the root as it reads it.

    Batches are loaded after a ``solve()`` that left decisions on the trail,
    and mix repeated literals, complementary pairs, literals already decided
    at the root, units whose propagation reaches later clauses of the same
    batch, and clauses whose every literal is false at the root.
    """

    NUM_VARS = 24

    def random_batch(self, rng, solver):
        root = [
            lit
            for var in range(1, solver.num_vars + 1)
            for lit in (var, -var)
            if solver._level[var] == 0 and solver.value_of(var) is (lit > 0)
        ]
        batch = []
        for _ in range(rng.randint(3, 8)):
            clause = [
                rng.choice((1, -1)) * rng.randint(1, self.NUM_VARS)
                for _ in range(rng.randint(1, 3))
            ]
            roll = rng.random()
            if roll < 0.2:
                clause.append(clause[0])  # a repeat
            elif roll < 0.3:
                clause.insert(1, -clause[0])  # a complementary pair
            elif roll < 0.7 and root:  # true or false at the root
                lit = rng.choice(root) * rng.choice((1, -1))
                clause.insert(rng.randint(0, len(clause)), lit)
            elif roll < 0.73 and root:
                clause = [-rng.choice(root)] * rng.randint(1, 2)  # drops to empty
            batch.append(clause)
        # a, then a -> b: b is decided at the root before the later clause
        # [-b, c] is read, which therefore loads as the unit [c]
        a, b, c = rng.sample(range(1, self.NUM_VARS + 1), 3)
        position = rng.randint(0, len(batch))
        batch[position:position] = [[-a, b], [a], [-b, c]]
        return batch

    @pytest.mark.parametrize("seed", range(12))
    def test_batches_after_search(self, seed):
        rng = random.Random(seed)
        base = [
            [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 11), 3)]
            for _ in range(12)
        ]
        solver = CDCLSolver(seed=seed)
        twin = CDCLSolver(seed=seed)
        clauses = [list(clause) for clause in base]
        assert solver.add_clauses(base) is True
        for clause in base:
            twin.add_clause(clause)
        for round_ in range(5):
            verdict = solver.solve()
            assert twin.solve() is verdict
            assert verdict is _reference_dpll(clauses, self.NUM_VARS)[0]
            assert solver.stats == twin.stats
            if not verdict:
                break
            assert satisfies(clauses, solver.model())
            assert solver.model() == twin.model()
            if round_ == 4:
                break
            batch = self.random_batch(rng, solver)
            assert solver._trail_lim  # the batch meets a trail above level 0
            loaded = solver.add_clauses(batch)
            assert all([twin.add_clause(clause) for clause in batch]) is loaded
            assert len(solver._clauses) == len(twin._clauses)
            assert solver.num_vars == twin.num_vars
            clauses.extend(batch)
            if not loaded:
                assert _reference_dpll(clauses, self.NUM_VARS)[0] is False

    def test_empty_clause_is_final(self):
        solver = CDCLSolver()
        assert solver.add_clauses([[1, 2], [3], [-3, -3], [4]]) is False
        assert solver.num_vars == 3  # nothing after the empty clause was read
        assert solver.add_clauses([[5]]) is False
        assert solver.add_clause([6]) is False
        assert solver.add_clauses([]) is False
        assert solver.solve() is False
        assert solver.solve(assumptions=[1]) is False

    def test_unit_reaches_later_clauses_of_its_batch(self):
        solver = CDCLSolver()
        solver.add_clauses([[-1, 2], [1], [-2, 3, 3], [-2, -1]])
        assert solver._ok is False  # [-2, -1] dropped to empty at the root
        solver = CDCLSolver()
        solver.add_clauses([[-1, 2], [1], [-2, 3, 4], [2, 5]])
        assert solver._clauses[-1] == [3, 4]  # -2 dropped, [2, 5] skipped
        assert solver.solve() is True
        assert solver.value_of(2) is True

    def test_zero_literal_raises(self):
        solver = CDCLSolver()
        with pytest.raises(ValueError, match="0 is not a literal"):
            solver.add_clauses([[1, 2], [3, -4, 0]])
        # the clause read so far leaves nothing decided behind
        assert solver.value_of(3) is None and solver.value_of(4) is None
        assert solver.solve() is True
        assert satisfies([[1, 2]], solver.model())
