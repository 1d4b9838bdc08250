"""Native weighted at-most constraints and the branching heap of the CDCL solver.

The exact backend's descent bounds the cube and literal counts with
:meth:`~repro.sat.solver.CDCLSolver.add_at_most` and
:meth:`~repro.sat.solver.CDCLSolver.tighten` instead of CNF counters.  The
differential sweep here interleaves ``solve()`` (with and without
assumptions), ``add_clause`` and ``tighten`` on random formulas with one or
two weighted constraints, and checks every verdict against
``_reference_dpll`` on the same clauses plus the
:func:`~repro.sat.encode._reference_add_counter` encoding of each bound,
every model against every clause and bound, and every branching decision
of the heap against the linear scan it replaced
(``_reference_pick_branch_var``).
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat.encode import _reference_add_counter
from repro.sat.solver import CDCLSolver, _reference_dpll


class CheckedSolver(CDCLSolver):
    """A solver whose every branching pick is checked against the scan, and
    whose lazy at-most reasons are checked whenever a conflict is analysed:
    each explanation starts with its forced literal, and every other literal
    is false and earlier on the trail."""

    picks = 0

    def _pick_branch_var(self):
        picked = super()._pick_branch_var()
        assert picked == self._reference_pick_branch_var()
        self.picks += 1
        return picked

    def _analyze(self, clause):
        position = {abs(lit): index for index, lit in enumerate(self._trail)}
        for index, lit in enumerate(self._trail):
            reason = self._reason[abs(lit)]
            if isinstance(reason, tuple):
                card, count, item = reason
                explanation = card.explain(count, item)
                assert explanation[0] == lit == -item
                for other in explanation[1:]:
                    assert self._value(other) == -1
                    assert position[abs(other)] < index
        return super()._analyze(clause)


def weighted_sum(items, model) -> int:
    return sum(w for lit, w in items if model.get(abs(lit), False) == (lit > 0))


def reference_verdict(num_vars, clauses, constraints, assumptions) -> bool:
    """The DPLL verdict on the clauses plus a counter per constraint."""
    cnf = [list(c) for c in clauses] + [[lit] for lit in assumptions]
    next_var = num_vars
    for items, bound in constraints:
        if bound < 0:
            return False
        next_var, outputs = _reference_add_counter(cnf, items, bound + 1, next_var)
        if outputs:
            cnf.append([-outputs[bound]])
    return _reference_dpll(cnf, next_var)[0]


NUM_VARS = 7
literal = st.integers(1, NUM_VARS).flatmap(lambda v: st.sampled_from((v, -v)))
clause = st.lists(literal, min_size=1, max_size=3)
constraint = st.tuples(
    st.lists(
        st.tuples(st.integers(1, NUM_VARS), st.booleans(), st.integers(1, 4)),
        min_size=1,
        max_size=NUM_VARS,
        unique_by=lambda item: item[0],
    ),
    st.integers(0, 8),
)
step = st.one_of(
    st.tuples(st.just("solve"), st.lists(literal, max_size=3, unique_by=abs)),
    st.tuples(st.just("clause"), clause),
    st.tuples(st.just("tighten"), st.integers(0, 1), st.integers(1, 3)),
)


@settings(max_examples=300, deadline=None)
@given(
    clauses=st.lists(clause, max_size=14),
    constraints=st.lists(constraint, min_size=1, max_size=2),
    steps=st.lists(step, min_size=1, max_size=8),
    seed=st.integers(0, 3),
)
def test_native_constraints_match_the_counter_encoding(clauses, constraints, steps, seed):
    solver = CheckedSolver(seed=seed)
    solver.ensure_vars(NUM_VARS)
    solver.add_clauses(clauses)
    live = []
    for raw_items, bound in constraints:
        items = [(var if positive else -var, w) for var, positive, w in raw_items]
        live.append([solver.add_at_most(items, bound), items, bound])
    clauses = [list(c) for c in clauses]
    for action, *args in steps + [("solve", [])]:
        if action == "clause":
            clauses.append(args[0])
            solver.add_clause(args[0])
        elif action == "tighten":
            entry = live[args[0] % len(live)]
            entry[2] -= args[1]
            solver.tighten(entry[0], entry[2])
        else:
            assumptions = args[0]
            verdict = solver.solve(assumptions)
            expected = reference_verdict(
                NUM_VARS, clauses, [(items, bound) for _, items, bound in live], assumptions
            )
            assert verdict is expected
            if verdict:
                model = solver.model()
                for c in clauses:
                    assert any(model[abs(l)] == (l > 0) for l in c)
                for lit in assumptions:
                    assert model[abs(lit)] == (lit > 0)
                for _, items, bound in live:
                    assert weighted_sum(items, model) <= bound


def pigeonhole(holes: int) -> list[list[int]]:
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1  # noqa: E731
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1, p2 in itertools.combinations(range(pigeons), 2):
            clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


@pytest.mark.parametrize("holes", [4, 5])
def test_heap_pick_equals_the_scan_through_rescales(holes):
    solver = CheckedSolver(seed=holes)
    solver._var_inc = 5e99  # rescale (and rebuild the heap) within a few conflicts
    solver.add_clauses(pigeonhole(holes))
    assert solver.solve() is False
    assert solver.picks > 0
    assert solver._var_inc < 1e90  # rescaled


def test_pigeonhole_as_cardinality():
    # 6 pigeons, each in one of 5 holes, at most one pigeon per hole
    holes, pigeons = 5, 6
    var = lambda p, h: p * holes + h + 1  # noqa: E731
    solver = CheckedSolver()
    solver.add_clauses([[var(p, h) for h in range(holes)] for p in range(pigeons)])
    for h in range(holes):
        solver.add_at_most([(var(p, h), 1) for p in range(pigeons)], 1)
    assert solver.solve() is False


def test_descent_to_the_minimum():
    # cover {1..4} by sets: a={1,2} b={3,4} c={1,2,3} d={4}; weights 2 2 3 1
    a, b, c, d = 1, 2, 3, 4
    solver = CheckedSolver()
    solver.add_clauses([[a, c], [a, c], [b, c], [b, d]])
    items = [(a, 2), (b, 2), (c, 3), (d, 1)]
    handle = solver.add_at_most(items, 8)
    best = 8
    while solver.solve():
        best = weighted_sum(items, solver.model())
        if not solver.tighten(handle, best - 1):
            break
    assert best == 4  # c + d
    assert solver.solve() is False


def test_reason_reads_only_the_items_counted_before_the_forcing():
    # d implies a; a (2) true forces x (3) false under bound 4; x false
    # forces b (1) true, which is counted after x; b leads to a conflict on
    # c whose analysis resolves back to d through x's reason, which must
    # name a alone
    d, a, x, b, e, c = 1, 2, 3, 4, 5, 6
    solver = CheckedSolver()
    solver.add_at_most([(a, 2), (x, 3), (b, 1)], 4)
    solver.add_clauses([[-d, a], [x, b], [-b, e], [-e, c], [-e, -c]])
    assert solver.solve([d]) is False
    assert solver.solve() is True
    assert solver.value_of(d) is False


class TestApi:
    def test_root_true_items_count_at_once(self):
        solver = CDCLSolver()
        solver.add_clauses([[1], [2]])
        solver.add_at_most([(1, 1), (2, 1), (3, 1)], 2)
        assert solver.value_of(3) is False  # forced at the root
        assert solver.solve() is True

    def test_infeasible_bound_is_unsat(self):
        solver = CDCLSolver()
        solver.add_clause([1])
        solver.add_at_most([(1, 3)], 2)
        assert solver.solve() is False

    def test_negative_bound_is_unsat(self):
        solver = CDCLSolver()
        handle = solver.add_at_most([(1, 1)], 0)
        assert solver.solve() is True
        assert solver.tighten(handle, -1) is False
        assert solver.solve() is False

    def test_bounds_only_tighten(self):
        solver = CDCLSolver()
        handle = solver.add_at_most([(1, 1), (2, 1)], 1)
        with pytest.raises(ValueError):
            solver.tighten(handle, 2)

    def test_repeats_add_up_and_zero_weights_drop(self):
        solver = CDCLSolver()
        solver.add_clause([1])
        solver.add_at_most([(1, 1), (1, 1), (2, 0)], 1)
        assert solver.solve() is False

    def test_malformed_items(self):
        solver = CDCLSolver()
        with pytest.raises(ValueError):
            solver.add_at_most([(1, 1), (-1, 1)], 1)
        with pytest.raises(ValueError):
            solver.add_at_most([(1, -1)], 1)
        with pytest.raises(ValueError):
            solver.add_at_most([(0, 1)], 1)

    def test_negative_items(self):
        # at most one of 1, 2, 3 is false
        solver = CDCLSolver()
        solver.add_at_most([(-1, 1), (-2, 1), (-3, 1)], 1)
        solver.add_clause([-1])
        assert solver.solve() is True
        assert solver.value_of(2) is True and solver.value_of(3) is True
