"""A dependency-free CDCL SAT solver (plus a naive DPLL reference oracle).

The solver implements the standard conflict-driven clause-learning loop:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with non-chronological backjumping,
* VSIDS-style variable activities with exponential decay,
* Luby-sequence restarts with phase saving,
* incremental use: clauses may be added between ``solve()`` calls (the
  exclude-model enumeration loop of :mod:`repro.sat.synthesize`), and
  ``solve(assumptions)`` solves under temporary unit assumptions,
* native weighted at-most constraints (``add_at_most``/``tighten``, in the
  manner of MiniCARD): a running sum per constraint, items forced false
  once they no longer fit, and explanation clauses built only when
  conflict analysis reads them.

Clauses are loaded in batches: :meth:`CDCLSolver.add_clauses` unwinds the
trail once and simplifies each clause against the root assignment inline,
and ``add_clause`` is its one-clause case.  Propagation reads literal values
from the assignment list directly, with no method call per literal.

Everything is deterministic given the ``seed`` (which only perturbs the
*initial* activities to break ties differently between seeds): identical
inputs replay identical search trees, which the differential tests and the
store-cacheable synthesis artifacts rely on.  The search tree of the exact
backend's descent is pinned phase by phase, with batched loading, by the
golden trace of ``tests/test_sat_search_trace.py``.

This is the only solver of the exact backend: every descent builds a
:class:`CDCLSolver` at seed 0, so a stored artifact's search statistics
depend on nothing but the specification.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from typing import Iterable, Optional, Sequence

__all__ = [
    "CDCLSolver",
    "_reference_dpll",
]


def _luby(x: int) -> int:
    """The x-th term (0-based) of the Luby restart sequence: 1 1 2 1 1 2 4 …"""
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class _AtMost:
    """One weighted at-most constraint ``sum(weight of true items) <= bound``.

    ``items`` are ``(literal, weight)`` pairs, heaviest first, so a scan for
    items that no longer fit stops at the first that does.  ``counted`` is
    the stack of items whose truth ``_propagate`` has added into ``total``,
    in trail order: the items of a cancelled trail suffix are a suffix of
    it, and literals the propagation never reached are not on it.
    """

    __slots__ = ("items", "weights", "bound", "total", "counted")

    def __init__(self, items: list[tuple[int, int]], bound: int):
        self.items = items
        self.weights = dict(items)
        self.bound = bound
        self.total = 0
        self.counted: list[int] = []

    def explain(self, count: int, item: int) -> list[int]:
        """The reason clause of ``item`` forced false: ``¬item ∨ ¬t₁ … ¬tₖ``.

        ``t₁ … tₖ`` are the first ``count`` counted items, the ones true when
        the propagation forced ``item``; the forced literal comes first.
        """
        clause = [-item]
        clause.extend([-t for t in self.counted[:count]])
        return clause


class CDCLSolver:
    """Conflict-driven clause learning over DIMACS-style signed literals.

    Variables are positive integers ``1..num_vars``; a literal is ``v`` or
    ``-v``.  ``add_clause`` grows the variable universe on demand.

    A variable's reason is a clause index, or ``(constraint, count, item)``
    for an item an at-most constraint forced false (see :meth:`_AtMost.explain`).
    """

    def __init__(self, num_vars: int = 0, seed: int = 0):
        self.seed = seed
        self._num_vars = 0
        # clause store: problem and learnt clauses share one arena
        self._clauses: list[list[int]] = []
        self._watches: list[list[int]] = [[], []]  # per literal index
        self._assign: list[int] = [0]  # 1 true, -1 false, 0 unassigned
        self._level: list[int] = [0]
        self._reason: list[Optional[int]] = [None]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._activity: list[float] = [0.0]
        # branching heap of (-activity, var) entries with lazy deletion: an
        # entry is stale once its activity is outdated, and ``_in_heap[v]``
        # says whether v has an entry at its current activity
        self._heap: list[tuple[float, int]] = []
        self._in_heap = bytearray(1)
        self._saved_phase: list[int] = [-1]
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._restart_base = 64
        self._rng = random.Random(seed)
        self._ok = True
        # at-most constraints, and each item literal's (constraint, weight)s
        self._cards: list[_AtMost] = []
        self._card_watch: dict[int, list[tuple[_AtMost, int]]] = {}
        self.stats = {
            "decisions": 0,
            "conflicts": 0,
            "propagations": 0,
            "restarts": 0,
            "learned": 0,
        }
        if num_vars:
            self.ensure_vars(num_vars)

    # ------------------------------------------------------------------ #
    # Variables and values
    # ------------------------------------------------------------------ #

    @property
    def num_vars(self) -> int:
        return self._num_vars

    def ensure_vars(self, count: int) -> None:
        """Grow the variable universe to at least ``count`` variables."""
        grow = count - self._num_vars
        if grow <= 0:
            return
        draw = self._rng.random
        # a seed-dependent epsilon so distinct seeds break activity ties
        # differently while any single seed stays fully deterministic; the
        # draws are taken in variable order, so variable v always gets the
        # v-th draw however the universe grew
        fresh = [draw() * 1e-6 for _ in range(grow)]
        self._activity.extend(fresh)
        heap = self._heap
        for var, activity in enumerate(fresh, self._num_vars + 1):
            heappush(heap, (-activity, var))
        self._in_heap.extend(b"\x01" * grow)
        self._assign.extend([0] * grow)
        self._level.extend([0] * grow)
        self._reason.extend([None] * grow)
        self._saved_phase.extend([-1] * grow)
        self._watches.extend([[] for _ in range(2 * grow)])
        self._num_vars = count

    @staticmethod
    def _widx(lit: int) -> int:
        """Watch-list index of a literal."""
        return (lit << 1) if lit > 0 else ((-lit << 1) | 1)

    def _value(self, lit: int) -> int:
        """1 if the literal is true, -1 false, 0 unassigned."""
        v = self._assign[abs(lit)]
        return v if lit > 0 else -v

    def value_of(self, var: int) -> Optional[bool]:
        """Value of a variable in the current (final) assignment."""
        v = self._assign[var]
        return None if v == 0 else v > 0

    def model(self) -> dict[int, bool]:
        """The satisfying assignment after a successful ``solve``."""
        return {v: self._assign[v] > 0 for v in range(1, self._num_vars + 1)}

    # ------------------------------------------------------------------ #
    # Clauses
    # ------------------------------------------------------------------ #

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add one clause; the one-clause case of :meth:`add_clauses`."""
        return self.add_clauses((lits,))

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> bool:
        """Add clauses in order; returns False once the formula is UNSAT.

        May be called between ``solve()`` calls — the trail is unwound to
        the root level first, so learnt knowledge is kept but nothing above
        level 0 survives.  Each clause is simplified against the root
        assignment as it is read: a clause with a root-true literal or a
        complementary pair is skipped, root-false and repeated literals are
        dropped (the first occurrence stays).  A unit clause is propagated
        before the next clause is read, so later clauses of the same batch
        see its consequences.
        """
        if not self._ok:
            return False
        self._cancel_until(0)
        assign = self._assign
        watches = self._watches
        arena = self._clauses
        for lits in clauses:
            clause: list[int] = []
            satisfied = False
            # while a clause is read, each literal it keeps is marked in
            # ``assign`` as 2 (true) and its complement as -2, so a repeat
            # reads 2 and a complement -2; the marks go before anything else
            try:
                for lit in lits:
                    lit = int(lit)
                    var = lit if lit > 0 else -lit
                    if var == 0:
                        raise ValueError("0 is not a literal")
                    if var > self._num_vars:
                        self.ensure_vars(var)
                    value = assign[var] if lit > 0 else -assign[var]
                    if value == 0:
                        clause.append(lit)
                        assign[var] = 2 if lit > 0 else -2
                    elif value == 1 or value == -2:
                        satisfied = True  # at the root level, or a tautology
                        break
                    # -1 (false at the root) or 2 (a repeat): drop the literal
            finally:
                for lit in clause:
                    assign[lit if lit > 0 else -lit] = 0
            if satisfied:
                continue
            if not clause:
                self._ok = False
                return False
            if len(clause) == 1:
                self._enqueue(clause[0], None)
                if self._propagate() is not None:
                    self._ok = False
                    return False
                continue
            first, second = clause[0], clause[1]
            ci = len(arena)
            arena.append(clause)
            watches[(first << 1) if first > 0 else ((-first << 1) | 1)].append(ci)
            watches[(second << 1) if second > 0 else ((-second << 1) | 1)].append(ci)
        return True

    # ------------------------------------------------------------------ #
    # Weighted at-most constraints
    # ------------------------------------------------------------------ #

    def add_at_most(self, items: Iterable[tuple[int, int]], bound: int) -> int:
        """Add ``sum(weight for literal, weight in items if literal) <= bound``.

        Weights are non-negative integers (weight-0 items are dropped, a
        repeated literal's weights add up); an item's complement may not be
        an item too.  Returns a handle for :meth:`tighten`.  Like
        :meth:`add_clauses` this works at the root level: the bound is
        applied to the root assignment at once, and an infeasible one makes
        the formula UNSAT.
        """
        weights: dict[int, int] = {}
        for lit, weight in items:
            lit, weight = int(lit), int(weight)
            if weight < 0:
                raise ValueError("at-most weights must be non-negative")
            weights[lit] = weights.get(lit, 0) + weight
        if 0 in weights:
            raise ValueError("0 is not a literal")
        for lit in weights:
            if -lit in weights:
                raise ValueError(f"complementary items {lit} and {-lit}")
        if weights:
            self.ensure_vars(max(max(weights), -min(weights)))
        weights = {lit: weight for lit, weight in weights.items() if weight}
        card = _AtMost(sorted(weights.items(), key=lambda item: -item[1]), int(bound))
        handle = len(self._cards)
        self._cards.append(card)
        for lit, weight in card.items:
            self._card_watch.setdefault(lit, []).append((card, weight))
        if self._to_root():
            assign = self._assign
            for lit, weight in card.items:
                if (assign[lit] if lit > 0 else -assign[-lit]) == 1:
                    card.counted.append(lit)
                    card.total += weight
            self._settle(card)
        return handle

    def tighten(self, handle: int, bound: int) -> bool:
        """Lower the bound of an at-most constraint; False once UNSAT.

        Bounds only tighten: a clause learnt under a bound still holds under
        any tighter one, never under a looser one.  So a descent goes on on
        the same solver while its answers are SAT, and after an UNSAT one
        loads a fresh solver at the last bound a model met (see
        :class:`repro.sat.synthesize._Descent`).
        """
        card = self._cards[handle]
        if bound > card.bound:
            raise ValueError(
                f"at-most bounds only tighten ({card.bound} -> {bound})"
            )
        card.bound = int(bound)
        if self._to_root():
            self._settle(card)
        return self._ok

    def _to_root(self) -> bool:
        """Unwind to the root and finish its propagation; False when UNSAT."""
        if not self._ok:
            return False
        self._cancel_until(0)
        if self._propagate() is not None:
            self._ok = False
        return self._ok

    def _settle(self, card: _AtMost) -> None:
        """Apply a root-level bound: force the items that no longer fit."""
        slack = card.bound - card.total
        if slack < 0:
            self._ok = False
            return
        assign = self._assign
        count = len(card.counted)
        for lit, weight in card.items:
            if weight <= slack:
                break
            if assign[abs(lit)] == 0:
                self._enqueue(-lit, (card, count, lit))
        if self._propagate() is not None:
            self._ok = False

    # ------------------------------------------------------------------ #
    # Trail
    # ------------------------------------------------------------------ #

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _enqueue(self, lit: int, reason) -> bool:
        var = abs(lit)
        if self._assign[var] != 0:
            return self._value(lit) == 1
        self._assign[var] = 1 if lit > 0 else -1
        self._level[var] = self._decision_level()
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _cancel_until(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        bound = self._trail_lim[level]
        trail = self._trail
        assign = self._assign
        saved_phase = self._saved_phase
        reason = self._reason
        heap = self._heap
        in_heap = self._in_heap
        activity = self._activity
        for index in range(len(trail) - 1, bound - 1, -1):
            lit = trail[index]
            var = lit if lit > 0 else -lit
            saved_phase[var] = assign[var]
            assign[var] = 0
            reason[var] = None
            if not in_heap[var]:
                in_heap[var] = 1
                heappush(heap, (-activity[var], var))
        for card in self._cards:
            counted = card.counted
            while counted and assign[abs(counted[-1])] == 0:
                card.total -= card.weights[counted.pop()]
        del self._trail[bound:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    # ------------------------------------------------------------------ #
    # Propagation
    # ------------------------------------------------------------------ #

    def _propagate(self) -> Optional[list[int]]:
        """Unit propagation; returns a conflicting clause or None.

        Literal values (``assign[v]``, negated for ``-v``) and watch-list
        indices are computed inline: this loop runs for every literal the
        search assigns.  A true literal is added into the at-most
        constraints it is an item of after its clause watches are visited;
        a constraint conflict returns the negation of the counted items.
        """
        clauses = self._clauses
        watches = self._watches
        card_watch = self._card_watch
        assign = self._assign
        level = self._level
        reason = self._reason
        trail = self._trail
        current = len(self._trail_lim)
        qhead = start = self._qhead
        conflict: Optional[list[int]] = None
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            neg = -lit
            watchers = watches[((lit << 1) | 1) if lit > 0 else (-lit << 1)]  # neg
            i = j = 0
            n = len(watchers)
            while i < n:
                ci = watchers[i]
                i += 1
                clause = clauses[ci]
                if clause[0] == neg:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                value = assign[first] if first > 0 else -assign[-first]
                if value == 1:
                    watchers[j] = ci
                    j += 1
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if (assign[other] if other > 0 else -assign[-other]) != -1:
                        clause[1], clause[k] = other, clause[1]
                        index = (other << 1) if other > 0 else ((-other << 1) | 1)
                        watches[index].append(ci)
                        break
                else:
                    # clause is unit or conflicting under the current trail
                    watchers[j] = ci
                    j += 1
                    if value == -1:
                        conflict = clause
                        break
                    var = first if first > 0 else -first
                    assign[var] = 1 if first > 0 else -1
                    level[var] = current
                    reason[var] = ci
                    trail.append(first)
            watchers[j:] = watchers[i:]  # after a conflict, keep the unvisited
            if conflict is not None:
                break
            for card, weight in card_watch.get(lit, ()):
                counted = card.counted
                counted.append(lit)
                card.total += weight
                slack = card.bound - card.total
                if slack < 0:
                    conflict = [-t for t in counted]
                    break
                count = len(counted)
                for item, item_weight in card.items:
                    if item_weight <= slack:
                        break
                    if (assign[item] if item > 0 else -assign[-item]) == 0:
                        var = item if item > 0 else -item
                        assign[var] = -1 if item > 0 else 1
                        level[var] = current
                        reason[var] = (card, count, item)
                        trail.append(-item)
            if conflict is not None:
                break
        self.stats["propagations"] += qhead - start
        self._qhead = len(trail)
        return conflict

    # ------------------------------------------------------------------ #
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------ #

    def _rescale(self) -> None:
        """Scale every activity down once one passed 1e100; rebuild the heap
        with one fresh entry per unassigned variable."""
        activity = self._activity
        inverse = 1e-100
        for v in range(1, self._num_vars + 1):
            activity[v] *= inverse
        self._var_inc *= inverse
        assign = self._assign
        in_heap = self._in_heap
        heap = []
        for var in range(1, self._num_vars + 1):
            if assign[var] == 0:
                heap.append((-activity[var], var))
                in_heap[var] = 1
            else:
                in_heap[var] = 0
        heapify(heap)
        self._heap = heap

    def _analyze(self, clause: list[int]) -> tuple[list[int], int]:
        """First-UIP learnt clause and backjump level of a conflicting clause.

        Every variable met above the root gets its activity bumped (its heap
        entry renewed), in the order the clauses are read.
        """
        seen = bytearray(self._num_vars + 1)
        level = self._level
        trail = self._trail
        activity = self._activity
        in_heap = self._in_heap
        increment = self._var_inc
        learnt: list[int] = [0]  # slot 0 holds the asserting literal
        bt_level = 0
        counter = 0
        p: Optional[int] = None
        index = len(trail)
        current = len(self._trail_lim)
        while True:
            for q in clause if p is None else clause[1:]:
                var = q if q > 0 else -q
                if seen[var]:
                    continue
                var_level = level[var]
                if var_level == 0:
                    continue
                seen[var] = 1
                bumped = activity[var] + increment
                activity[var] = bumped
                if bumped > 1e100:
                    self._rescale()
                    increment = self._var_inc
                elif in_heap[var]:
                    heappush(self._heap, (-bumped, var))
                if var_level >= current:
                    counter += 1
                else:
                    learnt.append(q)
                    if var_level > bt_level:
                        bt_level = var_level
            while True:
                index -= 1
                p = trail[index]
                if seen[p if p > 0 else -p]:
                    break
            counter -= 1
            if counter == 0:
                break
            var = p if p > 0 else -p
            seen[var] = 0
            reason = self._reason[var]
            if reason.__class__ is int:
                clause = self._clauses[reason]
            else:
                card, count, item = reason
                clause = card.explain(count, item)
        learnt[0] = -p
        return learnt, bt_level

    def _record_learnt(self, learnt: list[int]) -> None:
        self.stats["learned"] += 1
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        # the second watch must sit at the backjump level (highest level
        # among the non-asserting literals) for the invariant to hold
        best = 1
        for k in range(2, len(learnt)):
            if self._level[abs(learnt[k])] > self._level[abs(learnt[best])]:
                best = k
        learnt[1], learnt[best] = learnt[best], learnt[1]
        ci = len(self._clauses)
        self._clauses.append(learnt)
        self._watches[self._widx(learnt[0])].append(ci)
        self._watches[self._widx(learnt[1])].append(ci)
        self._enqueue(learnt[0], ci)

    # ------------------------------------------------------------------ #
    # Decisions
    # ------------------------------------------------------------------ #

    def _pick_branch_var(self) -> Optional[int]:
        """The unassigned variable of highest activity, lowest index on ties.

        Pops stale entries and assigned variables off the heap top; the
        variable returned keeps its entry until a later pick finds it
        assigned, and ``_cancel_until`` pushes a variable back only when it
        has none.  Picks what :meth:`_reference_pick_branch_var` picks.
        """
        heap = self._heap
        activity = self._activity
        assign = self._assign
        while heap:
            negative, var = heap[0]
            if -negative != activity[var]:
                heappop(heap)  # stale: the variable has a newer entry
            elif assign[var] != 0:
                heappop(heap)
                self._in_heap[var] = 0
            else:
                return var
        return None

    def _reference_pick_branch_var(self) -> Optional[int]:
        """The linear scan the heap replaces — the differential oracle."""
        best = None
        best_act = -1.0
        activity = self._activity
        assign = self._assign
        for var in range(1, self._num_vars + 1):
            if assign[var] == 0 and activity[var] > best_act:
                best_act = activity[var]
                best = var
        return best

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #

    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
    ) -> Optional[bool]:
        """Solve the current formula (optionally under unit assumptions).

        Returns True (satisfiable; read the assignment via :meth:`model`),
        False (unsatisfiable — under the assumptions, if any were given), or
        None when ``max_conflicts`` was exhausted first.
        """
        if not self._ok:
            return False
        self._cancel_until(0)
        if self._propagate() is not None:
            self._ok = False
            return False
        assumptions = [int(a) for a in assumptions]
        for lit in assumptions:
            self.ensure_vars(abs(lit))
        restarts = 0
        budget = self._restart_base * _luby(restarts + 1)
        conflicts_since_restart = 0
        total_conflicts = 0
        while True:
            confl = self._propagate()
            if confl is not None:
                self.stats["conflicts"] += 1
                total_conflicts += 1
                conflicts_since_restart += 1
                if self._decision_level() == 0:
                    self._ok = False
                    return False
                learnt, bt_level = self._analyze(confl)
                self._cancel_until(bt_level)
                self._record_learnt(learnt)
                self._var_inc *= self._var_decay
                if max_conflicts is not None and total_conflicts >= max_conflicts:
                    self._cancel_until(0)
                    return None
                continue
            if conflicts_since_restart >= budget:
                self.stats["restarts"] += 1
                restarts += 1
                budget = self._restart_base * _luby(restarts + 1)
                conflicts_since_restart = 0
                self._cancel_until(0)
                continue
            # place pending assumptions first, one decision level each
            level = self._decision_level()
            if level < len(assumptions):
                lit = assumptions[level]
                value = self._value(lit)
                if value == -1:
                    return False  # refuted under the earlier assumptions
                self._trail_lim.append(len(self._trail))
                if value == 0:
                    self._enqueue(lit, None)
                continue
            var = self._pick_branch_var()
            if var is None:
                return True
            self.stats["decisions"] += 1
            self._trail_lim.append(len(self._trail))
            phase = self._saved_phase[var]
            self._enqueue(var if phase > 0 else -var, None)


# ---------------------------------------------------------------------- #
# Reference oracle
# ---------------------------------------------------------------------- #


def _reference_dpll(
    clauses: Sequence[Sequence[int]], num_vars: Optional[int] = None
) -> tuple[bool, Optional[dict[int, bool]]]:
    """Naive DPLL with unit propagation — the differential oracle.

    Exponential and recursion-based: only for the randomized differential
    tests (small formulas), never for synthesis.
    """
    if num_vars is None:
        num_vars = max((abs(l) for c in clauses for l in c), default=0)
    assignment: dict[int, bool] = {}

    def propagate(clauses):
        """Exhaustive unit propagation; returns residual clauses or None."""
        changed = True
        while changed:
            changed = False
            units = [c[0] for c in clauses if len(c) == 1]
            if not units:
                break
            for unit in units:
                var, value = abs(unit), unit > 0
                if assignment.get(var, value) != value:
                    return None
                assignment[var] = value
                residual = []
                for clause in clauses:
                    if unit in clause:
                        continue
                    reduced = [l for l in clause if l != -unit]
                    if not reduced:
                        return None
                    residual.append(reduced)
                clauses = residual
                changed = True
        return clauses

    def recurse(clauses) -> bool:
        clauses = propagate(clauses)
        if clauses is None:
            return False
        if not clauses:
            return True
        var = min(abs(l) for c in clauses for l in c)
        saved = dict(assignment)
        for value in (False, True):
            lit = var if value else -var
            assignment.clear()
            assignment.update(saved)
            if recurse(clauses + [[lit]]):
                return True
        assignment.clear()
        assignment.update(saved)
        return False

    normalized = [list(dict.fromkeys(int(l) for l in c)) for c in clauses]
    if any(not clause for clause in normalized):
        return False, None
    # tautological clauses (v and not v) are always satisfied: drop them
    if recurse([c for c in normalized if not any(-l in c for l in c)]):
        for var in range(1, num_vars + 1):
            assignment.setdefault(var, False)
        return True, assignment
    return False, None
