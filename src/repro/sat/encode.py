"""CNF encoding of the exact two-level synthesis problem of one signal.

The synthesis of a set/reset/complete cover is encoded as *cube selection*:

* the candidate space is every implicant of ``on ∪ dc`` — all packed
  ``(care, value)`` cubes over the signal universe that avoid the off-set
  and cover at least one relevant reachable code (an on-set code, or a
  quiescent-region code the monotonicity constraint can mention).  The
  space is enumerated by literal-dropping expansion from the relevant
  minterms, so it contains the primes *and* every smaller implicant —
  under the monotonicity side constraints a minimum solution may need a
  non-prime cube, which a primes-only space would miss;
* one selection variable per candidate cube; **on-set coverage** is one
  clause per on-set code (the disjunction of the candidates covering it);
  **off-set exclusion** holds by construction of the candidate space;
* the paper's monotonicity/acknowledgement condition (Property 1, the
  state-based oracle of :func:`repro.synthesis.conditions.check_monotonicity_state_based`)
  becomes a side constraint: an auxiliary variable per quiescent-region
  state, tied to the disjunction of the candidates covering its code, with
  one implication per reachability-graph edge inside the region —
  ``covered(state) → covered(predecessor)``;
* cost bounds are not part of the CNF: the descent of
  :mod:`repro.sat.synthesize` puts weighted at-most constraints over the
  selection variables (weight 1 for the gate count, the cube's literal
  count for the literal count) into the solver natively.
  :func:`_reference_add_counter`, a one-directional weighted unary counter
  after Sinz's sequential counter, is their CNF form, kept only as the
  differential oracle of the native ones.

All cube arithmetic runs on the packed integer ``(care, value)`` masks of
:mod:`repro.boolean.interning`'s process-global variable order; cubes only
materialize as :class:`~repro.boolean.cube.Cube` objects when a model is
decoded back into a :class:`~repro.boolean.cover.Cover`.  Those bit
positions depend on what the process interned first, so nothing that
orders the search sorts by them: candidates are ordered by their masks
renumbered to the STG's signal order (:func:`signal_order_remap`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.boolean.interning import var_name

__all__ = [
    "CANDIDATE_BUDGET",
    "SatBudgetExceeded",
    "CoverProblem",
    "SignalEncoding",
    "enumerate_implicants",
    "signal_order_remap",
    "build_encoding",
    "_reference_add_counter",
    "cube_of_masks",
    "cover_of_masks",
]


#: Most valid candidate cubes one cover problem may enumerate before
#: :func:`build_encoding` raises :class:`SatBudgetExceeded`.  Read at call
#: time, so a test can lower it.
CANDIDATE_BUDGET = 4096


class SatBudgetExceeded(RuntimeError):
    """The candidate-cube (or solution) budget of exact synthesis ran out.

    Deliberately *not* a :class:`~repro.synthesis.engine.SynthesisError`:
    exceeding a budget means "this spec is too large for the exact
    backend", which callers (gap tables, corpus checks) report as a skip,
    not as an unsynthesizable specification.
    """


@dataclass(frozen=True)
class CoverProblem:
    """One cover-synthesis instance: what to cover, avoid and acknowledge.

    ``kind`` is ``"set"``/``"reset"`` (monotonicity-constrained excitation
    functions) or ``"complete"`` (the full next-state function of a
    combinational complex gate — no quiescent side constraints, matching
    the state-based baseline's contract).
    """

    signal: str
    kind: str
    #: packed mask of the whole signal universe (candidate support bound)
    signals_mask: int
    #: distinct reachable codes the cover must contain
    on_codes: tuple[int, ...]
    #: ``(care, value)`` pairs of the off-set cover (minterm-exact)
    off_pairs: tuple[tuple[int, int], ...]
    #: ``(state_index, code)`` of every quiescent-region state
    quiescent_states: tuple[tuple[int, int], ...] = ()
    #: ``(pred_state, state)`` edges inside the quiescent region
    quiescent_edges: tuple[tuple[int, int], ...] = ()
    #: interner bit of each STG signal, in the STG's signal order — the
    #: process-independent order candidates are sorted by (empty: the
    #: interner's own bit order)
    signal_bits: tuple[int, ...] = ()


@lru_cache(maxsize=64)
def signal_order_remap(signal_bits: tuple[int, ...]) -> Callable[[int], int]:
    """Renumber packed masks to signal order: bit ``signal_bits[i]`` → bit ``i``.

    Bits outside ``signal_bits`` are dropped.  The map is precomputed as one
    256-entry table per byte of the interner's bit positions that holds a
    signal, so renumbering a mask costs one lookup per such byte.  An empty
    ``signal_bits`` is the identity.
    """
    if not signal_bits:
        return lambda mask: mask
    spread: dict[int, list[int]] = {}
    for local, bit in enumerate(signal_bits):
        shift, offset = divmod(bit, 8)
        spread.setdefault(shift * 8, [0] * 8)[offset] = 1 << local
    parts: list[tuple[int, list[int]]] = []
    for shift, of_offset in sorted(spread.items()):
        table = [0] * 256
        for byte in range(1, 256):
            low = byte & -byte
            table[byte] = table[byte ^ low] | of_offset[low.bit_length() - 1]
        parts.append((shift, table))

    def remap(mask: int) -> int:
        local = 0
        for shift, table in parts:
            local |= table[(mask >> shift) & 255]
        return local

    return remap


def enumerate_implicants(
    signals_mask: int,
    seed_codes: Sequence[int],
    off_pairs: Sequence[tuple[int, int]],
    budget: int,
    primes_only: bool = False,
    signal_bits: tuple[int, ...] = (),
) -> list[tuple[int, int]]:
    """Every implicant covering at least one seed code, packed and deduped.

    Expansion drops one cared literal at a time starting from the seed
    minterms; a cube that intersects the off-set is pruned together with
    its supersets (a larger cube covers strictly more vertices, so it
    intersects the off-set too).  Raises :class:`SatBudgetExceeded` once
    more than ``budget`` distinct valid cubes have been produced.

    ``primes_only`` keeps only the maximal cubes.  That is sound for pure
    covering problems (kind ``"complete"``): any implicant has a prime
    superset with the same coverage and strictly fewer literals per
    dropped care bit, so no minimum-gate or minimum-literal solution ever
    selects a non-prime.  It is **unsound** under monotonicity side
    constraints, where expanding a cube can newly cover a quiescent state
    whose predecessor chain is not covered.

    The result is ordered most specific first, then by the masks renumbered
    to ``signal_bits`` order (see :func:`signal_order_remap`), so it is the
    same in every process.
    """
    seen: set[tuple[int, int]] = set()
    frontier: list[tuple[int, int]] = []
    for code in sorted(seed_codes):
        care, value = signals_mask, code & signals_mask
        pair = (care, value)
        if pair in seen:
            continue
        # a seed minterm inside the off-set is a state-coding conflict;
        # letting it through would silently "cover" the code with itself
        if any(not (value ^ v2) & care & c2 for c2, v2 in off_pairs):
            continue
        seen.add(pair)
        frontier.append(pair)
    while frontier:
        care, value = frontier.pop()
        bits = care
        while bits:
            low = bits & -bits
            bits ^= low
            candidate = (care ^ low, value & ~low)
            if candidate in seen:
                continue
            c1, v1 = candidate
            blocked = False
            for c2, v2 in off_pairs:
                if not (v1 ^ v2) & c1 & c2:
                    blocked = True
                    break
            if blocked:
                continue
            if len(seen) >= budget:
                raise SatBudgetExceeded(
                    f"candidate-cube budget exceeded ({budget}) while "
                    "enumerating implicants"
                )
            seen.add(candidate)
            frontier.append(candidate)
    if primes_only:
        seen = {
            (care, value)
            for care, value in seen
            if not any(
                ((care ^ bit), value & ~bit) in seen
                for bit in _bits_of(care)
            )
        }
    remap = signal_order_remap(signal_bits)
    return sorted(
        seen, key=lambda p: (-p[0].bit_count(), remap(p[0]), remap(p[1]))
    )


def _bits_of(mask: int):
    while mask:
        low = mask & -mask
        mask ^= low
        yield low


@dataclass
class SignalEncoding:
    """The CNF of one :class:`CoverProblem` over a fixed candidate space."""

    problem: CoverProblem
    #: packed ``(care, value)`` candidate cubes, in selection-variable order
    candidates: list[tuple[int, int]]
    #: selection variable of each candidate (``i``-th candidate → var ``i+1``)
    select_vars: list[int]
    #: auxiliary coverage variable per quiescent state index
    state_vars: dict[int, int] = field(default_factory=dict)
    clauses: list[list[int]] = field(default_factory=list)
    num_vars: int = 0

    def weights(self) -> list[int]:
        """Literal count of each candidate (the weighted-cardinality input)."""
        return [care.bit_count() for care, _ in self.candidates]

    def selection_of_model(self, model: dict[int, bool]) -> list[int]:
        """Indices of the selected candidates under a satisfying model."""
        return [i for i, var in enumerate(self.select_vars) if model.get(var)]

    def cost_floors(self) -> tuple[int, int]:
        """Lower bounds on the cube and the literal count of every model.

        On-set codes whose covering candidates are pairwise disjoint need a
        cube each.  A greedy pick of such codes (fewest covering candidates
        first; the coverage clauses are the first ``len(on_codes)`` clauses)
        bounds the cube count by their number and the literal count by the
        sum of each one's cheapest covering candidate.
        """
        weight_of = dict(zip(self.select_vars, self.weights()))
        taken: set[int] = set()
        cubes = literals = 0
        rows = self.clauses[: len(self.problem.on_codes)]
        for row in sorted(rows, key=len):
            if taken.isdisjoint(row):
                taken.update(row)
                cubes += 1
                literals += min(weight_of[var] for var in row)
        return cubes, literals


def build_encoding(problem: CoverProblem, primes_only: bool = False) -> SignalEncoding:
    """Candidate enumeration plus coverage/monotonicity clauses.

    The enumeration stops at :data:`CANDIDATE_BUDGET` candidates.

    The full selection is always a model: it covers every on-set code (each
    minterm is its own candidate), excludes the off-set by construction,
    and covers the *entire* quiescent region, which satisfies every
    monotonicity implication — so the encoding is satisfiable whenever the
    problem is well-formed.
    """
    seeds = list(problem.on_codes) + [code for _, code in problem.quiescent_states]
    candidates = enumerate_implicants(
        problem.signals_mask,
        seeds,
        problem.off_pairs,
        budget=CANDIDATE_BUDGET,
        primes_only=primes_only and not problem.quiescent_states,
        signal_bits=problem.signal_bits,
    )
    select_vars = list(range(1, len(candidates) + 1))
    encoding = SignalEncoding(
        problem=problem,
        candidates=candidates,
        select_vars=select_vars,
        num_vars=len(candidates),
    )
    clauses = encoding.clauses

    def covering(code: int) -> list[int]:
        return [
            select_vars[i]
            for i, (care, value) in enumerate(candidates)
            if (code & care) == value
        ]

    # on-set coverage: every on code needs at least one selected candidate
    for code in problem.on_codes:
        clauses.append(covering(code))

    # monotonicity (Property 1): auxiliary y_state ↔ OR(selected covering
    # cubes); y_state → y_pred along every in-region edge
    cover_vars_of_code: dict[int, list[int]] = {}
    for state, code in problem.quiescent_states:
        over = cover_vars_of_code.get(code)
        if over is None:
            over = covering(code)
            cover_vars_of_code[code] = over
        encoding.num_vars += 1
        y = encoding.num_vars
        encoding.state_vars[state] = y
        for s in over:
            clauses.append([-s, y])
        clauses.append([-y] + over)
    for pred, state in problem.quiescent_edges:
        clauses.append([-encoding.state_vars[state], encoding.state_vars[pred]])
    return encoding


def _reference_add_counter(
    clauses: list[list[int]],
    items: Sequence[tuple[int, int]],
    width: int,
    next_var: int,
) -> tuple[int, list[int]]:
    """Weighted unary counter with reusable threshold outputs — the oracle.

    The CNF form of the cost bounds, kept to pin the solver's native
    :meth:`~repro.sat.solver.CDCLSolver.add_at_most` /
    :meth:`~repro.sat.solver.CDCLSolver.tighten` constraints in the
    differential tests; synthesis never builds it.

    ``items`` are ``(literal, weight)`` pairs; the returned ``outputs`` list
    has ``outputs[j]`` forced true whenever the weighted sum of the true
    literals is at least ``j + 1`` (sums beyond ``width`` clamp onto the
    last output).  Only that direction is encoded, which is all a
    descending ``sum ≤ B`` search needs: each tightening is one unit clause
    ``[-outputs[B]]``, so one counter serves a whole chain of incrementally
    stricter bounds on the same solver.  Returns ``(next_var, outputs)``.
    """
    if width <= 0 or not items:
        return next_var, []
    top = width - 1
    prev: list[int] = []
    for lit, weight in items:
        regs = [next_var + j + 1 for j in range(width)]
        next_var += width
        for j in range(min(weight, width)):
            clauses.append([-lit, regs[j]])
        for j, p in enumerate(prev):
            clauses.append([-p, regs[j]])
            clauses.append([-lit, -p, regs[min(j + weight, top)]])
        prev = regs
    return next_var, prev


# ---------------------------------------------------------------------- #
# Mask ↔ Cube decoding
# ---------------------------------------------------------------------- #


def cube_of_masks(care: int, value: int) -> Cube:
    """Materialize a packed ``(care, value)`` pair as a :class:`Cube`."""
    literals: dict[str, int] = {}
    bits = care
    while bits:
        low = bits & -bits
        bits ^= low
        index = low.bit_length() - 1
        literals[var_name(index)] = 1 if value & low else 0
    return Cube(literals)


def cover_of_masks(
    pairs: Sequence[tuple[int, int]], variables: Sequence[str]
) -> Cover:
    """Materialize packed cube pairs as a :class:`Cover` over ``variables``."""
    return Cover([cube_of_masks(care, value) for care, value in pairs], variables)
