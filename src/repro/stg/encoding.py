"""Binary encoding of reachable markings — packed-int state codes.

Each reachable marking of a consistent STG has a unique binary vector of
signal values (the labelling function ``v`` of Section II-B).  This module
computes the encoded reachability graph by token-flow analysis; it is the
state-based oracle used to validate the structural approximations and is the
workhorse of the baseline synthesis engine.

The representation is compiled: every state carries one machine integer
whose bits are the signal values over the *global interner order* of
:mod:`repro.boolean.interning` — the same bit positions the packed
:class:`~repro.boolean.cube.Cube` masks use, so a state code *is* the
``value_mask`` of its minterm cube and region covers can be emitted without
any dict marshalling.  Codes are propagated in a single pass over the edge
list of the compiled BFS (``IndexedGraph.edges`` is in BFS firing order, the
exact order the reference propagation visits edges), so encoding is a
by-product of exploration rather than a second dict pass.  The dict-based
propagation is retained as :func:`_reference_encode_codes` — the oracle for
the differential tests and the documentation of the semantics.

The state-based function sets (off-sets, dc-sets) leave this module as
packed ``(care, value)`` pairs: :meth:`EncodedReachabilityGraph.space_pairs`
splits a code set orthogonally over the sorted per-state split keys and
emits disjoint cubes with no literal dict, which the minimizer reads as they
are.  :func:`_reference_space_cover` keeps the list-splitting recursion it
replaced.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Iterable, Iterator, Optional

from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.boolean.interning import mask_of_tuple, var_index
from repro.petri.marking import Marking
from repro.petri.reachability import (
    IndexedGraph,
    ReachabilityGraph,
    build_reachability_graph,
)
from repro.stg.stg import STG


def state_indices(*bitsets: int) -> Iterator[int]:
    """The state indices set in any of the bitsets, ascending."""
    bits = 0
    for bitset in bitsets:
        bits |= bitset
    while bits:
        low = bits & -bits
        bits ^= low
        yield low.bit_length() - 1


def signal_columns(
    codes: list[int], signal_bits: list[tuple[str, int]]
) -> dict[str, int]:
    """Transpose packed state codes into per-signal value columns.

    ``codes[j]`` is the packed code of state ``j`` (bit positions from the
    global interner); ``signal_bits`` lists ``(signal, bit_index)`` pairs.
    Returns one column per signal with bit ``j`` set iff the signal is 1
    under code ``j``.
    """
    columns = {signal: 0 for signal, _ in signal_bits}
    for j, code in enumerate(codes):
        if not code:
            continue
        state_bit = 1 << j
        for signal, bit in signal_bits:
            if code >> bit & 1:
                columns[signal] |= state_bit
    return columns


class EncodingError(ValueError):
    """Raised when no consistent binary encoding of the markings exists."""


class EncodedReachabilityGraph:
    """A reachability graph with one packed int code per reachable marking.

    State ``i`` (discovery order) has marking ``marking_list[i]`` and code
    ``packed_codes[i]``; bit ``var_index(s)`` of the code is the value of
    signal ``s``.  The name-based accessors (:meth:`code_of`,
    :meth:`value`, :meth:`code_string`) are thin boundary shims over the
    packed arrays; :meth:`state_columns` is their transpose, the input of
    the circuit column evaluator.
    """

    __slots__ = (
        "stg",
        "graph",
        "initial_values",
        "_packed",
        "_signal_order",
        "_signal_bits",
        "_bit_of",
        "_signals_mask",
        "_dict_cache",
        "_cube_cache",
        "_columns",
        "_keys",
    )

    def __init__(
        self,
        stg: STG,
        graph: ReachabilityGraph,
        codes: dict[Marking, dict[str, int]],
        initial_values: dict[str, int],
    ):
        """Build from a dict code map (the reference-path constructor)."""
        indexed = graph.indexed()
        packed = []
        for marking in indexed.marking_list:
            code = codes[marking]
            bits = 0
            for signal, value in code.items():
                if value:
                    bits |= 1 << var_index(signal)
            packed.append(bits)
        self._init_packed(stg, graph, packed, initial_values)

    @classmethod
    def _from_packed(
        cls,
        stg: STG,
        graph: ReachabilityGraph,
        packed_codes: list[int],
        initial_values: dict[str, int],
    ) -> "EncodedReachabilityGraph":
        self = cls.__new__(cls)
        self._init_packed(stg, graph, packed_codes, initial_values)
        return self

    def _init_packed(
        self,
        stg: STG,
        graph: ReachabilityGraph,
        packed_codes: list[int],
        initial_values: dict[str, int],
    ) -> None:
        self.stg = stg
        self.graph = graph
        self.initial_values = dict(initial_values)
        self._packed = packed_codes
        order = tuple(stg.signal_names)
        self._signal_order = order
        self._signal_bits = [var_index(s) for s in order]
        # known-signal lookup: name-based accessors raise KeyError on
        # unknown signals instead of silently interning fresh variables
        self._bit_of = dict(zip(order, self._signal_bits))
        self._signals_mask = mask_of_tuple(order)
        self._dict_cache: dict[int, dict[str, int]] = {}
        self._cube_cache: dict[int, Cube] = {}
        self._columns: Optional[dict[str, int]] = None
        self._keys: Optional[list[int]] = None

    # ------------------------------------------------------------------ #
    # Index-space accessors (non-copying; the compiled synthesis/verify
    # loops run on these)
    # ------------------------------------------------------------------ #

    @property
    def packed_codes(self) -> list[int]:
        """The per-state code ints (the internal list — do not mutate)."""
        return self._packed

    def indexed(self) -> IndexedGraph:
        """The dense-index adjacency view of the underlying graph."""
        return self.graph.indexed()

    @property
    def marking_list(self) -> list[Marking]:
        """Markings by state index (materializes the name-based view)."""
        return self.graph.indexed().marking_list

    def index(self, marking: Marking) -> int:
        """State index of a marking (discovery order)."""
        return self.graph.indexed().index_of[marking]

    def code_int(self, marking: Marking) -> int:
        """Packed code of a marking over the global variable order."""
        return self._packed[self.index(marking)]

    def state_columns(self) -> dict[str, int]:
        """Per-signal value columns, transposed once (do not mutate).

        Bit ``i`` is the value in state ``i``, the index space of the region
        bitsets; :attr:`state_mask` is the all-ones column.
        """
        if self._columns is None:
            self._columns = signal_columns(
                self._packed, list(zip(self._signal_order, self._signal_bits))
            )
        return self._columns

    @property
    def state_mask(self) -> int:
        """The all-ones column over the states."""
        return (1 << len(self._packed)) - 1

    def code_tuple_of_int(self, code: int) -> tuple[int, ...]:
        """A packed code as a value tuple over the signal order."""
        return tuple((code >> bit) & 1 for bit in self._signal_bits)

    def code_dict_of_int(self, code: int) -> dict[str, int]:
        """Shared name→value dict of a packed code (do not mutate)."""
        cached = self._dict_cache.get(code)
        if cached is None:
            cached = {
                signal: (code >> bit) & 1
                for signal, bit in zip(self._signal_order, self._signal_bits)
            }
            self._dict_cache[code] = cached
        return cached

    def code_view(self, marking: Marking) -> dict[str, int]:
        """Non-copying :meth:`code_of`: a shared dict per distinct code."""
        return self.code_dict_of_int(self.code_int(marking))

    def minterm_cube(self, code: int) -> Cube:
        """The minterm cube of a packed code over the signal universe.

        The cube's packed ``(care, value)`` pair is exactly
        ``(signals_mask, code)`` — the code int is reused as the value mask
        without translation.
        """
        cube = self._cube_cache.get(code)
        if cube is None:
            cube = Cube._raw(
                dict(self.code_dict_of_int(code)), self._signals_mask, code
            )
            self._cube_cache[code] = cube
        return cube

    def bits_of(self, markings: Iterable[Marking]) -> int:
        """State-index bitset of a collection of markings."""
        index_of = self.graph.indexed().index_of
        bits = 0
        for marking in markings:
            bits |= 1 << index_of[marking]
        return bits

    def markings_of_bits(self, bits: int) -> set[Marking]:
        """Markings of a state-index bitset (a fresh set)."""
        marking_list = self.marking_list
        return {marking_list[index] for index in state_indices(bits)}

    def cover_of_bits(self, bits: int) -> Cover:
        """Characteristic cover of a state-index bitset.

        Duplicate codes (markings sharing a code, i.e. USC violations) are
        emitted once, in first-state order; the cubes are packed minterms
        shared through the per-code cache.
        """
        packed = self._packed
        seen: set[int] = set()
        cubes: list[Cube] = []
        for index in state_indices(bits):
            code = packed[index]
            if code not in seen:
                seen.add(code)
                cubes.append(self.minterm_cube(code))
        return Cover._make(cubes, self._signal_order, self._signals_mask)

    def code_set_of_bits(self, bits: int) -> set[int]:
        """Distinct packed codes of a state-index bitset."""
        packed = self._packed
        return {packed[index] for index in state_indices(bits)}

    def split_keys(self) -> list[int]:
        """Per-state split keys, computed once (the internal list — do not mutate).

        The key of a code holds its signal bits in split order (the signal
        order), the first signal most significant: sorting keys lists the
        codes in the depth-first order of :meth:`space_pairs`'s orthogonal
        split, so every subspace is a contiguous run of the sorted keys.
        Two states share a key iff they share a code.
        """
        if self._keys is None:
            top = len(self._signal_bits) - 1
            shifts = [(bit, top - depth) for depth, bit in enumerate(self._signal_bits)]
            keys = []
            for code in self._packed:
                key = 0
                for bit, shift in shifts:
                    key |= (code >> bit & 1) << shift
                keys.append(key)
            self._keys = keys
        return self._keys

    def key_set_of_bits(self, bits: int) -> set[int]:
        """Distinct split keys of a state-index bitset."""
        keys = self.split_keys()
        return {keys[index] for index in state_indices(bits)}

    def space_pairs(self, keys: Iterable[int], complement: bool) -> list[tuple[int, int]]:
        """Disjoint ``(care, value)`` cubes of a code set (or of its complement).

        ``keys`` are the codes' split keys (:meth:`split_keys`,
        :meth:`key_set_of_bits`; duplicates are ignored).  Orthogonal
        splitting over the signal bits in signal order: a subspace wholly
        inside the set (or, for ``complement=True``, wholly outside it) is
        emitted as one cube, zero half first.  Over the sorted keys every
        subspace is a ``[lo, hi)`` range and each split is one bisection,
        so no sub-list is built per level.  Cost is O(|keys| · #signals) —
        what replaces ``Cover.universe(...).sharp(minterms)`` (quadratic in
        the number of reachable codes) for dc-sets and compacts the off-sets
        the minimizer probes; the pairs have the exact minterm semantics of
        the code set, which is all the minimizer's predicates depend on.
        :func:`_reference_space_cover` is the list-splitting recursion this
        replaces, and emits the same cubes in the same order.
        """
        bits = self._signal_bits
        dimensions = len(bits)
        ordered = sorted(set(keys))
        pairs: list[tuple[int, int]] = []
        emit = pairs.append

        def split(lo: int, hi: int, depth: int, prefix: int, care: int, value: int) -> None:
            size = hi - lo
            if not size:
                if complement:
                    emit((care, value))
                return
            if size == 1 << (dimensions - depth):
                if not complement:
                    emit((care, value))
                return
            half = 1 << (dimensions - 1 - depth)
            middle = bisect_left(ordered, prefix | half, lo, hi)
            bit = 1 << bits[depth]
            split(lo, middle, depth + 1, prefix, care | bit, value)
            split(middle, hi, depth + 1, prefix | half, care | bit, value | bit)

        split(0, len(ordered), 0, 0, 0, 0)
        return pairs

    # ------------------------------------------------------------------ #
    # Name-based boundary API (unchanged semantics)
    # ------------------------------------------------------------------ #

    @property
    def markings(self) -> list[Marking]:
        """All reachable markings."""
        return self.graph.markings

    def __len__(self) -> int:
        return len(self.graph)

    def code_of(self, marking: Marking) -> dict[str, int]:
        """The binary signal vector of a marking (a fresh dict)."""
        return dict(self.code_view(marking))

    def code_string(self, marking: Marking) -> str:
        """The binary code of a marking as a string in the STG's signal order."""
        code = self.code_int(marking)
        return "".join(str((code >> bit) & 1) for bit in self._signal_bits)

    def value(self, marking: Marking, signal: str) -> int:
        """Binary value of one signal at a marking."""
        return (self.code_int(marking) >> self._bit_of[signal]) & 1

    def codes(self) -> dict[Marking, dict[str, int]]:
        """A copy of the full marking→code mapping."""
        return {
            marking: dict(self.code_dict_of_int(packed))
            for marking, packed in zip(self.marking_list, self._packed)
        }

    def used_codes(self) -> set[tuple[int, ...]]:
        """The set of binary codes (tuples over the signal order) in use."""
        return {self.code_tuple_of_int(code) for code in self._packed}

    def enabled_transitions(self, marking: Marking) -> set[str]:
        """Transitions enabled at a marking."""
        return self.graph.enabled_transitions(marking)


def infer_initial_values(
    stg: STG,
    graph: Optional[ReachabilityGraph] = None,
) -> dict[str, int]:
    """Infer the initial binary value of every signal.

    Declared values are taken as-is; for the rest, the value is derived from
    the direction of the first transition of the signal reachable from the
    initial marking (``0`` if a rising transition is reached first).  Signals
    with no transitions default to 0.

    The scan is a single pass over the indexed edge list, which visits edges
    in exactly the order of the reference BFS
    (:func:`_reference_infer_initial_values`).
    """
    values = dict(stg.initial_values)
    missing = [s for s in stg.signal_names if s not in values]
    if not missing:
        return values
    if graph is None:
        graph = build_reachability_graph(stg.net)
    indexed = graph.indexed()
    labels = [stg.label(name) for name in indexed.transition_names]
    pending = set(missing)
    for _, transition, _ in indexed.edges:
        if not pending:
            break
        label = labels[transition]
        if label.signal in pending and label.direction in "+-":
            values[label.signal] = label.source_value
            pending.discard(label.signal)
    for signal in pending:
        values[signal] = 0
    return values


def encode_reachability_graph(
    stg: STG,
    graph: Optional[ReachabilityGraph] = None,
    initial_values: Optional[dict[str, int]] = None,
    strict: bool = True,
) -> EncodedReachabilityGraph:
    """Compute binary codes for all reachable markings.

    Codes are propagated along the edges of the reachability graph starting
    from the initial values; a rising transition sets its signal's bit, a
    falling transition clears it.  The propagation is one pass over the
    indexed edge list working entirely on ints; the dict-based pass is kept
    as :func:`_reference_encode_codes` (the differential-test oracle).

    Parameters
    ----------
    strict:
        When True (default) an :class:`EncodingError` is raised if a
        transition fires from a marking where its signal already has the
        target value (switchover violation) or if a marking receives two
        different codes along different paths.  With ``strict=False`` the
        first code reached wins, which is useful for diagnosing inconsistent
        specifications.
    """
    if graph is None:
        graph = build_reachability_graph(stg.net)
    if initial_values is None:
        initial_values = infer_initial_values(stg, graph)
    for signal in stg.signal_names:
        if signal not in initial_values:
            initial_values[signal] = 0

    indexed = graph.indexed()
    initial_code = 0
    for signal in stg.signal_names:
        if initial_values.get(signal):
            initial_code |= 1 << var_index(signal)

    # Per-transition flip tables: (bit mask, target value, source value),
    # or None for dummy transitions (no signal change).
    flips: list[Optional[tuple[int, int, int]]] = []
    for name in indexed.transition_names:
        label = stg.label(name)
        if label.direction in "+-":
            flips.append(
                (1 << var_index(label.signal), label.target_value, label.source_value)
            )
        else:
            flips.append(None)

    num_states = len(indexed)
    codes: list[int] = [-1] * num_states
    codes[0] = initial_code
    transition_names = indexed.transition_names
    for source, transition, target in indexed.edges:
        current = codes[source]
        flip = flips[transition]
        if flip is None:
            new_code = current
        else:
            bit, target_value, source_value = flip
            if strict and bool(current & bit) != bool(source_value):
                label = stg.label(transition_names[transition])
                raise EncodingError(
                    f"switchover violation: {transition_names[transition]} "
                    f"fires while {label.signal}={1 if current & bit else 0}"
                )
            new_code = (current | bit) if target_value else (current & ~bit)
        existing = codes[target]
        if existing == -1:
            codes[target] = new_code
        elif existing != new_code and strict:
            def as_dict(code: int) -> dict[str, int]:
                return {
                    s: (code >> var_index(s)) & 1 for s in stg.signal_names
                }
            raise EncodingError(
                f"inconsistent encoding for marking "
                f"{indexed.marking_list[target]}: "
                f"{as_dict(existing)} vs {as_dict(new_code)}"
            )
    return EncodedReachabilityGraph._from_packed(stg, graph, codes, initial_values)


# ---------------------------------------------------------------------- #
# Dict-based reference implementations
#
# The original Marking→dict propagation.  Kept as the oracle side of the
# differential tests (tests/test_compiled_statebased.py) and as the
# executable specification of the encoding semantics.
# ---------------------------------------------------------------------- #


def _reference_infer_initial_values(
    stg: STG,
    graph: ReachabilityGraph,
) -> dict[str, int]:
    """Reference BFS scan for undeclared initial values."""
    values = dict(stg.initial_values)
    missing = [s for s in stg.signal_names if s not in values]
    if not missing:
        return values
    pending = set(missing)
    frontier: deque[Marking] = deque([graph.initial])
    seen: set[Marking] = {graph.initial}
    while frontier and pending:
        current = frontier.popleft()
        for transition, target in graph.successors(current):
            label = stg.label(transition)
            if label.signal in pending and label.direction in "+-":
                values[label.signal] = label.source_value
                pending.discard(label.signal)
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    for signal in pending:
        values[signal] = 0
    return values


def _reference_encode_codes(
    stg: STG,
    graph: ReachabilityGraph,
    initial_values: dict[str, int],
    strict: bool = True,
) -> dict[Marking, dict[str, int]]:
    """Reference dict-based code propagation over the reachability graph."""
    codes: dict[Marking, dict[str, int]] = {graph.initial: dict(initial_values)}
    frontier: deque[Marking] = deque([graph.initial])
    while frontier:
        current = frontier.popleft()
        current_code = codes[current]
        for transition, target in graph.successors(current):
            label = stg.label(transition)
            new_code = dict(current_code)
            if label.direction in "+-":
                if strict and current_code[label.signal] != label.source_value:
                    raise EncodingError(
                        f"switchover violation: {transition} fires while "
                        f"{label.signal}={current_code[label.signal]}"
                    )
                new_code[label.signal] = label.target_value
            existing = codes.get(target)
            if existing is None:
                codes[target] = new_code
                frontier.append(target)
            elif existing != new_code:
                if strict:
                    raise EncodingError(
                        f"inconsistent encoding for marking {target}: "
                        f"{existing} vs {new_code}"
                    )
    return codes


def _reference_encode_reachability_graph(
    stg: STG,
    graph: Optional[ReachabilityGraph] = None,
    initial_values: Optional[dict[str, int]] = None,
    strict: bool = True,
) -> EncodedReachabilityGraph:
    """Reference construction path (dict propagation, then packing)."""
    if graph is None:
        graph = build_reachability_graph(stg.net)
    if initial_values is None:
        initial_values = _reference_infer_initial_values(stg, graph)
    for signal in stg.signal_names:
        if signal not in initial_values:
            initial_values[signal] = 0
    codes = _reference_encode_codes(stg, graph, initial_values, strict)
    return EncodedReachabilityGraph(stg, graph, codes, initial_values)


def _reference_space_cover(
    encoded: EncodedReachabilityGraph, codes: Iterable[int], complement: bool
) -> Cover:
    """Reference list-splitting recursion of :meth:`EncodedReachabilityGraph.space_pairs`.

    Takes packed codes and copies a zero and a one sub-list per level.
    """
    bits = encoded._signal_bits
    dimensions = len(bits)
    pairs: list[tuple[int, int]] = []

    def recurse(subset: list[int], depth: int, care: int, value: int) -> None:
        if not subset:
            if complement:
                pairs.append((care, value))
            return
        if len(subset) == 1 << (dimensions - depth):
            if not complement:
                pairs.append((care, value))
            return
        bit = 1 << bits[depth]
        zeros = [c for c in subset if not c & bit]
        ones = [c for c in subset if c & bit]
        recurse(zeros, depth + 1, care | bit, value)
        recurse(ones, depth + 1, care | bit, value | bit)

    recurse(sorted(set(codes)), 0, 0, 0)
    return Cover.from_pairs(pairs, encoded._signal_order)
