"""Covers: sums of cubes (two-level SOP forms) with set-like operations.

A :class:`Cover` is a list of :class:`~repro.boolean.cube.Cube` objects over a
declared variable universe.  The universe matters for complementation,
tautology checking and minterm counting; cube-wise operations (union,
intersection, containment) do not need it.

Containment and tautology use the unate-recursive paradigm (Shannon expansion
with unate-reduction shortcuts), which keeps the region-cover checks of the
synthesis flow well below minterm enumeration cost.  The recursion runs
entirely on the bit-packed ``(care, value)`` form of the cubes (see
:mod:`repro.boolean.interning`), so cofactoring and unate detection are plain
integer operations.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Optional, Union

from repro.boolean.cube import Cube
from repro.boolean.interning import _VAR_INDEX, mask_of_tuple


class Cover:
    """A sum-of-products form over a fixed variable universe."""

    __slots__ = ("_cubes", "_variables", "_mask")

    def __init__(self, cubes: Iterable[Cube] = (), variables: Iterable[str] = ()):
        self._cubes: list[Cube] = list(cubes)
        declared = tuple(variables)
        mask = mask_of_tuple(declared) if declared else 0
        if mask.bit_count() != len(declared):
            declared = tuple(dict.fromkeys(declared))
        cube_mask = 0
        for cube in self._cubes:
            cube_mask |= cube._care
        if cube_mask & ~mask:
            # Extend the universe with undeclared variables, in first-seen
            # cube order (matching the historical dict-based behaviour).
            universe = set(declared)
            extra: list[str] = []
            for cube in self._cubes:
                if not cube._care & ~mask:
                    continue
                for var in cube._literals:
                    if var not in universe:
                        universe.add(var)
                        extra.append(var)
            declared = declared + tuple(extra)
            mask |= cube_mask
        self._variables: tuple[str, ...] = declared
        self._mask = mask

    @classmethod
    def _make(cls, cubes: list[Cube], variables: tuple[str, ...], mask: int) -> "Cover":
        """Internal fast constructor; cube supports must be within ``mask``."""
        self = cls.__new__(cls)
        self._cubes = cubes
        self._variables = variables
        self._mask = mask
        return self

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def empty(cls, variables: Iterable[str] = ()) -> "Cover":
        """The empty (constant-0) cover."""
        return cls((), variables)

    @classmethod
    def universe(cls, variables: Iterable[str] = ()) -> "Cover":
        """The constant-1 cover."""
        return cls((Cube.universal(),), variables)

    @classmethod
    def from_strings(cls, patterns: Iterable[str], variables: Sequence[str]) -> "Cover":
        """Build a cover from positional-cube strings."""
        cubes = [Cube.from_string(pattern, variables) for pattern in patterns]
        return cls(cubes, variables)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]], variables: tuple[str, ...]) -> "Cover":
        """The cover of packed ``(care, value)`` cubes over a variable universe.

        Every care bit must belong to a variable of ``variables``; each
        cube's literals are listed in universe order.
        """
        mask = mask_of_tuple(variables)
        bits = [(name, _VAR_INDEX[name]) for name in variables]
        cubes = [
            Cube._raw(
                {name: (value >> bit) & 1 for name, bit in bits if care >> bit & 1},
                care,
                value,
            )
            for care, value in pairs
        ]
        return cls._make(cubes, variables, mask)

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #

    @property
    def cubes(self) -> list[Cube]:
        """A copy of the cube list."""
        return list(self._cubes)

    @property
    def variables(self) -> tuple[str, ...]:
        """The variable universe of the cover."""
        return self._variables

    def __iter__(self) -> Iterator[Cube]:
        return iter(self._cubes)

    def __len__(self) -> int:
        return len(self._cubes)

    def __bool__(self) -> bool:
        return bool(self._cubes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cover):
            return NotImplemented
        return self.contains_cover(other) and other.contains_cover(self)

    def __reduce__(self):
        # Rebuild from cubes + variable names so that the packed per-cube
        # masks are re-derived in the unpickling process's interner order.
        return (Cover, (self._cubes, self._variables))

    def __repr__(self) -> str:
        if not self._cubes:
            return "Cover(0)"
        return "Cover(" + " + ".join(cube.to_expression() for cube in self._cubes) + ")"

    def to_expression(self) -> str:
        """Human readable SOP string."""
        if not self._cubes:
            return "0"
        return " + ".join(cube.to_expression() for cube in self._cubes)

    def to_json(self) -> dict:
        """JSON-serializable form: the declared universe plus cube literals.

        Cube order and the declared variable order are both preserved, so
        the round-trip is structurally lossless (not merely semantically
        equivalent); packed masks are re-derived on load in the reader's
        interner order.
        """
        return {
            "variables": list(self._variables),
            "cubes": [cube.to_json() for cube in self._cubes],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "Cover":
        """Rebuild a cover from :meth:`to_json` output."""
        return cls(
            [Cube.from_json(cube) for cube in data.get("cubes", ())],
            data.get("variables", ()),
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def is_empty(self) -> bool:
        """True if the cover has no cubes (constant 0)."""
        return not self._cubes

    def covers_vertex(self, vertex: Mapping[str, int]) -> bool:
        """True if some cube of the cover covers the complete assignment."""
        return any(cube.covers_vertex(vertex) for cube in self._cubes)

    def covers_cube(self, cube: Cube) -> bool:
        """True if the cover contains every vertex of ``cube``.

        Implemented as a tautology check of the cover cofactored by the cube.
        """
        pairs = [(other._care, other._value) for other in self._cubes]
        return _covers_packed(pairs, cube._care, cube._value)

    def contains_cover(self, other: "Cover") -> bool:
        """True if every vertex of ``other`` is covered by this cover."""
        pairs = [(cube._care, cube._value) for cube in self._cubes]
        return all(_covers_packed(pairs, cube._care, cube._value) for cube in other)

    def intersects_cube(self, cube: Cube) -> bool:
        """True if the cover shares at least one vertex with ``cube``."""
        care = cube._care
        value = cube._value
        for other in self._cubes:
            if not (other._value ^ value) & other._care & care:
                return True
        return False

    def intersects_cover(self, other: "Cover") -> bool:
        """True if the two covers share at least one vertex."""
        return any(self.intersects_cube(cube) for cube in other)

    def num_literals(self) -> int:
        """Total literal count of the SOP form."""
        return sum(len(cube._literals) for cube in self._cubes)

    def support(self) -> frozenset[str]:
        """Union of the supports of all cubes."""
        result: set[str] = set()
        for cube in self._cubes:
            result |= cube.support
        return frozenset(result)

    def count_minterms(self) -> int:
        """Exact number of minterms over the declared variable universe.

        Uses recursive Shannon expansion; exponential in the worst case but
        adequate for the region sizes handled in the test-suite.
        """
        pairs = [(cube._care, cube._value) for cube in self._cubes]
        return _count_minterms_packed(pairs, self._mask, len(self._variables))

    def is_tautology(self) -> bool:
        """True if the cover covers the whole Boolean space of its universe."""
        if not self._cubes:
            return False
        return _is_tautology_packed([(cube._care, cube._value) for cube in self._cubes])

    # ------------------------------------------------------------------ #
    # Algebraic operations
    # ------------------------------------------------------------------ #

    def union(self, other: "Cover") -> "Cover":
        """Disjunction of two covers (with single-cube containment removal).

        The cubes of ``self`` are kept as they are; each cube of ``other`` is
        appended unless a kept cube covers it, and drops the kept cubes it
        covers.
        """
        variables, mask = _merged_universe(self._variables, self._mask, other)
        kept = [(cube, cube._care, cube._value) for cube in self._cubes]
        for cube in other._cubes:
            care = cube._care
            value = cube._value
            for _, own_care, own_value in kept:
                if not own_care & ~care and not (own_value ^ value) & own_care:
                    break
            else:
                kept = [
                    entry for entry in kept
                    if care & ~entry[1] or (value ^ entry[2]) & care
                ]
                kept.append((cube, care, value))
        return Cover._make([cube for cube, _, _ in kept], variables, mask)

    def __or__(self, other: "Cover") -> "Cover":
        return self.union(other)

    @classmethod
    def union_all(cls, covers: Iterable["Cover"], variables: Iterable[str] = ()) -> "Cover":
        """Disjunction of many covers.

        Returns exactly the cubes, in exactly the order, that folding
        :meth:`union` over ``covers`` from ``Cover.empty(variables)``
        returns: a cube survives iff no other cube strictly covers it and no
        earlier cube equals it.  One containment scan over all cubes,
        visited fewest literals first (a strict cover has fewer literals),
        finds them; the survivors are then put back in input order.
        """
        start = cls.empty(variables)
        variables, mask = start._variables, start._mask
        cubes: list[Cube] = []
        for cover in covers:
            variables, mask = _merged_universe(variables, mask, cover)
            cubes.extend(cover._cubes)
        entries = [(index, cube._care, cube._value) for index, cube in enumerate(cubes)]
        survivors = sorted(index for index, _, _ in _remove_contained_packed(entries))
        return cls._make([cubes[index] for index in survivors], variables, mask)

    def intersection(self, other: "Cover") -> "Cover":
        """Conjunction of two covers (pairwise cube products)."""
        variables, mask = _merged_universe(self._variables, self._mask, other)
        products: list[tuple] = []
        for left in self._cubes:
            left_care = left._care
            left_value = left._value
            for right in other._cubes:
                if not (left_value ^ right._value) & left_care & right._care:
                    products.append(
                        ((left, right), left_care | right._care, left_value | right._value)
                    )
        cubes = []
        for (left, right), care, value in _remove_contained_packed(products):
            merged = dict(left._literals)
            merged.update(right._literals)
            cubes.append(Cube._raw(merged, care, value))
        return Cover._make(cubes, variables, mask)

    def __and__(self, other: "Cover") -> "Cover":
        return self.intersection(other)

    def intersect_cube(self, cube: Cube) -> "Cover":
        """Conjunction of the cover with a single cube."""
        care = cube._care
        value = cube._value
        products = [
            (own, own._care | care, own._value | value)
            for own in self._cubes
            if not (own._value ^ value) & own._care & care
        ]
        literals = cube._literals
        cubes = []
        for own, product_care, product_value in _remove_contained_packed(products):
            merged = dict(own._literals)
            merged.update(literals)
            cubes.append(Cube._raw(merged, product_care, product_value))
        variables, mask = self._variables, self._mask
        if products and care & ~mask:
            # every product carries all of the cube's literals, so the
            # universe grows by its new variables in literal order
            variables += tuple(var for var in literals if (1 << _VAR_INDEX[var]) & ~mask)
            mask |= care
        return Cover._make(cubes, variables, mask)

    def sharp_cube(self, cube: Cube) -> "Cover":
        """Difference ``cover \\ cube`` (sharp operation)."""
        return self._sharp_cubes((cube,))

    def sharp(self, other: "Cover") -> "Cover":
        """Difference ``cover \\ other``."""
        if not other._cubes:
            return self
        return self._sharp_cubes(other._cubes)

    def __sub__(self, other: "Cover") -> "Cover":
        return self.sharp(other)

    def complement(self) -> "Cover":
        """Complement of the cover over its variable universe."""
        return Cover.universe(self._variables)._sharp_cubes(self._cubes)

    def _sharp_cubes(self, cubes: Sequence[Cube]) -> "Cover":
        """Subtract ``cubes`` one after the other, on packed entries.

        Each step keeps the entries disjoint from the cube, drops the ones
        it covers, splits the rest over the telescoping complement of the
        cube (``l1' + l1 l2' + ...``) and removes contained entries; it
        stops once nothing is left.  An entry is ``(origin, care, value)``:
        the origin is a cube of ``self`` or ``(parent origin, literal items
        of the subtracted cube, k)`` for a product with its k-th complement
        piece, from which the surviving cubes' literal dicts are rebuilt at
        the end in the order :meth:`Cube.intersect` would have merged them.
        """
        variables = self._variables
        mask = self._mask
        entries = [(cube, cube._care, cube._value) for cube in self._cubes]
        for cube in cubes:
            care = cube._care
            value = cube._value
            pieces = None
            longest = -1
            result: list[tuple] = []
            for entry in entries:
                origin, own_care, own_value = entry
                if (own_value ^ value) & own_care & care:
                    result.append(entry)  # disjoint from the cube
                    continue
                if not care & ~own_care:
                    continue  # covered by the cube
                if pieces is None:
                    items = tuple(cube._literals.items())
                    pieces = []
                    prefix_care = prefix_value = 0
                    for var, bound in items:
                        bit = 1 << _VAR_INDEX[var]
                        pieces.append(
                            (bit, prefix_care | bit, prefix_value | (0 if bound else bit))
                        )
                        prefix_care |= bit
                        if bound:
                            prefix_value |= bit
                # the entry agrees with every literal of the cube it binds,
                # so it meets piece k iff it leaves the k-th variable free
                for k, (bit, piece_care, piece_value) in enumerate(pieces):
                    if not own_care & bit:
                        result.append(
                            ((origin, items, k), own_care | piece_care, own_value | piece_value)
                        )
                        if k > longest:
                            longest = k
            if longest >= 0 and care & ~mask:
                # the products add the cube's new variables in literal order
                # up to the longest piece that produced one
                new = [var for var, _ in items[: longest + 1] if (1 << _VAR_INDEX[var]) & ~mask]
                variables += tuple(new)
                for var in new:
                    mask |= 1 << _VAR_INDEX[var]
            entries = _remove_contained_packed(result)
            if not entries:
                break
        return Cover._make(
            [_materialize(origin, care, value) for origin, care, value in entries],
            variables,
            mask,
        )

    def remove_contained(self) -> "Cover":
        """Remove cubes that are single-cube contained in another cube."""
        entries = [(cube, cube._care, cube._value) for cube in self._cubes]
        kept = [cube for cube, _, _ in _remove_contained_packed(entries)]
        return Cover._make(kept, self._variables, self._mask)

    def restrict(self, variables: Iterable[str]) -> "Cover":
        """Project every cube onto a subset of variables (existential)."""
        allowed = list(variables)
        return Cover([cube.restrict(allowed) for cube in self._cubes], allowed)

    def cofactor(self, variable: str, value: int) -> "Cover":
        """Shannon cofactor of the cover."""
        reduced = []
        for cube in self._cubes:
            item = cube.cofactor(variable, value)
            if item is not None:
                reduced.append(item)
        remaining = tuple(v for v in self._variables if v != variable)
        return Cover(reduced, remaining)

    def with_variables(self, variables: Iterable[str]) -> "Cover":
        """Return the same cover declared over a (larger) variable universe."""
        return Cover(self._cubes, variables)


#: an off- or dc-set handed to the minimizer or the correctness check: a
#: :class:`Cover`, or its cubes as packed ``(care, value)`` pairs
CubeSet = Union[Cover, list[tuple[int, int]]]


def cube_pairs(cubes: Optional[CubeSet]) -> list[tuple[int, int]]:
    """The packed ``(care, value)`` pairs of a cube set (``None`` is empty)."""
    if cubes is None:
        return []
    if isinstance(cubes, Cover):
        return [(cube._care, cube._value) for cube in cubes._cubes]
    return cubes


def _merged_universe(
    variables: tuple[str, ...], mask: int, other: Cover
) -> tuple[tuple[str, ...], int]:
    """Universe (variables, mask) of a binary operation's result."""
    if not other._mask & ~mask:
        return variables, mask
    seen = set(variables)
    return variables + tuple(v for v in other._variables if v not in seen), mask | other._mask


def _materialize(origin, care: int, value: int) -> Cube:
    """The cube of a packed sharp entry (see :meth:`Cover._sharp_cubes`)."""
    if type(origin) is Cube:
        return origin
    steps = []
    while type(origin) is not Cube:
        origin, items, k = origin
        steps.append((items, k))
    literals = dict(origin._literals)
    for items, k in reversed(steps):
        for var, bound in items[:k]:
            literals.setdefault(var, bound)
        var, bound = items[k]
        literals.setdefault(var, 1 - bound)
    return Cube._raw(literals, care, value)


# ---------------------------------------------------------------------- #
# Object-level reference operations (differential-test oracles)
# ---------------------------------------------------------------------- #


def _reference_union(cover: Cover, other: Cover) -> Cover:
    """Object-level :meth:`Cover.union`."""
    variables, mask = _merged_universe(cover._variables, cover._mask, other)
    kept = list(cover._cubes)
    for cube in other._cubes:
        if any(own.covers(cube) for own in kept):
            continue
        kept = [own for own in kept if not cube.covers(own)]
        kept.append(cube)
    return Cover._make(kept, variables, mask)


def _reference_intersection(cover: Cover, other: Cover) -> Cover:
    """Object-level :meth:`Cover.intersection`."""
    variables, mask = _merged_universe(cover._variables, cover._mask, other)
    products: list[Cube] = []
    for left in cover._cubes:
        for right in other._cubes:
            product = left.intersect(right)
            if product is not None:
                products.append(product)
    return Cover._make(products, variables, mask).remove_contained()


def _reference_intersect_cube(cover: Cover, cube: Cube) -> Cover:
    """Object-level :meth:`Cover.intersect_cube`."""
    products = []
    for other in cover._cubes:
        product = other.intersect(cube)
        if product is not None:
            products.append(product)
    return Cover(products, cover._variables).remove_contained()


def _reference_sharp_cube(cover: Cover, cube: Cube) -> Cover:
    """Object-level :meth:`Cover.sharp_cube`."""
    result: list[Cube] = []
    for own in cover._cubes:
        if not own.intersects(cube):
            result.append(own)
            continue
        if cube.covers(own):
            continue
        for piece in cube.complement_cubes():
            product = own.intersect(piece)
            if product is not None:
                result.append(product)
    return Cover(result, cover._variables).remove_contained()


# ---------------------------------------------------------------------- #
# Unate-recursive helpers (bit-packed)
# ---------------------------------------------------------------------- #


def _covers_packed(pairs: list[tuple[int, int]], care: int, value: int) -> bool:
    """True if the packed cubes ``pairs`` cover the cube ``(care, value)``:
    a tautology check of the pairs cofactored by the cube."""
    free = ~care
    cofactored: list[tuple[int, int]] = []
    for other_care, other_value in pairs:
        if (other_value ^ value) & other_care & care:
            continue  # disjoint from the cube
        if not other_care & free:
            return True  # cofactor is universal: single-cube containment
        cofactored.append((other_care & free, other_value & free))
    return bool(cofactored) and _is_tautology_packed(cofactored)


def _remove_contained_packed(entries: list[tuple]) -> list[tuple]:
    """Entries ``(item, care, value)`` not single-cube contained in another.

    Entries are visited from fewest literals up (stable); one is dropped
    when an already-kept entry covers it.  The kept value masks are grouped
    by care mask, so the scan tests each kept care once: a kept cube
    ``(c, v)`` covers ``(care, value)`` iff ``c`` is within ``care`` and
    ``value & c == v``.
    """
    kept: list[tuple] = []
    by_care: dict[int, set[int]] = {}
    for entry in sorted(entries, key=lambda item: item[1].bit_count()):
        _, care, value = entry
        for other_care, values in by_care.items():
            if not other_care & ~care and (value & other_care) in values:
                break
        else:
            kept.append(entry)
            values = by_care.get(care)
            if values is None:
                by_care[care] = {value}
            else:
                values.add(value)
    return kept


def _is_tautology_packed(pairs: list[tuple[int, int]]) -> bool:
    """Tautology check by Shannon expansion on packed ``(care, value)`` pairs.

    Unate reduction: a variable is a candidate split only when it appears with
    both polarities (its bit is set in some value mask and cleared in some
    care-bound position); if no variable is binate the cover is a tautology
    only if it contains the universal cube.
    """
    ones = 0
    zeros = 0
    for care, value in pairs:
        if care == 0:
            return True
        ones |= value
        zeros |= care & ~value
    if not pairs:
        return False
    binate = ones & zeros
    if binate == 0:
        # Every bound variable is unate: tautology iff some universal cube,
        # which was already checked above.
        return False
    bit = binate & -binate
    for branch_value in (0, bit):
        branch: list[tuple[int, int]] = []
        for care, value in pairs:
            if care & bit:
                if value & bit == branch_value:
                    branch.append((care ^ bit, value & ~bit))
            else:
                branch.append((care, value))
        if not _is_tautology_packed(branch):
            return False
    return True


def _count_minterms_packed(
    pairs: list[tuple[int, int]], universe_mask: int, num_vars: int
) -> int:
    """Count minterms of packed cubes over a ``universe_mask`` of variables."""
    if not pairs:
        return 0
    bound = 0
    for care, _ in pairs:
        if care == 0:
            return 1 << num_vars
        bound |= care
    if len(pairs) == 1:
        free = num_vars - (pairs[0][0] & universe_mask).bit_count()
        return 1 << free
    split = bound & universe_mask
    if split == 0:
        # No cube depends on the remaining variables.
        return 1 << num_vars
    bit = split & -split
    rest_mask = universe_mask & ~bit
    total = 0
    for branch_value in (0, bit):
        branch: list[tuple[int, int]] = []
        for care, value in pairs:
            if care & bit:
                if value & bit == branch_value:
                    branch.append((care ^ bit, value & ~bit))
            else:
                branch.append((care, value))
        total += _count_minterms_packed(branch, rest_mask, num_vars - 1)
    return total
