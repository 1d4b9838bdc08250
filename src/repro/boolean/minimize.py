"""Two-level single-output cover minimization (espresso-lite).

The synthesis flow of the paper expands region covers toward the quiescent
regions and the dc-set by *eliminating literals* (Section VIII and Appendix C).
This module provides that machinery in a generic form:

* :func:`expand_cover` — greedily drop literals from every cube of a cover
  while it remains an implicant (does not intersect the off-set).
* :func:`irredundant_cover` — remove cubes that are covered by the rest of
  the cover plus the dc-set.
* :func:`minimize_cover` — expand + irredundant, the standard reduction loop.

The off-set never has to be complemented explicitly by callers: synthesis code
hands in the off-set it already owns (binary codes of markings where the
function must be 0).  Off- and dc-sets may be given as a :class:`Cover` or as
packed ``(care, value)`` pairs (:data:`~repro.boolean.cover.CubeSet`); the
state-based flow passes the pairs its orthogonal split emits, so no
:class:`~repro.boolean.cube.Cube` is built for them.

The loops run on packed ``(care, value)`` ints.  Expansion transposes the
off-set into one *column* per literal: an int whose bit *j* is set when
off-set cube *j* does not bind the literal's variable to the opposite value.
A cube meets the off-set iff the AND of its literals' columns is non-zero,
so with a cube's suffix ANDs precomputed each literal drop costs one big-int
AND.  The columns live in an :class:`OffSetColumns`, filled per literal on
first use; a caller that minimizes several covers against one off-set wraps
its pairs in one and passes it each time.
:class:`~repro.boolean.cube.Cube` objects are allocated only for the
result.  :func:`_reference_minimize` keeps the object-level loops as the
differential oracle.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import and_
from typing import Optional

from repro.boolean.cover import (
    Cover,
    CubeSet,
    _covers_packed,
    _remove_contained_packed,
    cube_pairs,
)
from repro.boolean.cube import Cube
from repro.boolean.interning import _VAR_INDEX, names_of_mask

#: (source cube, care, value): a cube under minimization, packed; the source
#: cube supplies the literal names when the result is materialized
_Entry = tuple[Cube, int, int]


class OffSetColumns(list):
    """Off-set pairs that carry their transposition into literal columns.

    A list of packed ``(care, value)`` pairs, usable wherever such a list
    is, that also holds the columns of :func:`_expand`, filled per literal
    on first use: ``positive[bit]`` / ``negative[bit]`` has bit *j* set when
    off-set cube *j* is compatible with the literal ``bit = 1`` /
    ``bit = 0``.  The memo of dropped literals per bound cube part depends
    on the off-set alone, so it is shared too.  Treat it as immutable.
    """

    __slots__ = ("full", "bound", "positive", "negative", "drops")

    def __init__(self, off_set: CubeSet = ()):
        super().__init__(cube_pairs(off_set))
        self.full = (1 << len(self)) - 1
        bound = 0  # variables some off-set cube binds
        for row_care, _ in self:
            bound |= row_care
        self.bound = bound
        self.positive: dict[int, int] = {}
        self.negative: dict[int, int] = {}
        self.drops: dict[tuple[int, int], int] = {}

    def fill(self, support: int) -> None:
        """Transpose the columns of the bound literal bits of ``support``."""
        rows = self[::-1]  # row j lands on bit j of a parsed string
        full = self.full
        positive = self.positive
        support &= self.bound
        while support:
            bit = support & -support
            support ^= bit
            if bit in positive:
                continue
            ones = "".join(["1" if row_value & bit else "0" for _, row_value in rows])
            zeros = "".join(
                ["1" if (row_care ^ row_value) & bit else "0" for row_care, row_value in rows]
            )
            positive[bit] = full ^ int(zeros, 2)
            self.negative[bit] = full ^ int(ones, 2)


def _columns(off_set: CubeSet) -> OffSetColumns:
    return off_set if isinstance(off_set, OffSetColumns) else OffSetColumns(off_set)


def expand_cover(cover: Cover, off_set: Cover) -> Cover:
    """Expand every cube of a cover against the off-set, then prune.

    Literals are tried in variable-name order, so the result is
    deterministic.  A literal is dropped when the enlarged cube still does
    not intersect ``off_set``.
    """
    kept = _remove_contained_packed(_expand(cover._cubes, OffSetColumns(off_set)))
    return Cover._make([_materialize(entry) for entry in kept], cover._variables, cover._mask)


def irredundant_cover(cover: Cover, dc_set: Optional[Cover] = None) -> Cover:
    """Drop cubes whose vertices are covered by the remaining cubes + dc-set.

    A simple greedy irredundant pass: cubes are visited from largest literal
    count (most specific) to smallest, and removed when redundant.
    """
    entries = [(cube, cube._care, cube._value) for cube in cover._cubes]
    kept = _irredundant(entries, cube_pairs(dc_set))
    return Cover([cube for cube, _, _ in kept], cover.variables)


def minimize_cover(
    on_set: Cover,
    off_set: CubeSet,
    dc_set: Optional[CubeSet] = None,
) -> Cover:
    """Expand + irredundant minimization of a cover of the on-set.

    The result contains ``on_set`` and does not intersect ``off_set``.
    """
    expanded = _remove_contained_packed(_expand(on_set._cubes, _columns(off_set)))
    kept = _irredundant(expanded, cube_pairs(dc_set))
    variables, mask = on_set._variables, on_set._mask
    reduced = Cover._make([_materialize(entry) for entry in kept], variables, mask)
    # Guard: never return a cover that lost part of the on-set.
    if not reduced.contains_cover(on_set):
        return Cover._make([_materialize(entry) for entry in expanded], variables, mask)
    return reduced


# ---------------------------------------------------------------------- #
# Packed kernel
# ---------------------------------------------------------------------- #


def _expand(cubes: list[Cube], columns: OffSetColumns) -> list[_Entry]:
    """Every cube expanded against the off-set columns, in input order."""
    support = 0
    for cube in cubes:
        support |= cube._care
    columns.fill(support)
    full = columns.full
    bound = columns.bound
    positive = columns.positive
    negative = columns.negative
    # A literal no off-set cube binds never changes an AND: it is dropped
    # iff the cube misses the off-set, and the other decisions depend only
    # on the bound literals.  So the dropped mask is memoized per bound part
    # (``~bound`` marks "drop every unbound literal").  Keys repeat where the
    # off-set leaves signals unbound: on the state-based registry specs half
    # of all expansions hit (independent_cells_5 98%, muller_pipeline_8 64%).
    drops = columns.drops
    expanded: list[_Entry] = []
    for cube in cubes:
        care = cube._care
        value = cube._value
        key = (care & bound, value & bound)
        dropped = drops.get(key)
        if dropped is None:
            order = _name_order(key[0])
            literals = [positive[bit] if value & bit else negative[bit] for bit in order]
            # suffixes[-1 - i]: rows compatible with every literal after i
            suffixes = list(accumulate(reversed(literals), and_, initial=full))
            if suffixes.pop():
                dropped = 0  # the cube meets the off-set: nothing can go
            else:
                dropped = ~bound
                kept = full
                for bit, literal, rest in zip(order, literals, reversed(suffixes)):
                    if kept & rest:
                        kept &= literal
                    else:
                        dropped |= bit
            drops[key] = dropped
        dropped &= care
        expanded.append((cube, care & ~dropped, value & ~dropped))
    return expanded


@lru_cache(maxsize=4096)
def _name_order(care: int) -> tuple[int, ...]:
    """The literal bits of a care mask in variable-name order.

    Cached for good: interned bit indices never change.
    """
    return tuple(1 << _VAR_INDEX[name] for name in sorted(names_of_mask(care)))


def _irredundant(entries: list[_Entry], dc_pairs: list[tuple[int, int]]) -> list[_Entry]:
    """Greedy irredundant pass over packed entries (most literals first)."""
    ordered = sorted(entries, key=lambda item: -item[1].bit_count())
    kept = list(ordered)
    for entry in ordered:
        cube, care, value = entry
        # by identity, as the reference does: a cube object listed twice is
        # never covered by its own copy
        others = [other for other in kept if other[0] is not cube]
        pairs = [(other_care, other_value) for _, other_care, other_value in others]
        if _covers_packed(pairs + dc_pairs, care, value):
            kept = others
    return kept


def _materialize(entry: _Entry) -> Cube:
    """The :class:`Cube` of an entry (its source cube when nothing dropped)."""
    cube, care, value = entry
    if care == cube._care:
        return cube
    literals = {
        name: bound
        for name, bound in cube._literals.items()
        if care >> _VAR_INDEX[name] & 1
    }
    return Cube._raw(literals, care, value)


# ---------------------------------------------------------------------- #
# Object-level reference (differential oracle of the packed kernel)
# ---------------------------------------------------------------------- #


def _reference_expand_cover(cover: Cover, off_set: Cover) -> Cover:
    """Object-level :func:`expand_cover`: a new cube per literal probe."""
    expanded = []
    for cube in cover:
        current = cube
        for variable in sorted(cube.support):
            candidate = current.expand_literal(variable)
            if not off_set.intersects_cube(candidate):
                current = candidate
        expanded.append(current)
    return Cover(expanded, cover.variables).remove_contained()


def _reference_irredundant_cover(cover: Cover, dc_set: Optional[Cover] = None) -> Cover:
    """Object-level :func:`irredundant_cover`: a cover union per cube."""
    cubes = sorted(cover.cubes, key=lambda c: -c.num_literals())
    kept = list(cubes)
    for cube in cubes:
        others = [other for other in kept if other is not cube]
        rest = Cover(others, cover.variables)
        if dc_set is not None and not dc_set.is_empty():
            rest = rest.union(dc_set)
        if rest.covers_cube(cube):
            kept = others
    return Cover(kept, cover.variables)


def _reference_minimize(
    on_set: Cover,
    off_set: Cover,
    dc_set: Optional[Cover] = None,
) -> Cover:
    """Object-level :func:`minimize_cover`."""
    expanded = _reference_expand_cover(on_set, off_set)
    reduced = _reference_irredundant_cover(expanded, dc_set)
    if not reduced.contains_cover(on_set):
        return expanded
    return reduced
