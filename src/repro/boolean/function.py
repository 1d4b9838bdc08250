"""Incompletely specified Boolean functions (on / off / dc triples).

The next-state function of every output signal (Section II-E of the paper) is
an incompletely specified function whose on-, off- and dc-sets partition the
Boolean space.  :class:`BooleanFunction` keeps the three sets as covers and
offers the correctness test of equation (1): a cover implements the function
if it contains the on-set and does not intersect the off-set.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Optional

from repro.boolean.cover import Cover


class BooleanFunction:
    """An incompletely specified single-output Boolean function."""

    __slots__ = ("name", "_on", "_off", "_dc", "_variables")

    def __init__(
        self,
        on_set: Cover,
        off_set: Cover,
        dc_set: Optional[Cover] = None,
        variables: Iterable[str] = (),
        name: str = "f",
    ):
        universe = tuple(dict.fromkeys(
            list(variables)
            + list(on_set.variables)
            + list(off_set.variables)
            + (list(dc_set.variables) if dc_set is not None else [])
        ))
        self.name = name
        self._variables = universe
        self._on = on_set.with_variables(universe)
        self._off = off_set.with_variables(universe)
        if dc_set is None:
            dc_set = Cover.universe(universe).sharp(self._on).sharp(self._off)
        self._dc = dc_set.with_variables(universe)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def on_set(self) -> Cover:
        """Cover of the on-set."""
        return self._on

    @property
    def off_set(self) -> Cover:
        """Cover of the off-set."""
        return self._off

    @property
    def dc_set(self) -> Cover:
        """Cover of the don't-care set."""
        return self._dc

    @property
    def variables(self) -> tuple[str, ...]:
        """Variable universe of the function."""
        return self._variables

    def __repr__(self) -> str:
        return (
            f"BooleanFunction({self.name}: on={self._on.to_expression()}, "
            f"off={self._off.to_expression()})"
        )

    # ------------------------------------------------------------------ #
    # Evaluation and consistency
    # ------------------------------------------------------------------ #

    def evaluate(self, vertex: Mapping[str, int]) -> Optional[int]:
        """Value of the function at a complete assignment.

        Returns 1 / 0 for on- and off-set vertices and ``None`` for dc-set
        vertices (or vertices not present in any of the three sets).
        """
        if self._on.covers_vertex(vertex):
            return 1
        if self._off.covers_vertex(vertex):
            return 0
        return None

    def is_consistent(self) -> bool:
        """True if on-, off- and dc-sets are pairwise disjoint."""
        if self._on.intersects_cover(self._off):
            return False
        if self._on.intersects_cover(self._dc):
            return False
        if self._off.intersects_cover(self._dc):
            return False
        return True

    def is_complete(self) -> bool:
        """True if the three sets cover the whole Boolean space."""
        total = self._on.union(self._off).union(self._dc)
        return total.is_tautology()

    # ------------------------------------------------------------------ #
    # Cover correctness (paper equation (1))
    # ------------------------------------------------------------------ #

    def is_correct_cover(self, cover: Cover) -> bool:
        """Equation (1): ``on ⊆ cover ⊆ on ∪ dc``."""
        if not cover.contains_cover(self._on):
            return False
        if cover.intersects_cover(self._off):
            return False
        return True

    # ------------------------------------------------------------------ #
    # Derived functions
    # ------------------------------------------------------------------ #

    def complemented(self) -> "BooleanFunction":
        """The function with on- and off-sets swapped."""
        return BooleanFunction(
            self._off, self._on, self._dc, self._variables, name=f"{self.name}'"
        )

    def restricted(self, variables: Sequence[str]) -> "BooleanFunction":
        """Project every set onto a subset of variables (existential)."""
        return BooleanFunction(
            self._on.restrict(variables),
            self._off.restrict(variables),
            self._dc.restrict(variables),
            variables,
            name=self.name,
        )
