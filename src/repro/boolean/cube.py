"""Cubes: conjunctions of literals over named Boolean variables.

A cube is represented as an immutable mapping ``variable -> value`` where the
value is ``0`` (complemented literal), or ``1`` (positive literal).  Variables
that do not appear in the mapping are *don't-care* (the cube does not depend
on them).  The empty mapping is the universal cube (constant ``1``).

The representation mirrors the positional-cube notation of the paper
(Section II-A): the character string of a cube over an ordered list of
variables uses ``0``, ``1`` and ``-``.

Internally every cube also carries a bit-packed form over the global variable
order of :mod:`repro.boolean.interning`: a *care mask* (one bit per bound
variable) and a *value mask* (the bit of a bound variable is set iff its
literal is positive).  All the hot cube-algebra predicates — ``covers``,
``intersects``, ``distance``, ``consensus``, ``intersect`` — reduce to a few
integer operations on these masks; the name-based mapping interface is kept
as the user-facing layer.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from typing import Optional

from repro.boolean.interning import _VAR_INDEX, var_index, var_name


class Cube(Mapping[str, int]):
    """An immutable product term (conjunction of literals).

    Parameters
    ----------
    literals:
        A mapping (or iterable of pairs) from variable name to 0 or 1.

    Examples
    --------
    >>> c = Cube({"a": 1, "b": 0})
    >>> c.to_string(["a", "b", "c"])
    '10-'
    >>> Cube.universal().is_universal()
    True
    """

    __slots__ = ("_literals", "_care", "_value", "_support", "_hash")

    def __init__(self, literals: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        items = dict(literals)
        care = 0
        value = 0
        for var, bound in items.items():
            index = _VAR_INDEX.get(var)
            if index is None:
                index = var_index(var)
            bit = 1 << index
            care |= bit
            if bound == 1:
                value |= bit
            elif bound != 0:
                raise ValueError(f"literal value for {var!r} must be 0 or 1, got {bound!r}")
        self._literals: dict[str, int] = items
        self._care = care
        self._value = value
        self._support: Optional[frozenset[str]] = None
        self._hash: Optional[int] = None

    @classmethod
    def _raw(cls, items: dict[str, int], care: int, value: int) -> "Cube":
        """Internal fast constructor for pre-validated literal dicts."""
        self = cls.__new__(cls)
        self._literals = items
        self._care = care
        self._value = value
        self._support = None
        self._hash = None
        return self

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def universal(cls) -> "Cube":
        """The cube with no literals (the constant-1 function)."""
        return cls({})

    @classmethod
    def from_string(cls, pattern: str, variables: Iterable[str]) -> "Cube":
        """Build a cube from positional-cube notation.

        ``pattern`` uses ``0``, ``1``, ``-`` (or ``x``/``X``) positionally over
        ``variables``.
        """
        variables = list(variables)
        if len(pattern) != len(variables):
            raise ValueError(
                f"pattern length {len(pattern)} does not match {len(variables)} variables"
            )
        literals: dict[str, int] = {}
        for char, var in zip(pattern, variables):
            if char == "1":
                literals[var] = 1
            elif char == "0":
                literals[var] = 0
            elif char in "-xX*":
                continue
            else:
                raise ValueError(f"invalid cube character {char!r}")
        return cls(literals)

    # ------------------------------------------------------------------ #
    # Mapping protocol
    # ------------------------------------------------------------------ #

    def __getitem__(self, variable: str) -> int:
        return self._literals[variable]

    def __iter__(self) -> Iterator[str]:
        return iter(self._literals)

    def __len__(self) -> int:
        return len(self._literals)

    def __contains__(self, variable: object) -> bool:
        return variable in self._literals

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._care, self._value))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Cube):
            return self._care == other._care and self._value == other._value
        if isinstance(other, Mapping):
            return self._literals == dict(other)
        return NotImplemented

    def __reduce__(self):
        # Pickle by literal names, not by the packed masks: the bit positions
        # depend on the process-global interner order, which may differ in
        # the process that unpickles (e.g. process-pool batch workers).
        return (Cube, (self._literals,))

    def __repr__(self) -> str:
        if not self._literals:
            return "Cube(1)"
        body = " ".join(
            (name if value else f"{name}'")
            for name, value in sorted(self._literals.items())
        )
        return f"Cube({body})"

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def literals(self) -> dict[str, int]:
        """A copy of the literal mapping."""
        return dict(self._literals)

    @property
    def support(self) -> frozenset[str]:
        """The set of variables the cube depends on."""
        support = self._support
        if support is None:
            support = frozenset(self._literals)
            self._support = support
        return support

    @property
    def care_mask(self) -> int:
        """Packed care mask over the global variable order."""
        return self._care

    @property
    def value_mask(self) -> int:
        """Packed value mask over the global variable order."""
        return self._value

    def is_universal(self) -> bool:
        """True if this cube is the constant-1 cube (no literals)."""
        return not self._literals

    def value_of(self, variable: str) -> Optional[int]:
        """The literal value for ``variable`` or ``None`` if don't-care."""
        return self._literals.get(variable)

    def num_literals(self) -> int:
        """Number of literals in the cube."""
        return len(self._literals)

    # ------------------------------------------------------------------ #
    # Cube algebra
    # ------------------------------------------------------------------ #

    def intersect(self, other: "Cube") -> Optional["Cube"]:
        """Product of two cubes, or ``None`` if they are disjoint.

        Two cubes are disjoint when some variable appears with opposite
        polarities.
        """
        if (self._value ^ other._value) & self._care & other._care:
            return None
        merged = dict(self._literals)
        merged.update(other._literals)
        return Cube._raw(merged, self._care | other._care, self._value | other._value)

    def __and__(self, other: "Cube") -> Optional["Cube"]:
        return self.intersect(other)

    def intersects(self, other: "Cube") -> bool:
        """True if the two cubes share at least one vertex."""
        return not (self._value ^ other._value) & self._care & other._care

    def covers(self, other: "Cube") -> bool:
        """True if every vertex of ``other`` is a vertex of this cube.

        Equivalent to: every literal of ``self`` appears in ``other`` with the
        same polarity.
        """
        care = self._care
        return not (care & ~other._care) and not (self._value ^ other._value) & care

    def covers_vertex(self, vertex: Mapping[str, int]) -> bool:
        """True if a complete assignment ``vertex`` satisfies the cube."""
        for var, value in self._literals.items():
            if vertex.get(var) != value:
                return False
        return True

    def distance(self, other: "Cube") -> int:
        """Number of variables in which the cubes have opposite literals."""
        return ((self._value ^ other._value) & self._care & other._care).bit_count()

    def consensus(self, other: "Cube") -> Optional["Cube"]:
        """The consensus (resolvent) of two cubes at distance exactly one."""
        clash_mask = (self._value ^ other._value) & self._care & other._care
        if clash_mask == 0 or clash_mask & (clash_mask - 1):
            return None
        clash = var_name(clash_mask.bit_length() - 1)
        merged = dict(self._literals)
        merged.update(other._literals)
        del merged[clash]
        care = (self._care | other._care) & ~clash_mask
        return Cube._raw(merged, care, (self._value | other._value) & care)

    def supercube(self, other: "Cube") -> "Cube":
        """Smallest cube containing both cubes."""
        other_literals = other._literals
        merged = {
            var: value
            for var, value in self._literals.items()
            if other_literals.get(var) == value
        }
        care = self._care & other._care & ~(self._value ^ other._value)
        return Cube._raw(merged, care, self._value & care)

    def cofactor(self, variable: str, value: int) -> Optional["Cube"]:
        """Cofactor with respect to ``variable = value``.

        Returns ``None`` if the cube requires the opposite value (the
        cofactor is empty); otherwise returns the cube with the variable
        removed.
        """
        existing = self._literals.get(variable)
        if existing is None:
            return self
        if existing != value:
            return None
        reduced = dict(self._literals)
        del reduced[variable]
        bit = 1 << _VAR_INDEX[variable]
        return Cube._raw(reduced, self._care & ~bit, self._value & ~bit)

    def expand_literal(self, variable: str) -> "Cube":
        """Return the cube with ``variable`` removed from its support."""
        if variable not in self._literals:
            return self
        reduced = dict(self._literals)
        del reduced[variable]
        bit = 1 << _VAR_INDEX[variable]
        return Cube._raw(reduced, self._care & ~bit, self._value & ~bit)

    def restrict(self, variables: Iterable[str]) -> "Cube":
        """Project the cube onto a subset of variables."""
        allowed = set(variables)
        return Cube({var: val for var, val in self._literals.items() if var in allowed})

    def complement_cubes(self) -> list["Cube"]:
        """Complement of a single cube as a list of disjoint cubes.

        Uses the standard telescoping expansion: for literals ``l1 l2 ... lk``
        the complement is ``l1' + l1 l2' + l1 l2 l3' + ...``.
        """
        result: list[Cube] = []
        prefix: dict[str, int] = {}
        for var, value in self._literals.items():
            term = dict(prefix)
            term[var] = 1 - value
            result.append(Cube(term))
            prefix[var] = value
        return result

    # ------------------------------------------------------------------ #
    # Enumeration / formatting
    # ------------------------------------------------------------------ #

    def vertices(self, variables: Iterable[str]) -> Iterator[dict[str, int]]:
        """Enumerate all complete assignments over ``variables`` in the cube."""
        variables = list(variables)
        free = [v for v in variables if v not in self._literals]
        base = {v: self._literals[v] for v in variables if v in self._literals}
        for var in self._literals:
            if var not in variables:
                raise ValueError(f"cube depends on {var!r} not in enumeration variables")
        total = 1 << len(free)
        for index in range(total):
            vertex = dict(base)
            for bit, var in enumerate(free):
                vertex[var] = (index >> bit) & 1
            yield vertex

    def size(self, variables: Iterable[str]) -> int:
        """Number of minterms of the cube over a variable universe."""
        variables = list(variables)
        free = sum(1 for v in variables if v not in self._literals)
        return 1 << free

    def to_string(self, variables: Iterable[str]) -> str:
        """Positional-cube string over an ordered variable list."""
        chars = []
        for var in variables:
            value = self._literals.get(var)
            if value is None:
                chars.append("-")
            else:
                chars.append(str(value))
        return "".join(chars)

    def to_expression(self) -> str:
        """Human-readable product-term string, e.g. ``a b' c``."""
        if not self._literals:
            return "1"
        return " ".join(
            (name if value else f"{name}'")
            for name, value in sorted(self._literals.items())
        )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        """JSON-serializable literal mapping (sorted for canonical output).

        Like :meth:`__reduce__`, the serialized form names the variables
        rather than shipping the packed masks: the bit positions depend on
        the process-global interner order, so the masks are rebuilt (and the
        variables re-interned) when the cube is reconstructed in another
        process.
        """
        return {name: value for name, value in sorted(self._literals.items())}

    @classmethod
    def from_json(cls, data: Mapping[str, int]) -> "Cube":
        """Rebuild a cube from :meth:`to_json` output (re-interns variables)."""
        return cls({name: int(value) for name, value in data.items()})
