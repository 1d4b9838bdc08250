"""Markings: multisets of tokens over places.

Only places holding at least one token are stored, so markings of large but
safe nets stay compact and hashable (they are used as reachability-graph
vertices).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping


class Marking(Mapping[str, int]):
    """An immutable assignment of non-negative token counts to places."""

    __slots__ = ("_tokens", "_hash")

    def __init__(self, tokens: Mapping[str, int] | Iterable[tuple[str, int]] | Iterable[str] = ()):
        if isinstance(tokens, Mapping):
            items = dict(tokens)
        else:
            tokens = list(tokens)
            if tokens and isinstance(tokens[0], str):
                items = {place: 1 for place in tokens}  # type: ignore[union-attr]
            else:
                items = dict(tokens)  # type: ignore[arg-type]
        cleaned: dict[str, int] = {}
        for place, count in items.items():
            if count < 0:
                raise ValueError(f"negative token count for place {place!r}")
            if count > 0:
                cleaned[place] = count
        self._tokens = cleaned
        self._hash: int | None = None

    @classmethod
    def from_counts(cls, tokens: dict[str, int]) -> "Marking":
        """Fast constructor taking ownership of a dict of positive counts.

        Skips the copy and validation loop of ``__init__``; used by the
        compiled kernel when unpacking packed markings at the API boundary.
        """
        self = cls.__new__(cls)
        self._tokens = tokens
        self._hash = None
        return self

    # ------------------------------------------------------------------ #
    # Mapping protocol
    # ------------------------------------------------------------------ #

    def __getitem__(self, place: str) -> int:
        return self._tokens.get(place, 0)

    def __iter__(self) -> Iterator[str]:
        return iter(self._tokens)

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, place: object) -> bool:
        return place in self._tokens

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._tokens.items()))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Marking):
            return self._tokens == other._tokens
        if isinstance(other, Mapping):
            return self._tokens == {p: c for p, c in other.items() if c}
        return NotImplemented

    def __repr__(self) -> str:
        if not self._tokens:
            return "Marking()"
        body = ", ".join(
            (place if count == 1 else f"{place}:{count}")
            for place, count in sorted(self._tokens.items())
        )
        return f"Marking({body})"

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def marked_places(self) -> frozenset[str]:
        """The set of places holding at least one token."""
        return frozenset(self._tokens)

    def tokens(self, place: str) -> int:
        """Token count of a place (0 if unmarked)."""
        return self._tokens.get(place, 0)

    def total_tokens(self) -> int:
        """Total number of tokens in the marking."""
        return sum(self._tokens.values())

    def is_safe(self) -> bool:
        """True if no place carries more than one token."""
        return all(count <= 1 for count in self._tokens.values())

    def to_dict(self) -> dict[str, int]:
        """A mutable copy of the token mapping."""
        return dict(self._tokens)
