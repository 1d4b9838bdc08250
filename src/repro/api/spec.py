"""The specification front door of the unified API.

A :class:`Spec` is the single way every entry point of :mod:`repro.api`
receives its input.  It accepts all three specification sources used across
the repository — a ``.g``/ASTG file on disk, a benchmark-registry name, or an
in-memory :class:`~repro.stg.stg.STG` — and normalizes them to one canonical
``.g`` text plus a stable content hash.  The hash keys every stage cache of
:class:`repro.api.pipeline.Pipeline`, so two specs describing the same STG
(regardless of how they were loaded or formatted) share cached artifacts.

All malformed input surfaces as the typed :class:`SpecError` (a subclass of
``ValueError``), wrapping the lower-level parser errors.
"""

from __future__ import annotations

import hashlib
import os
from typing import Optional, Union

from repro.stg.parser import GFormatError, parse_g
from repro.stg.stg import STG
from repro.stg.writer import write_g


class SpecError(ValueError):
    """Raised when a specification cannot be loaded or parsed."""


#: Anything :func:`Spec.load` knows how to turn into a :class:`Spec`.
SpecLike = Union["Spec", STG, str, os.PathLike]


class Spec:
    """A synthesis specification with a canonical form and a content hash.

    Construct with one of the classmethods — :meth:`from_file`,
    :meth:`from_benchmark`, :meth:`from_stg`, :meth:`from_text` — or let
    :meth:`load` dispatch on the source type.  The canonical text is the
    ``.g`` serialization of the parsed STG (independent of the input
    formatting), and :attr:`content_hash` is its SHA-256 digest.
    """

    __slots__ = ("name", "origin", "text", "_stg", "_hash")

    def __init__(self, name: str, text: str, origin: str, stg: Optional[STG] = None):
        self.name = name
        #: canonical ``.g`` serialization of the specification
        self.text = text
        #: where the spec came from: ``file`` / ``benchmark`` / ``stg`` / ``text``
        self.origin = origin
        self._stg = stg
        self._hash: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_text(cls, text: str) -> "Spec":
        """Parse an inline ``.g`` description."""
        try:
            stg = parse_g(text)
        except GFormatError as error:
            raise SpecError(f"malformed .g specification: {error}") from error
        return cls(stg.name, write_g(stg), "text", stg)

    @classmethod
    def from_file(cls, path: Union[str, os.PathLike]) -> "Spec":
        """Load a ``.g``/ASTG file from disk."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            raise SpecError(f"cannot read specification file {path!r}: {error}") from error
        name = os.path.splitext(os.path.basename(str(path)))[0]
        try:
            stg = parse_g(text, name=name)
        except GFormatError as error:
            raise SpecError(f"malformed .g file {path!r}: {error}") from error
        return cls(stg.name, write_g(stg), "file", stg)

    @classmethod
    def from_benchmark(cls, name: str) -> "Spec":
        """Build a benchmark from the registry by name."""
        from repro.benchmarks.registry import get_benchmark

        try:
            stg = get_benchmark(name)
        except KeyError as error:
            raise SpecError(str(error.args[0])) from error
        return cls(name, write_g(stg), "benchmark", stg)

    @classmethod
    def from_stg(cls, stg: STG, name: Optional[str] = None) -> "Spec":
        """Wrap an in-memory STG."""
        if not isinstance(stg, STG):
            raise SpecError(f"expected an STG instance, got {type(stg).__name__}")
        return cls(name or stg.name, write_g(stg), "stg", stg)

    @classmethod
    def load(cls, source: SpecLike) -> "Spec":
        """Dispatch on the source type: Spec, STG, path, registry name, or text."""
        if isinstance(source, Spec):
            return source
        if isinstance(source, STG):
            return cls.from_stg(source)
        if isinstance(source, os.PathLike):
            return cls.from_file(source)
        if isinstance(source, str):
            # inline .g text always spans multiple lines; everything else on
            # one line is a path or a registry name (existence checked first,
            # so a path like "my.graph.g" is never misread as inline text)
            if "\n" in source:
                return cls.from_text(source)
            if os.path.exists(source) or source.endswith(".g"):
                return cls.from_file(source)
            from repro.benchmarks.registry import list_benchmarks

            if source in list_benchmarks():
                return cls.from_benchmark(source)
            raise SpecError(
                f"{source!r} is neither an existing .g file nor a registered "
                f"benchmark (see `python -m repro list`)"
            )
        raise SpecError(f"cannot build a Spec from {type(source).__name__}")

    # ------------------------------------------------------------------ #
    # Canonical identity
    # ------------------------------------------------------------------ #

    @property
    def content_hash(self) -> str:
        """SHA-256 of the canonical ``.g`` text (stable across load paths)."""
        if self._hash is None:
            self._hash = hashlib.sha256(self.text.encode("utf-8")).hexdigest()
        return self._hash

    @property
    def stg(self) -> STG:
        """The parsed STG (built lazily from the canonical text)."""
        if self._stg is None:
            self._stg = parse_g(self.text, name=self.name)
        return self._stg

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Spec):
            return NotImplemented
        return self.content_hash == other.content_hash

    def __hash__(self) -> int:
        return hash(self.content_hash)

    def __repr__(self) -> str:
        return (
            f"Spec({self.name!r}, origin={self.origin!r}, "
            f"hash={self.content_hash[:12]})"
        )

    # The parsed STG is a derived in-memory object: drop it when pickling
    # (process-pool workers re-parse from the canonical text).
    def __getstate__(self):
        return (self.name, self.text, self.origin)

    def __setstate__(self, state):
        self.name, self.text, self.origin = state
        self._stg = None
        self._hash = None
