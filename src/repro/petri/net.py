"""Place/transition nets.

A :class:`PetriNet` is the four-tuple ``(P, T, F, m0)`` of the paper
(Section II-B): a set of places, a set of transitions, a flow relation and an
initial marking.  Nodes are referenced by name; the net object owns the
structure (presets, postsets) and the token-flow semantics is provided by
:class:`~repro.petri.marking.Marking`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Optional

from repro.petri.marking import Marking


@dataclass(frozen=True)
class Place:
    """A place of a Petri net."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Transition:
    """A transition of a Petri net."""

    name: str

    def __str__(self) -> str:
        return self.name


class PetriNet:
    """A place/transition net with an initial marking.

    The class is deliberately mutable during construction (places,
    transitions and arcs are added incrementally by parsers and generators)
    and treated as immutable afterwards by the analysis code.
    """

    def __init__(self, name: str = "net"):
        self.name = name
        self._places: dict[str, Place] = {}
        self._transitions: dict[str, Transition] = {}
        # presets / postsets keyed by node name
        self._pre: dict[str, set[str]] = {}
        self._post: dict[str, set[str]] = {}
        self._initial_tokens: dict[str, int] = {}
        # memoised frozenset views of presets/postsets (invalidated on
        # structural mutation) and the structural version counter keyed on by
        # the compiled-kernel cache (repro.petri.compiled.compile_net)
        self._preset_cache: dict[str, frozenset[str]] = {}
        self._postset_cache: dict[str, frozenset[str]] = {}
        self._version = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_place(self, name: str, tokens: int = 0) -> Place:
        """Add a place (idempotent) with an optional initial token count."""
        if name in self._transitions:
            raise ValueError(f"node {name!r} already exists as a transition")
        place = self._places.get(name)
        if place is None:
            place = Place(name)
            self._places[name] = place
            self._pre.setdefault(name, set())
            self._post.setdefault(name, set())
            self._version += 1
        if tokens:
            self._initial_tokens[name] = self._initial_tokens.get(name, 0) + tokens
        return place

    def add_transition(self, name: str) -> Transition:
        """Add a transition (idempotent)."""
        if name in self._places:
            raise ValueError(f"node {name!r} already exists as a place")
        transition = self._transitions.get(name)
        if transition is None:
            transition = Transition(name)
            self._transitions[name] = transition
            self._pre.setdefault(name, set())
            self._post.setdefault(name, set())
            self._version += 1
        return transition

    def add_arc(self, source: str, target: str) -> None:
        """Add a flow arc between a place and a transition (either order)."""
        if source not in self._places and source not in self._transitions:
            raise KeyError(f"unknown node {source!r}")
        if target not in self._places and target not in self._transitions:
            raise KeyError(f"unknown node {target!r}")
        source_is_place = source in self._places
        target_is_place = target in self._places
        if source_is_place == target_is_place:
            raise ValueError(
                f"arc {source!r} -> {target!r} must connect a place and a transition"
            )
        self._post[source].add(target)
        self._pre[target].add(source)
        self._postset_cache.pop(source, None)
        self._preset_cache.pop(target, None)
        self._version += 1

    def set_initial_tokens(self, place: str, tokens: int) -> None:
        """Set the number of initial tokens of a place."""
        if place not in self._places:
            raise KeyError(f"unknown place {place!r}")
        if tokens < 0:
            raise ValueError("token count must be non-negative")
        if tokens == 0:
            self._initial_tokens.pop(place, None)
        else:
            self._initial_tokens[place] = tokens

    def remove_arc(self, source: str, target: str) -> None:
        """Remove a flow arc (used by the corpus mutation operators)."""
        if target not in self._post.get(source, ()):
            raise KeyError(f"no arc {source!r} -> {target!r}")
        self._post[source].discard(target)
        self._pre[target].discard(source)
        self._postset_cache.pop(source, None)
        self._preset_cache.pop(target, None)
        self._version += 1

    def remove_place(self, name: str) -> None:
        """Remove a place and all its arcs."""
        if name not in self._places:
            raise KeyError(f"unknown place {name!r}")
        for successor in self._post.pop(name, set()):
            self._pre[successor].discard(name)
        for predecessor in self._pre.pop(name, set()):
            self._post[predecessor].discard(name)
        del self._places[name]
        self._initial_tokens.pop(name, None)
        self._preset_cache.clear()
        self._postset_cache.clear()
        self._version += 1

    def remove_transition(self, name: str) -> None:
        """Remove a transition and all its arcs."""
        if name not in self._transitions:
            raise KeyError(f"unknown transition {name!r}")
        for successor in self._post.pop(name, set()):
            self._pre[successor].discard(name)
        for predecessor in self._pre.pop(name, set()):
            self._post[predecessor].discard(name)
        del self._transitions[name]
        self._preset_cache.clear()
        self._postset_cache.clear()
        self._version += 1

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #

    @property
    def places(self) -> list[str]:
        """Place names in insertion order."""
        return list(self._places)

    @property
    def transitions(self) -> list[str]:
        """Transition names in insertion order."""
        return list(self._transitions)

    @property
    def nodes(self) -> list[str]:
        """All node names (places then transitions)."""
        return list(self._places) + list(self._transitions)

    def is_place(self, name: str) -> bool:
        """True if ``name`` is a place of the net."""
        return name in self._places

    def is_transition(self, name: str) -> bool:
        """True if ``name`` is a transition of the net."""
        return name in self._transitions

    def has_node(self, name: str) -> bool:
        """True if ``name`` is a node of the net."""
        return name in self._places or name in self._transitions

    def preset(self, node: str) -> frozenset[str]:
        """The preset (input nodes) of a node (memoised)."""
        cached = self._preset_cache.get(node)
        if cached is None:
            cached = frozenset(self._pre[node])
            self._preset_cache[node] = cached
        return cached

    def postset(self, node: str) -> frozenset[str]:
        """The postset (output nodes) of a node (memoised)."""
        cached = self._postset_cache.get(node)
        if cached is None:
            cached = frozenset(self._post[node])
            self._postset_cache[node] = cached
        return cached

    def arcs(self) -> Iterator[tuple[str, str]]:
        """Iterate over all flow arcs as (source, target) pairs."""
        for source, targets in self._post.items():
            for target in sorted(targets):
                yield source, target

    @property
    def initial_marking(self) -> Marking:
        """The initial marking of the net."""
        return Marking(self._initial_tokens)

    def num_places(self) -> int:
        """Number of places."""
        return len(self._places)

    def num_transitions(self) -> int:
        """Number of transitions."""
        return len(self._transitions)

    def num_arcs(self) -> int:
        """Number of flow arcs."""
        return sum(len(targets) for targets in self._post.values())

    # ------------------------------------------------------------------ #
    # Token-flow semantics
    # ------------------------------------------------------------------ #

    def is_enabled(self, transition: str, marking: Marking) -> bool:
        """True if every input place of the transition is marked."""
        return all(marking[place] > 0 for place in self._pre[transition])

    def enabled_transitions(self, marking: Marking) -> list[str]:
        """All transitions enabled at ``marking`` (in insertion order)."""
        return [t for t in self._transitions if self.is_enabled(t, marking)]

    def fire(self, transition: str, marking: Marking) -> Marking:
        """Fire a transition, returning the successor marking.

        Raises
        ------
        ValueError
            If the transition is not enabled at ``marking``.
        """
        if not self.is_enabled(transition, marking):
            raise ValueError(f"transition {transition!r} is not enabled")
        tokens = marking.to_dict()
        for place in self._pre[transition]:
            tokens[place] = tokens.get(place, 0) - 1
            if tokens[place] == 0:
                del tokens[place]
        for place in self._post[transition]:
            tokens[place] = tokens.get(place, 0) + 1
        return Marking(tokens)

    # ------------------------------------------------------------------ #
    # Copy / subnet helpers
    # ------------------------------------------------------------------ #

    def copy(self, name: Optional[str] = None) -> "PetriNet":
        """A deep copy of the net."""
        clone = PetriNet(name or self.name)
        for place, count in ((p, self._initial_tokens.get(p, 0)) for p in self._places):
            clone.add_place(place, count)
        for transition in self._transitions:
            clone.add_transition(transition)
        for source, target in self.arcs():
            clone.add_arc(source, target)
        return clone

    def __repr__(self) -> str:
        return (
            f"PetriNet({self.name!r}, |P|={self.num_places()}, "
            f"|T|={self.num_transitions()}, |F|={self.num_arcs()})"
        )


@dataclass
class NetStatistics:
    """Summary statistics of a net, used by the experiment reports."""

    places: int
    transitions: int
    arcs: int
    name: str = ""
    markings: Optional[int] = None
    extra: dict = field(default_factory=dict)

    @classmethod
    def of(cls, net: PetriNet) -> "NetStatistics":
        """Collect the statistics of a net."""
        return cls(
            places=net.num_places(),
            transitions=net.num_transitions(),
            arcs=net.num_arcs(),
            name=net.name,
        )
