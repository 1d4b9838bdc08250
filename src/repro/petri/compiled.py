"""Bit-packed compiled kernel: structural tables and the token game.

A :class:`CompiledNet` freezes the structure of a
:class:`~repro.petri.net.PetriNet` — the ``(P, T, F)`` part of the paper's
``(P, T, F, m0)`` four-tuple (Section II-B) — into integer masks over an
interned place order:

``pre_masks[t]``
    Bit ``i`` is set iff place ``i`` is an input place of transition ``t``
    (the preset ``•t`` restricted to places).
``post_masks[t]``
    Bit ``i`` is set iff place ``i`` is an output place of ``t`` (``t•``).
``consumers[p]`` / ``producers[p]``
    The transition indices with ``p ∈ •t`` / ``p ∈ t•``, in index order:
    the place-to-transition tables of the worklist walks
    (:meth:`repro.structural.qps._WalkEngine.reach`), of the SM-component
    test (:func:`repro.petri.smcover.is_sm_component`) and of the token
    game's dirty-frontier index.

The token game itself is :class:`CompiledBoundedNet`, built from those
tables: a marking is one int of ``bits``-bit count fields, one per place.
Reachability (:mod:`repro.petri.reachability`) climbs the field widths of
:data:`BOUNDED_BITS_LADDER`; a safe net completes on the first rung, whose
1-bit fields are one bit per place, so "the 1-bit rung completed" is the
safety verdict.  Past the last rung the dict-based reference BFS takes over.
"""

from __future__ import annotations

from typing import Optional

from repro.petri.marking import Marking
from repro.petri.net import PetriNet


class UnsafeNetError(RuntimeError):
    """Raised when a marking cannot be packed into the compiled kernel.

    :meth:`CompiledBoundedNet.pack` raises it for a marking that puts
    tokens on a place the net does not know about; callers then fall back
    to the dict-based reference semantics.  Its subclass
    :class:`BoundExceededError` reports a token count too large for the
    current field width.
    """


class BoundExceededError(UnsafeNetError):
    """Raised when a token count overflows the k-bit place fields.

    Either the starting marking already carries more than ``capacity``
    tokens on a place, or exploration fired a transition that would push a
    place past it.  Callers catch this and retry with wider fields (or fall
    back to the dict-based reference semantics, which is unbounded).
    """


class StateSpaceLimitExceeded(RuntimeError):
    """Raised when reachability exploration exceeds the marking limit."""


def _bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    indices = []
    while mask:
        low = mask & -mask
        indices.append(low.bit_length() - 1)
        mask ^= low
    return indices


class CompiledNet:
    """Bit-packed read-only structural tables of a Petri net.

    The compiled form is cached on the net keyed by its structural version,
    so repeated analyses of the same net compile once (see
    :func:`compile_net`); the token-game rungs built from it are cached
    with it (see :func:`compile_bounded_net`).
    """

    __slots__ = (
        "place_names",
        "place_index",
        "transition_names",
        "transition_index",
        "pre_masks",
        "post_masks",
        "consumers",
        "producers",
        "_rungs",
    )

    def __init__(self, net: PetriNet):
        self.place_names: list[str] = net.places
        self.place_index: dict[str, int] = {
            name: i for i, name in enumerate(self.place_names)
        }
        self.transition_names: list[str] = net.transitions
        self.transition_index: dict[str, int] = {
            name: i for i, name in enumerate(self.transition_names)
        }
        place_index = self.place_index
        pre_masks: list[int] = []
        post_masks: list[int] = []
        for transition in self.transition_names:
            pre = 0
            for place in net.preset(transition):
                pre |= 1 << place_index[place]
            post = 0
            for place in net.postset(transition):
                post |= 1 << place_index[place]
            pre_masks.append(pre)
            post_masks.append(post)
        self.pre_masks = pre_masks
        self.post_masks = post_masks
        # Walk tables: for each place, the transitions it feeds forward
        # (``p ∈ •t``) and backward (``p ∈ t•``), in index order.
        self.consumers: list[list[int]] = [[] for _ in self.place_names]
        self.producers: list[list[int]] = [[] for _ in self.place_names]
        for table, masks in ((self.consumers, pre_masks), (self.producers, post_masks)):
            for transition, mask in enumerate(masks):
                for place in _bit_indices(mask):
                    table[place].append(transition)
        self._rungs: dict[int, CompiledBoundedNet] = {}


def compile_net(net: PetriNet) -> CompiledNet:
    """Compiled view of a net, cached on the net's structural version."""
    version = getattr(net, "_version", None)
    cached = getattr(net, "_compiled_cache", None)
    if cached is not None and cached[0] == version:
        return cached[1]
    compiled = CompiledNet(net)
    try:
        net._compiled_cache = (version, compiled)
    except AttributeError:
        pass  # net-like object without attribute support; skip caching
    return compiled


class CompiledBoundedNet:
    """Packed token game of a k-bounded net: ``bits``-bit fields per place.

    Plays the token game of ``(2**bits - 1)``-bounded nets; at ``bits=1``
    it is the safe-net game.  A marking is a single int carved into
    fields of ``bits + 1`` bits per place — ``bits`` count bits plus one
    *guard* bit that stays zero in every valid marking.  The guard bit makes
    the token-flow semantics branch-free across all places at once (SWAR):

    ``is_enabled(t, m)``
        ``((m | G_t) - S_t) & G_t == G_t`` where ``G_t`` sets the guard bit
        of every input place of ``t`` and ``S_t`` subtracts one token from
        each.  Setting the guard before subtracting confines borrows to
        their own field: the guard survives iff the field held >= 1 token.
    ``fire(t, m)``
        ``m + delta_t`` where ``delta_t = sum(post) - sum(pre)`` over the
        fields.  A field overflowing ``capacity`` carries into its guard
        bit, so ``result & guard_all != 0`` detects a bound violation in one
        mask test (:class:`BoundExceededError` — callers widen the fields or
        fall back to the unbounded reference semantics).

    The names, indices and masks come from :func:`compile_net`.
    Exploration keeps the exact BFS discovery order of the reference
    multiset semantics, so graphs built on this kernel are
    indistinguishable from reference-built ones (the differential tests in
    ``tests/test_bounded_kernel.py`` and ``tests/test_compiled_kernel.py``
    pin this).
    """

    __slots__ = (
        "bits",
        "capacity",
        "place_names",
        "place_index",
        "transition_names",
        "transition_index",
        "pre_guards",
        "pre_subs",
        "deltas",
        "guard_all",
        "field_mask",
        "_width",
        "_affected",
    )

    def __init__(self, net: PetriNet, bits: int):
        if bits < 1:
            raise ValueError(f"need at least 1 count bit per place, got {bits}")
        structure = compile_net(net)
        self.bits = bits
        self.capacity = (1 << bits) - 1
        width = bits + 1
        self._width = width
        self.field_mask = (1 << bits) - 1
        self.place_names = structure.place_names
        self.place_index = structure.place_index
        self.transition_names = structure.transition_names
        self.transition_index = structure.transition_index

        units = [1 << (place * width) for place in range(len(self.place_names))]

        def ones(places: int) -> int:
            """One token on each place of a place mask, as packed fields."""
            return sum([units[place] for place in _bit_indices(places)])

        self.guard_all = sum(units) << bits
        self.pre_subs = [ones(pre) for pre in structure.pre_masks]
        self.pre_guards = [sub << bits for sub in self.pre_subs]
        self.deltas = [
            ones(post & ~pre) - ones(pre & ~post)
            for pre, post in zip(structure.pre_masks, structure.post_masks)
        ]
        # Dirty-frontier index: transitions whose preset touches a place
        # whose token count changes when t fires (self-loop places keep
        # their count, so they never flip anyone's enabled status).
        consumers = structure.consumers
        self._affected: list[list[int]] = []
        for pre, post in zip(structure.pre_masks, structure.post_masks):
            affected: set[int] = set()
            for place in _bit_indices(pre ^ post):
                affected.update(consumers[place])
            self._affected.append(sorted(affected))

    # ------------------------------------------------------------------ #
    # Marking conversion (API boundary)
    # ------------------------------------------------------------------ #

    def pack(self, marking: Marking) -> int:
        """Pack a k-bounded marking into an int (``bits``-bit count fields).

        Raises
        ------
        BoundExceededError
            If a place holds more than ``capacity`` tokens.
        UnsafeNetError
            If the marking marks a place the net does not know about.
        """
        packed = 0
        width = self._width
        capacity = self.capacity
        place_index = self.place_index
        for place, count in marking.items():
            index = place_index.get(place)
            if index is None:
                raise UnsafeNetError(f"marked place {place!r} is not part of the net")
            if count > capacity:
                raise BoundExceededError(
                    f"place {place!r} holds {count} tokens; {self.bits}-bit "
                    f"fields cap at {capacity}"
                )
            packed |= count << (index * width)
        return packed

    def unpack(self, packed: int) -> Marking:
        """Unpack an int marking back into a name-based :class:`Marking`."""
        names = self.place_names
        width = self._width
        field_mask = self.field_mask
        tokens: dict[str, int] = {}
        while packed:
            low = packed & -packed
            index = (low.bit_length() - 1) // width
            shift = index * width
            count = (packed >> shift) & field_mask
            tokens[names[index]] = count
            packed ^= count << shift
        return Marking.from_counts(tokens)

    # ------------------------------------------------------------------ #
    # Token-flow semantics on int markings
    # ------------------------------------------------------------------ #

    def is_enabled(self, transition: int, marking: int) -> bool:
        """True if every input place of ``transition`` holds >= 1 token."""
        guard = self.pre_guards[transition]
        return ((marking | guard) - self.pre_subs[transition]) & guard == guard

    def fire(self, transition: int, marking: int) -> int:
        """Successor marking (assumes enabled; caller checks the bound)."""
        return marking + self.deltas[transition]

    def fire_checked(self, transition: int, marking: int) -> int:
        """Successor marking, raising :class:`BoundExceededError` on overflow."""
        successor = marking + self.deltas[transition]
        if successor & self.guard_all:
            raise BoundExceededError(
                f"firing {self.transition_names[transition]!r} exceeds "
                f"{self.capacity} tokens on a place"
            )
        return successor

    def enabled_mask(self, marking: int) -> int:
        """Bitmask over transition indices of the enabled transitions."""
        mask = 0
        bit = 1
        for guard, sub in zip(self.pre_guards, self.pre_subs):
            if ((marking | guard) - sub) & guard == guard:
                mask |= bit
            bit <<= 1
        return mask

    def enabled_transitions(self, marking: int) -> list[int]:
        """Enabled transition indices in index (= insertion) order."""
        return [
            t
            for t, (guard, sub) in enumerate(zip(self.pre_guards, self.pre_subs))
            if ((marking | guard) - sub) & guard == guard
        ]

    # ------------------------------------------------------------------ #
    # Reachability (BFS over int markings)
    # ------------------------------------------------------------------ #

    def explore(
        self,
        initial: int,
        max_markings: Optional[int] = None,
        want_edges: bool = False,
    ) -> tuple[list[int], list[int], Optional[list[tuple[int, int, int]]]]:
        """Breadth-first exploration from a packed initial marking.

        Returns ``(markings, enabled, edges)`` where ``markings`` holds the
        packed markings in discovery order (the same order as the reference
        BFS over :class:`Marking` objects), ``enabled`` the enabled-transition
        bitmask of each marking, and ``edges`` (if requested) the triples
        ``(source_index, transition_index, target_index)`` in firing order.

        Raises
        ------
        StateSpaceLimitExceeded
            When more than ``max_markings`` markings are reachable.
        BoundExceededError
            When a firing pushes a place past ``capacity`` tokens.
        """
        pre_guards = self.pre_guards
        pre_subs = self.pre_subs
        deltas = self.deltas
        guard_all = self.guard_all
        affected = self._affected
        transition_names = self.transition_names

        order = [initial]
        index_of = {initial: 0}
        enabled = [self.enabled_mask(initial)]
        edges: Optional[list[tuple[int, int, int]]] = [] if want_edges else None
        head = 0
        while head < len(order):
            marking = order[head]
            source = head
            pending = enabled[head]
            head += 1
            while pending:
                low = pending & -pending
                pending ^= low
                transition = low.bit_length() - 1
                successor = marking + deltas[transition]
                if successor & guard_all:
                    raise BoundExceededError(
                        f"firing {transition_names[transition]!r} exceeds "
                        f"{self.capacity} tokens on a place"
                    )
                target = index_of.get(successor)
                if target is None:
                    if max_markings is not None and len(order) >= max_markings:
                        raise StateSpaceLimitExceeded(
                            f"more than {max_markings} reachable markings"
                        )
                    successor_enabled = enabled[source]
                    for u in affected[transition]:
                        guard_u = pre_guards[u]
                        if ((successor | guard_u) - pre_subs[u]) & guard_u == guard_u:
                            successor_enabled |= 1 << u
                        else:
                            successor_enabled &= ~(1 << u)
                    target = len(order)
                    index_of[successor] = target
                    order.append(successor)
                    enabled.append(successor_enabled)
                if edges is not None:
                    edges.append((source, transition, target))
        return order, enabled, edges


#: Field widths tried, in order, before falling back to the reference
#: semantics: safe, 3-bounded, 15-bounded, 255-bounded.
BOUNDED_BITS_LADDER = (1, 2, 4, 8)


def compile_bounded_net(net: PetriNet, bits: int) -> CompiledBoundedNet:
    """Token game of a net at one field width, cached with its structure."""
    rungs = compile_net(net)._rungs
    compiled = rungs.get(bits)
    if compiled is None:
        compiled = rungs[bits] = CompiledBoundedNet(net, bits)
    return compiled
