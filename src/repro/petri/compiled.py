"""Bit-packed compiled kernel for safe Petri nets.

This module is the machine-level core that every hot reachability path runs
on.  A :class:`CompiledNet` freezes the structure of a
:class:`~repro.petri.net.PetriNet` — the ``(P, T, F)`` part of the paper's
``(P, T, F, m0)`` four-tuple (Section II-B) — into integer masks over an
interned place order:

``pre_masks[t]``
    Bit ``i`` is set iff place ``i`` is an input place of transition ``t``
    (the preset ``•t`` restricted to places).
``post_masks[t]``
    Bit ``i`` is set iff place ``i`` is an output place of ``t`` (``t•``).
``deltas[t]``
    ``pre_masks[t] ^ post_masks[t]`` — the places whose token count changes
    when ``t`` fires (self-loop places, ``•t ∩ t•``, keep their token).
``consumers[p]`` / ``producers[p]``
    The transition indices with ``p ∈ •t`` / ``p ∈ t•``, in index order:
    the place-to-transition tables of the worklist walks
    (:meth:`repro.structural.qps._WalkEngine.reach`) and of the
    SM-component test (:func:`repro.petri.smcover.is_sm_component`).

A marking ``m`` of a *safe* net is then a plain ``int`` with bit ``i`` set
iff place ``i`` is marked, and the token-flow semantics collapses to:

``is_enabled(t, m)``  ==  ``m & pre_masks[t] == pre_masks[t]``
``fire(t, m)``        ==  ``(m & ~pre_masks[t]) | post_masks[t]``

(the reference semantics of ``PetriNet.is_enabled`` / ``PetriNet.fire`` for
1-bounded markings).  Firing a transition whose output place is already
marked would create a second token; the kernel detects this and raises
:class:`UnsafeNetError`, at which point callers fall back to the dict-based
reference path, so unsafe nets keep the exact multiset semantics.

Reachability exploration additionally maintains the enabled set of each
marking incrementally ("dirty-frontier"): when ``t`` fires, only transitions
adjacent to the changed places (``consumers`` of ``deltas[t]``) can
change their enabled status, so the per-successor work is proportional to
the local fan-out instead of ``|T|``.
"""

from __future__ import annotations

from typing import Optional

from repro.petri.marking import Marking
from repro.petri.net import PetriNet


class UnsafeNetError(RuntimeError):
    """Raised when a marking cannot be represented as one bit per place.

    Either the starting marking carries multiple tokens on a place (or tokens
    on places unknown to the net), or exploration fired a transition into an
    already-marked output place.  Callers catch this and fall back to the
    k-bounded kernel (:class:`CompiledBoundedNet`) and ultimately to the
    dict-based reference semantics.
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


class CompiledNet:
    """Bit-packed read-only view of a Petri net.

    The compiled form is cached on the net keyed by its structural version,
    so repeated analyses of the same net compile once (see
    :func:`compile_net`).
    """

    __slots__ = (
        "place_names",
        "place_index",
        "transition_names",
        "transition_index",
        "pre_masks",
        "post_masks",
        "deltas",
        "consumers",
        "producers",
        "_not_pre",
        "_post_only",
        "_affected",
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
        self.deltas = [pre ^ post for pre, post in zip(pre_masks, post_masks)]
        # Walk tables: for each place, the transitions it feeds forward
        # (``p ∈ •t``) and backward (``p ∈ t•``), in index order.
        self.consumers: list[list[int]] = [[] for _ in self.place_names]
        self.producers: list[list[int]] = [[] for _ in self.place_names]
        for table, masks in ((self.consumers, pre_masks), (self.producers, post_masks)):
            for transition, mask in enumerate(masks):
                while mask:
                    low = mask & -mask
                    table[low.bit_length() - 1].append(transition)
                    mask ^= low
        self._not_pre = [~pre for pre in pre_masks]
        # Tokens may appear on an output place that is not consumed; if it is
        # already marked the successor would be 2-bounded.
        self._post_only = [post & ~pre for pre, post in zip(pre_masks, post_masks)]
        # Dirty-frontier index: for each transition t, the transitions whose
        # preset touches a place changed by firing t (the only ones whose
        # enabled status can differ between m and fire(t, m)).
        self._affected: list[list[int]] = []
        consumers = self.consumers
        for delta in self.deltas:
            affected: set[int] = set()
            while delta:
                low = delta & -delta
                affected.update(consumers[low.bit_length() - 1])
                delta ^= low
            self._affected.append(sorted(affected))

    # ------------------------------------------------------------------ #
    # Marking conversion (API boundary)
    # ------------------------------------------------------------------ #

    def pack(self, marking: Marking) -> int:
        """Pack a safe marking into an int (bit i == place i marked).

        Raises
        ------
        UnsafeNetError
            If the marking holds more than one token on a place or marks a
            place the net does not know about.
        """
        bits = 0
        place_index = self.place_index
        for place, count in marking.items():
            if count > 1:
                raise UnsafeNetError(
                    f"place {place!r} holds {count} tokens; markings of "
                    "unsafe nets cannot be bit-packed"
                )
            index = place_index.get(place)
            if index is None:
                raise UnsafeNetError(f"marked place {place!r} is not part of the net")
            bits |= 1 << index
        return bits

    def unpack(self, bits: int) -> Marking:
        """Unpack an int marking back into a name-based :class:`Marking`."""
        names = self.place_names
        marked = []
        while bits:
            low = bits & -bits
            marked.append(names[low.bit_length() - 1])
            bits ^= low
        return Marking.from_marked(marked)

    # ------------------------------------------------------------------ #
    # Token-flow semantics on int markings
    # ------------------------------------------------------------------ #

    def is_enabled(self, transition: int, marking: int) -> bool:
        """True if every input place of transition index ``transition`` is marked."""
        pre = self.pre_masks[transition]
        return marking & pre == pre

    def fire(self, transition: int, marking: int) -> int:
        """Successor marking (assumes the transition is enabled and safe)."""
        return (marking & self._not_pre[transition]) | self.post_masks[transition]

    def enabled_mask(self, marking: int) -> int:
        """Bitmask over transition indices of the enabled transitions."""
        mask = 0
        bit = 1
        for pre in self.pre_masks:
            if marking & pre == pre:
                mask |= bit
            bit <<= 1
        return mask

    def enabled_transitions(self, marking: int) -> list[int]:
        """Enabled transition indices in index (= insertion) order."""
        return [
            t for t, pre in enumerate(self.pre_masks) if marking & pre == pre
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
        UnsafeNetError
            When a firing would place a second token on a place.
        """
        pre_masks = self.pre_masks
        post_masks = self.post_masks
        not_pre = self._not_pre
        post_only = self._post_only
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
                if marking & post_only[transition]:
                    raise UnsafeNetError(
                        f"firing {transition_names[transition]!r} produces a "
                        "second token; falling back to multiset semantics"
                    )
                successor = (marking & not_pre[transition]) | post_masks[transition]
                target = index_of.get(successor)
                if target is None:
                    if max_markings is not None and len(order) >= max_markings:
                        raise StateSpaceLimitExceeded(
                            f"more than {max_markings} reachable markings"
                        )
                    successor_enabled = enabled[source]
                    for u in affected[transition]:
                        pre_u = pre_masks[u]
                        if successor & pre_u == pre_u:
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
    """Packed view of a k-bounded net: ``bits``-bit token fields per place.

    Generalizes :class:`CompiledNet` from safe (1-bounded) nets to
    ``(2**bits - 1)``-bounded nets.  A marking is a single int carved into
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

    Exploration keeps the exact BFS discovery order of the reference
    multiset semantics, so graphs built on this kernel are
    indistinguishable from reference-built ones (the differential tests in
    ``tests/test_bounded_kernel.py`` pin this).
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

    def __init__(self, net: PetriNet, bits: int = 2):
        if bits < 1:
            raise ValueError(f"need at least 1 count bit per place, got {bits}")
        self.bits = bits
        self.capacity = (1 << bits) - 1
        width = bits + 1
        self._width = width
        self.field_mask = (1 << bits) - 1
        self.place_names: list[str] = net.places
        self.place_index: dict[str, int] = {
            name: i for i, name in enumerate(self.place_names)
        }
        self.transition_names: list[str] = net.transitions
        self.transition_index: dict[str, int] = {
            name: i for i, name in enumerate(self.transition_names)
        }
        place_index = self.place_index
        guard_all = 0
        for i in range(len(self.place_names)):
            guard_all |= 1 << (i * width + bits)
        self.guard_all = guard_all
        pre_guards: list[int] = []
        pre_subs: list[int] = []
        deltas: list[int] = []
        changed_guards: list[int] = []
        for transition in self.transition_names:
            pre = set(net.preset(transition))
            post = set(net.postset(transition))
            guard = 0
            sub = 0
            for place in pre:
                shift = place_index[place] * width
                guard |= 1 << (shift + bits)
                sub |= 1 << shift
            delta = 0
            changed = 0
            for place in post - pre:
                shift = place_index[place] * width
                delta += 1 << shift
                changed |= 1 << (shift + bits)
            for place in pre - post:
                shift = place_index[place] * width
                delta -= 1 << shift
                changed |= 1 << (shift + bits)
            pre_guards.append(guard)
            pre_subs.append(sub)
            deltas.append(delta)
            changed_guards.append(changed)
        self.pre_guards = pre_guards
        self.pre_subs = pre_subs
        self.deltas = deltas
        # Dirty-frontier index: transitions whose preset touches a place
        # whose token count changes when t fires (self-loop places keep
        # their count, so they never flip anyone's enabled status).
        self._affected: list[list[int]] = [
            [u for u, guard in enumerate(pre_guards) if guard & changed]
            for changed in changed_guards
        ]

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
            tokens[names[index]] = (packed >> shift) & field_mask
            packed &= ~(field_mask << shift)
        return Marking(tokens)

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

        Same contract and discovery order as :meth:`CompiledNet.explore`.

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
#: semantics: 3-bounded, 15-bounded, 255-bounded.
BOUNDED_BITS_LADDER = (2, 4, 8)


def compile_bounded_net(net: PetriNet, bits: int = 2) -> CompiledBoundedNet:
    """Bounded compiled view of a net, cached per (version, bits)."""
    version = getattr(net, "_version", None)
    cached = getattr(net, "_bounded_compiled_cache", None)
    if cached is not None and cached[0] == version and bits in cached[1]:
        return cached[1][bits]
    compiled = CompiledBoundedNet(net, bits)
    try:
        if cached is None or cached[0] != version:
            net._bounded_compiled_cache = (version, {bits: compiled})
        else:
            cached[1][bits] = compiled
    except AttributeError:
        pass  # net-like object without attribute support; skip caching
    return compiled
