"""Exact signal regions computed from the encoded reachability graph.

Implements the region definitions of Section II-C:

* ``ER(t)`` — excitation region: markings enabling transition ``t``;
* ``QR(t)`` — quiescent region: maximal set of markings reached from
  ``ER(t)`` after firing ``t`` without enabling any other transition of the
  same signal;
* ``RQR(t)`` — restricted quiescent region: ``QR(t)`` minus markings shared
  with other quiescent regions of the signal (used by the per-excitation-
  region architecture, equation (4));
* ``BR(t)`` — backward quiescent region (Appendix E): maximal set of
  markings that can reach ``ER(t)`` without enabling any other transition of
  the same signal;
* generalized regions ``GER`` / ``GQR`` as unions over a signal's
  transitions.

Representation: every region is a *bitset over state indices* (one int per
region, bit ``i`` set iff state ``i`` of the encoded reachability graph
belongs to the region).  Region algebra — unions for the generalized
regions, the RQR subtraction, the membership tests of the next-state
functions — is mask and/or/and-not arithmetic, and the closures that build
QR/BR walk the indexed adjacency of the graph guarded by per-signal
transition masks.  The historical set-of-:class:`Marking` accessors
(:meth:`SignalRegions.er` …) are retained as boundary shims that materialise
fresh sets on demand; the dict-based closure algorithms are retained as
``_reference_*`` oracles for the differential tests.

Each region converts to a cover of binary codes with
:meth:`SignalRegions.codes_of`, which emits packed minterm cubes straight
from the per-state code ints.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Union

from repro.boolean.cover import Cover
from repro.petri.marking import Marking
from repro.petri.reachability import build_reachability_graph
from repro.stg.encoding import (
    EncodedReachabilityGraph,
    encode_reachability_graph,
    state_indices,
)
from repro.stg.stg import STG

RegionLike = Union[int, Iterable[Marking]]


class SignalRegions:
    """All signal regions of one STG, computed state-based.

    Internally every region is one int (a bitset over state indices); use
    the ``*_bits`` accessors in hot loops and the name-based accessors at
    API boundaries.
    """

    __slots__ = (
        "stg",
        "encoded",
        "_er",
        "_qr",
        "_rqr",
        "_br",
        "_ger_cache",
        "_gqr_cache",
        "_dc_pairs",
    )

    def __init__(self, stg: STG, encoded: EncodedReachabilityGraph):
        self.stg = stg
        self.encoded = encoded
        self._er: dict[str, int] = {}
        self._qr: dict[str, int] = {}
        self._rqr: dict[str, int] = {}
        self._br: dict[str, int] = {}
        self._ger_cache: dict[tuple[str, str], int] = {}
        self._gqr_cache: dict[tuple[str, int], int] = {}
        self._dc_pairs: Optional[list[tuple[int, int]]] = None

    # ------------------------------------------------------------------ #
    # Bitset accessors (non-copying)
    # ------------------------------------------------------------------ #

    def er_bits(self, transition: str) -> int:
        """Excitation region of a transition as a state-index bitset."""
        return self._er[transition]

    def ger_bits(self, signal: str, direction: str) -> int:
        """Generalized excitation region bitset (cached union).

        Raises ``KeyError`` for signals excluded from the computation
        (mirroring the historical dict-of-sets accessors).
        """
        key = (signal, direction)
        bits = self._ger_cache.get(key)
        if bits is None:
            bits = 0
            for transition in self.stg.transitions_by_direction(signal, direction):
                bits |= self._er[transition]
            self._ger_cache[key] = bits
        return bits

    def gqr_bits(self, signal: str, value: int) -> int:
        """Generalized quiescent region bitset (cached union).

        Raises ``KeyError`` for signals excluded from the computation.
        """
        key = (signal, value)
        bits = self._gqr_cache.get(key)
        if bits is None:
            direction = "+" if value == 1 else "-"
            bits = 0
            for transition in self.stg.transitions_by_direction(signal, direction):
                bits |= self._qr[transition]
            self._gqr_cache[key] = bits
        return bits

    # ------------------------------------------------------------------ #
    # Name-based region accessors (boundary shims; fresh sets)
    # ------------------------------------------------------------------ #

    def er(self, transition: str) -> set[Marking]:
        """Excitation region of a transition."""
        return self.encoded.markings_of_bits(self._er[transition])

    def qr(self, transition: str) -> set[Marking]:
        """Quiescent region of a transition."""
        return self.encoded.markings_of_bits(self._qr[transition])

    def rqr(self, transition: str) -> set[Marking]:
        """Restricted quiescent region of a transition."""
        return self.encoded.markings_of_bits(self._rqr[transition])

    def br(self, transition: str) -> set[Marking]:
        """Backward quiescent region of a transition."""
        return self.encoded.markings_of_bits(self._br[transition])

    def ger(self, signal: str, direction: str) -> set[Marking]:
        """Generalized excitation region GER(signal direction)."""
        return self.encoded.markings_of_bits(self.ger_bits(signal, direction))

    def gqr(self, signal: str, value: int) -> set[Marking]:
        """Generalized quiescent region GQR(signal = value).

        ``value=1`` is the union of the quiescent regions of the rising
        transitions, ``value=0`` of the falling transitions.
        """
        return self.encoded.markings_of_bits(self.gqr_bits(signal, value))

    @property
    def excitation(self) -> dict[str, set[Marking]]:
        """Materialised ER map (copies; kept for API compatibility)."""
        return {t: self.er(t) for t in self._er}

    @property
    def quiescent(self) -> dict[str, set[Marking]]:
        """Materialised QR map (copies)."""
        return {t: self.qr(t) for t in self._qr}

    @property
    def backward(self) -> dict[str, set[Marking]]:
        """Materialised BR map (copies)."""
        return {t: self.br(t) for t in self._br}

    # ------------------------------------------------------------------ #
    # Binary-code conversions
    # ------------------------------------------------------------------ #

    def codes_of(self, markings: RegionLike) -> Cover:
        """Characteristic cover of a region (bitset or marking collection)."""
        if isinstance(markings, int):
            bits = markings
        else:
            bits = self.encoded.bits_of(markings)
        return self.encoded.cover_of_bits(bits)

    def er_codes(self, transition: str) -> Cover:
        """Binary codes of ER(t)."""
        return self.encoded.cover_of_bits(self._er[transition])

    def ger_codes(self, signal: str, direction: str) -> Cover:
        """Binary codes of GER(signal direction)."""
        return self.encoded.cover_of_bits(self.ger_bits(signal, direction))

    def gqr_codes(self, signal: str, value: int) -> Cover:
        """Binary codes of GQR(signal = value)."""
        return self.encoded.cover_of_bits(self.gqr_bits(signal, value))

    def code_set(self, bits: int) -> set[int]:
        """Distinct packed codes of a state-index bitset."""
        return self.encoded.code_set_of_bits(bits)

    def dc_pairs(self) -> list[tuple[int, int]]:
        """Binary codes NOT used by any reachable marking (the RG dc-set),
        as disjoint ``(care, value)`` pairs, computed once (do not mutate).

        The direct orthogonal complement of the used code set — the same
        minterm semantics as ``universe.sharp(used_codes)`` at a fraction of
        the cost.  It is the same for every signal, so the memoised state
        space computes it once.
        """
        if self._dc_pairs is None:
            encoded = self.encoded
            self._dc_pairs = encoded.space_pairs(encoded.split_keys(), complement=True)
        return self._dc_pairs

    def dc_codes(self) -> Cover:
        """:meth:`dc_pairs` as a cover over the signal universe."""
        return Cover.from_pairs(self.dc_pairs(), tuple(self.stg.signal_names))


def compute_signal_regions(
    stg: STG,
    encoded: Optional[EncodedReachabilityGraph] = None,
    signals: Optional[list[str]] = None,
    compute_backward: bool = True,
) -> SignalRegions:
    """Compute all signal regions of an STG from its reachability graph.

    Works entirely in index space: excitation regions fall out of the
    per-state enabled masks, QR/BR are bitset closures over the indexed
    adjacency, and RQR is a mask subtraction.
    """
    if encoded is None:
        encoded = encode_reachability_graph(stg)
    indexed = encoded.indexed()
    regions = SignalRegions(stg, encoded)
    selected_signals = set(signals) if signals is not None else set(stg.signal_names)

    tindex = indexed.transition_index
    enabled = indexed.enabled
    succ = indexed.succ
    pred = indexed.pred

    signal_tmask = indexed.signal_transition_masks(stg)

    # ER(t) for every transition of the selected signals, in one sweep over
    # the enabled masks.
    selected_tbits = 0
    for signal in selected_signals:
        selected_tbits |= signal_tmask.get(signal, 0)
    er_by_index: dict[int, int] = {}
    for i, mask in enumerate(enabled):
        mask &= selected_tbits
        state_bit = 1 << i
        while mask:
            low = mask & -mask
            mask ^= low
            t = low.bit_length() - 1
            er_by_index[t] = er_by_index.get(t, 0) | state_bit

    # Post-firing start states per transition (edge targets).
    targets_by_index: dict[int, list[int]] = {}
    for _, t, target in indexed.edges:
        if selected_tbits >> t & 1:
            targets_by_index.setdefault(t, []).append(target)

    for transition in stg.transitions:
        signal = stg.signal_of(transition)
        if signal not in selected_signals:
            continue
        t = tindex.get(transition)
        if t is None:
            regions._er[transition] = 0
            regions._qr[transition] = 0
            regions._br[transition] = 0
            continue
        sig_mask = signal_tmask[signal]
        regions._er[transition] = er_by_index.get(t, 0)

        # QR(t): forward closure from the post-firing states, stopping at
        # states that enable another transition of the signal.
        region = 0
        stack: list[int] = []
        for start in targets_by_index.get(t, ()):
            if enabled[start] & sig_mask:
                continue
            bit = 1 << start
            if not region & bit:
                region |= bit
                stack.append(start)
        while stack:
            current = stack.pop()
            for _, target in succ[current]:
                bit = 1 << target
                if region & bit:
                    continue
                if enabled[target] & sig_mask:
                    continue
                region |= bit
                stack.append(target)
        regions._qr[transition] = region

        # BR(t): backward closure from ER(t), stopping at states that enable
        # another transition of the signal (Appendix E).
        if compute_backward:
            other_mask = sig_mask & ~(1 << t)
            excitation = regions._er[transition]
            seen = excitation
            region = 0
            stack = list(state_indices(excitation))
            while stack:
                current = stack.pop()
                for _, source in pred[current]:
                    bit = 1 << source
                    if seen & bit:
                        continue
                    source_enabled = enabled[source]
                    if source_enabled & other_mask:
                        continue
                    seen |= bit
                    stack.append(source)
                    if not source_enabled >> t & 1:
                        region |= bit
            regions._br[transition] = region
        else:
            regions._br[transition] = 0

    # Restricted quiescent regions: remove states shared with other QRs of
    # the same signal.
    for transition, quiescent in regions._qr.items():
        signal = stg.signal_of(transition)
        others = 0
        for other in stg.transitions_of_signal(signal):
            if other != transition and other in regions._qr:
                others |= regions._qr[other]
        regions._rqr[transition] = quiescent & ~others
    return regions


def state_space(stg: STG, max_markings: Optional[int] = None) -> SignalRegions:
    """The state-based front-end: reachability graph, encoding and regions.

    Enumerates the reachable markings (``StateSpaceLimitExceeded`` beyond
    ``max_markings``), encodes them strictly from the inferred initial
    values (``EncodingError`` on a switchover violation) and computes the
    regions of every signal (a caller may synthesize any subset, inputs
    included).  Backward regions are skipped: no state-based consumer reads
    them.  Every state-based consumer — both state-based synthesis backends
    and both verifiers — reads this one result; the pipeline memoises it as
    its ``states`` stage.
    """
    graph = build_reachability_graph(stg.net, max_markings=max_markings)
    encoded = encode_reachability_graph(stg, graph)
    return compute_signal_regions(stg, encoded, compute_backward=False)


# ---------------------------------------------------------------------- #
# Dict/set-based reference implementations (differential-test oracles)
# ---------------------------------------------------------------------- #


def _reference_quiescent_region(
    stg: STG,
    encoded: EncodedReachabilityGraph,
    transition: str,
) -> set[Marking]:
    """Forward closure from the post-firing markings of a transition,
    stopping at markings that enable another transition of the signal."""
    graph = encoded.graph
    signal_transitions = set(stg.transitions_of_signal(stg.signal_of(transition)))
    start_markings: list[Marking] = []
    for marking in graph.markings_enabling(transition):
        for label, target in graph.successors(marking):
            if label == transition:
                start_markings.append(target)
    region: set[Marking] = set()
    frontier: deque[Marking] = deque()
    for marking in start_markings:
        enabled = graph.enabled_transitions(marking)
        if enabled & signal_transitions:
            continue
        if marking not in region:
            region.add(marking)
            frontier.append(marking)
    while frontier:
        current = frontier.popleft()
        for label, target in graph.successors(current):
            if target in region:
                continue
            enabled = graph.enabled_transitions(target)
            if enabled & signal_transitions:
                continue
            region.add(target)
            frontier.append(target)
    return region


def _reference_backward_region(
    stg: STG,
    encoded: EncodedReachabilityGraph,
    transition: str,
) -> set[Marking]:
    """Backward closure from ER(t), stopping at markings that enable another
    transition of the signal (Appendix E)."""
    graph = encoded.graph
    signal_transitions = set(stg.transitions_of_signal(stg.signal_of(transition)))
    other_transitions = signal_transitions - {transition}
    excitation = set(graph.markings_enabling(transition))
    region: set[Marking] = set()
    frontier: deque[Marking] = deque(excitation)
    seen: set[Marking] = set(excitation)
    while frontier:
        current = frontier.popleft()
        for label, source in graph.predecessors(current):
            if source in seen:
                continue
            enabled = graph.enabled_transitions(source)
            if enabled & other_transitions:
                continue
            if transition in enabled:
                # still inside the excitation region; keep walking backwards
                seen.add(source)
                frontier.append(source)
                continue
            seen.add(source)
            region.add(source)
            frontier.append(source)
    return region


def _reference_signal_region_sets(
    stg: STG,
    encoded: EncodedReachabilityGraph,
    signals: Optional[list[str]] = None,
    compute_backward: bool = True,
) -> dict[str, dict[str, set[Marking]]]:
    """Reference region computation as plain dicts of marking sets."""
    graph = encoded.graph
    selected = set(signals) if signals is not None else set(stg.signal_names)
    er: dict[str, set[Marking]] = {}
    qr: dict[str, set[Marking]] = {}
    br: dict[str, set[Marking]] = {}
    for transition in stg.transitions:
        if stg.signal_of(transition) not in selected:
            continue
        er[transition] = set(graph.markings_enabling(transition))
        qr[transition] = _reference_quiescent_region(stg, encoded, transition)
        br[transition] = (
            _reference_backward_region(stg, encoded, transition)
            if compute_backward
            else set()
        )
    rqr: dict[str, set[Marking]] = {}
    for transition in list(qr):
        signal = stg.signal_of(transition)
        others: set[Marking] = set()
        for other in stg.transitions_of_signal(signal):
            if other == transition or other not in qr:
                continue
            others |= qr[other]
        rqr[transition] = qr[transition] - others
    return {"er": er, "qr": qr, "rqr": rqr, "br": br}
