"""Structural approximation of signal regions (Section VI).

The approximation of each signal region consists of a *domain* (places and
transitions of the STG) and a *cover function* per node.  Excitation regions
are approximated by the intersection of the cover functions of the input
places of the transition; quiescent regions by the union of the cover
functions of the places in the quiescent place set, where boundary places
(input places of the successor transitions) have the successor excitation
covers subtracted to avoid overestimating the quiescent region.

The overall generation follows the four steps listed at the start of
Section VII:

1. compute the domains and the initial (single-cube) cover functions of the
   places;
2. refine the cover functions when structural coding conflicts exist
   (delegated to :mod:`repro.structural.refinement`);
3. build the cover functions of the transitions (excitation regions);
4. recompute the cover functions of the boundary places of every quiescent
   region by subtracting the successor excitation covers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.boolean.cover import Cover, _merged_universe, _remove_contained_packed
from repro.boolean.cube import Cube
from repro.boolean.interning import _VAR_INDEX
from repro.stg.stg import STG
from repro.structural.adjacency import structural_next_relation
from repro.structural.concurrency import ConcurrencyRelation, compute_concurrency_relation
from repro.structural.covercube import compute_cover_cubes, structural_initial_values
from repro.structural.qps import compute_backward_place_sets, compute_qps


@dataclass
class SignalRegionApproximation:
    """Cover functions approximating the signal regions of an STG."""

    stg: STG
    concurrency: ConcurrencyRelation
    cover_functions: dict[str, Cover]
    place_cubes: dict[str, Cube]
    next_relation: dict[str, set[str]]
    qps: dict[str, set[str]]
    bps: dict[str, set[str]] = field(default_factory=dict)
    initial_values: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Region-cover memoisation
    #
    # The synthesis engine asks for the same ER/QR/GER/GQR covers many times
    # per signal (per-region expansion, merged covers, monotonicity checks).
    # All of them are pure functions of the fields, so they are memoised and
    # the cache is dropped whenever a field they depend on is reassigned
    # (the engine replaces ``cover_functions`` after refinement).
    # ------------------------------------------------------------------ #

    def __setattr__(self, name: str, value) -> None:
        if name in ("cover_functions", "qps", "bps", "next_relation", "stg"):
            self.__dict__.pop("_region_cache", None)
        object.__setattr__(self, name, value)

    def _cache(self) -> dict:
        return self.__dict__.setdefault("_region_cache", {})

    # ------------------------------------------------------------------ #
    # Covers of individual regions
    # ------------------------------------------------------------------ #

    def place_cover(self, place: str) -> Cover:
        """The (possibly refined) cover function of a place's marked region."""
        return self.cover_functions[place]

    def _signal_value_cube(self, transition: str, after_firing: bool) -> Optional[Cube]:
        """Cube fixing the transition's own signal value before/after firing.

        Consistency implies that every marking of ER(a+) has ``a = 0`` and
        every marking of QR(a+) has ``a = 1``; anchoring the covers with this
        literal removes the overestimation introduced by places whose cube
        leaves the signal unconstrained.
        """
        label = self.stg.label(transition)
        if label.direction not in "+-":
            return None
        value = label.target_value if after_firing else label.source_value
        return Cube({label.signal: value})

    def er_cover(self, transition: str) -> Cover:
        """Cover of the excitation region ER(t).

        The intersection of the cover functions of the input places of the
        transition (the marked regions whose simultaneous marking enables
        it), anchored with the signal's pre-firing value.
        """
        cache = self._cache()
        key = ("er", transition)
        cached = cache.get(key)
        if cached is not None:
            return cached
        result = self._er_cover_uncached(transition)
        cache[key] = result
        return result

    def _er_cover_uncached(self, transition: str) -> Cover:
        preset = sorted(self.stg.net.preset(transition))
        if not preset:
            return Cover.universe(self.stg.signal_names)
        result = self.cover_functions[preset[0]]
        for place in preset[1:]:
            result = result.intersection(self.cover_functions[place])
        anchor = self._signal_value_cube(transition, after_firing=False)
        if anchor is not None:
            result = result.intersect_cube(anchor)
        return result.with_variables(self.stg.signal_names)

    def qr_cover(self, transition: str, restricted: bool = False) -> Cover:
        """Cover of the quiescent region QR(t) (or the restricted QR).

        The union of the cover functions of the places in QPS(t); boundary
        places (input places of a successor transition of the signal) have
        the successor's excitation cover subtracted.  With
        ``restricted=True`` the places shared with the QPS of other
        transitions of the signal are excluded (equation (4) domain).
        """
        cache = self._cache()
        key = ("qr", transition, restricted)
        cached = cache.get(key)
        if cached is not None:
            return cached
        result = self._qr_cover_uncached(transition, restricted)
        cache[key] = result
        return result

    def _qr_place_covers(self, transition: str, restricted: bool) -> list[Cover]:
        """The covers of the places of QPS(t) (in name order) whose union
        approximates QR(t), boundary places minus the successor ER covers."""
        signal = self.stg.signal_of(transition)
        places = set(self.qps.get(transition, set()))
        if restricted:
            for other in self.stg.transitions_of_signal(signal):
                if other == transition:
                    continue
                places -= self.qps.get(other, set())
        boundary: dict[str, set[str]] = {}
        for successor in self.next_relation.get(transition, set()):
            for place in self.stg.net.preset(successor):
                if place in places:
                    boundary.setdefault(place, set()).add(successor)
        covers = []
        for place in sorted(places):
            cover = self.cover_functions[place]
            for successor in boundary.get(place, ()):
                cover = cover.sharp(self.er_cover(successor))
            covers.append(cover)
        return covers

    def _qr_cover_uncached(self, transition: str, restricted: bool) -> Cover:
        covers = self._qr_place_covers(transition, restricted)
        anchor = self._signal_value_cube(transition, after_firing=True)
        if anchor is None:
            result = Cover.union_all(covers, self.stg.signal_names)
        else:
            result = _anchored_union(covers, self.stg.signal_names, anchor)
        # Quiescent-region markings never enable a successor transition of the
        # signal, so (under CSC) the codes of the successor excitation regions
        # can be removed globally — this eliminates the overestimation that
        # reaches the boundary through places of concurrent branches.
        for successor in self.next_relation.get(transition, set()):
            result = result.sharp(self.er_cover(successor))
        return result.with_variables(self.stg.signal_names)

    def _reference_qr_cover_uncached(self, transition: str, restricted: bool) -> Cover:
        """Union, then anchor: the differential oracle of the one-pass union."""
        covers = self._qr_place_covers(transition, restricted)
        result = Cover.union_all(covers, self.stg.signal_names)
        anchor = self._signal_value_cube(transition, after_firing=True)
        if anchor is not None:
            result = result.intersect_cube(anchor)
        for successor in self.next_relation.get(transition, set()):
            result = result.sharp(self.er_cover(successor))
        return result.with_variables(self.stg.signal_names)

    def br_cover(self, transition: str) -> Cover:
        """Cover of the backward quiescent region BR(t) (Appendix E)."""
        cache = self._cache()
        key = ("br", transition)
        cached = cache.get(key)
        if cached is not None:
            return cached
        result = self._br_cover_uncached(transition)
        cache[key] = result
        return result

    def _br_cover_uncached(self, transition: str) -> Cover:
        places = sorted(self.bps.get(transition, ()))
        result = Cover.union_all(
            (self.cover_functions[place] for place in places), self.stg.signal_names
        )
        # The excitation region of the transition itself is not part of BR,
        # and every marking of BR carries the signal's pre-firing value.
        result = result.sharp(self.er_cover(transition))
        anchor = self._signal_value_cube(transition, after_firing=False)
        if anchor is not None:
            result = result.intersect_cube(anchor)
        return result.with_variables(self.stg.signal_names)

    # ------------------------------------------------------------------ #
    # Generalized regions
    # ------------------------------------------------------------------ #

    def ger_cover(self, signal: str, direction: str) -> Cover:
        """Cover of the generalized excitation region GER(signal direction)."""
        cache = self._cache()
        key = ("ger", signal, direction)
        cached = cache.get(key)
        if cached is None:
            cached = Cover.union_all(
                (
                    self.er_cover(transition)
                    for transition in self.stg.transitions_by_direction(signal, direction)
                ),
                self.stg.signal_names,
            )
            cache[key] = cached
        return cached

    def gqr_cover(self, signal: str, value: int, restricted: bool = False) -> Cover:
        """Cover of the generalized quiescent region GQR(signal = value)."""
        cache = self._cache()
        key = ("gqr", signal, value, restricted)
        cached = cache.get(key)
        if cached is None:
            direction = "+" if value == 1 else "-"
            cached = Cover.union_all(
                (
                    self.qr_cover(transition, restricted=restricted)
                    for transition in self.stg.transitions_by_direction(signal, direction)
                ),
                self.stg.signal_names,
            )
            cache[key] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Sets used by the synthesis correctness checks (Section VIII-B)
    # ------------------------------------------------------------------ #

    def next_state_on_set(self, signal: str) -> Cover:
        """On-set of the next-state function: GER(signal+) ∪ GQR(signal=1)."""
        return self.ger_cover(signal, "+").union(self.gqr_cover(signal, 1))

    def next_state_off_set(self, signal: str) -> Cover:
        """Off-set of the next-state function: GER(signal-) ∪ GQR(signal=0)."""
        return self.ger_cover(signal, "-").union(self.gqr_cover(signal, 0))


def _anchored_union(covers: list[Cover], variables: list[str], anchor: Cube) -> Cover:
    """``Cover.union_all(covers, variables).intersect_cube(anchor)`` in one
    containment pass, for a one-literal ``anchor``.

    Every cube is anchored first; products disjoint from the anchor are
    dropped.  A cube contained in another stays contained once both are
    anchored, so one scan over the products keeps the same cubes, with one
    exception: a cube that carried the anchor literal and the same cube
    without it become equal.  The union keeps the one without the literal
    (it contains the other), so among equal products those that gained the
    literal are visited first.  (With more anchor literals, cubes that
    gained different ones tie too, and this order no longer decides as the
    union does.)  The kept products are put in the order the two passes
    give — fewest literals first, then input order — and a new
    :class:`Cube` is built only for a product that gained the literal.
    """
    care = anchor._care
    if care & (care - 1):
        raise ValueError(f"the anchor must be one literal, not {anchor!r}")
    start = Cover.empty(variables)
    names, mask = start._variables, start._mask
    cubes: list[Cube] = []
    for cover in covers:
        names, mask = _merged_universe(names, mask, cover)
        cubes.extend(cover._cubes)
    value = anchor._value
    gained: list[tuple[int, int, int]] = []
    carried: list[tuple[int, int, int]] = []
    for index, cube in enumerate(cubes):
        own_care = cube._care
        if (cube._value ^ value) & own_care & care:
            continue  # disjoint from the anchor
        if care & ~own_care:
            gained.append((index, own_care | care, cube._value | value))
        else:
            carried.append((index, own_care, cube._value))
    kept = _remove_contained_packed(gained + carried)
    kept.sort(key=lambda entry: (entry[1].bit_count(), entry[0]))
    literals = anchor._literals
    result = []
    for index, product_care, product_value in kept:
        cube = cubes[index]
        if product_care != cube._care:
            merged = dict(cube._literals)
            merged.update(literals)
            cube = Cube._raw(merged, product_care, product_value)
        result.append(cube)
    if kept and care & ~mask:
        # every product carries the anchor's literals: the universe grows by
        # its new variables in literal order
        names += tuple(var for var in literals if (1 << _VAR_INDEX[var]) & ~mask)
        mask |= care
    return Cover._make(result, names, mask)


def approximate_signal_regions(
    stg: STG,
    concurrency: Optional[ConcurrencyRelation] = None,
    cover_functions: Optional[dict[str, Cover]] = None,
    initial_values: Optional[dict[str, int]] = None,
    next_relation: Optional[dict[str, set[str]]] = None,
) -> SignalRegionApproximation:
    """Build the structural approximation of all signal regions of an STG.

    ``cover_functions`` may carry refined (multi-cube) covers produced by
    :func:`repro.structural.refinement.refine_cover_functions`; when omitted,
    the single-cube approximations of Lemma 10 are used.  ``next_relation``
    is the Property-4 relation of
    :func:`~repro.structural.adjacency.structural_next_relation`, computed
    here when omitted.
    """
    if concurrency is None:
        concurrency = compute_concurrency_relation(stg)
    if initial_values is None:
        initial_values = structural_initial_values(stg, concurrency)
    place_cubes = compute_cover_cubes(stg, concurrency, initial_values)
    if cover_functions is None:
        cover_functions = {
            place: Cover([cube], stg.signal_names)
            for place, cube in place_cubes.items()
        }
    if next_relation is None:
        next_relation = structural_next_relation(stg, concurrency)
    qps = compute_qps(stg, next_relation=next_relation)
    bps = compute_backward_place_sets(stg, next_relation=next_relation)
    return SignalRegionApproximation(
        stg=stg,
        concurrency=concurrency,
        cover_functions=cover_functions,
        place_cubes=place_cubes,
        next_relation=next_relation,
        qps=qps,
        bps=bps,
        initial_values=initial_values,
    )
