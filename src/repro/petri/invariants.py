"""Place invariants (P-semiflows) of a Petri net.

SM-components of live and safe free-choice nets correspond to minimal place
semiflows with 0/1 coefficients whose induced subnet is a strongly connected
state machine (Hack's theorem, referenced in Section II-B).  This module
computes minimal semiflows with the classic Farkas / Fourier–Motzkin
elimination on the incidence matrix, which the SM-cover computation then
filters.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd
from typing import Optional

from repro.petri.net import PetriNet


def incidence_matrix(net: PetriNet) -> tuple[list[str], list[str], list[list[int]]]:
    """The incidence matrix C (places x transitions) of the net.

    ``C[p][t] = F(t, p) - F(p, t)`` for the arc-weight-1 nets used here.
    """
    places = net.places
    transitions = net.transitions
    place_index = {p: i for i, p in enumerate(places)}
    matrix = [[0] * len(transitions) for _ in places]
    for j, transition in enumerate(transitions):
        for place in net.preset(transition):
            matrix[place_index[place]][j] -= 1
        for place in net.postset(transition):
            matrix[place_index[place]][j] += 1
    return places, transitions, matrix


def _normalize(vector: Sequence[int]) -> tuple[int, ...]:
    divisor = 0
    for value in vector:
        divisor = gcd(divisor, value)
    if divisor in (0, 1):
        return tuple(vector)
    return tuple(value // divisor for value in vector)


def place_invariants(
    net: PetriNet,
    max_rows: Optional[int] = 200_000,
) -> list[dict[str, int]]:
    """All minimal-support non-negative place invariants (P-semiflows).

    Implements the Farkas algorithm: starting from ``[C | I]``, transitions
    (columns of C) are eliminated one at a time by combining rows with
    positive and negative entries; rows with non-minimal support are pruned
    after every elimination step.

    Parameters
    ----------
    max_rows:
        Safety bound on the intermediate row count (raises ``RuntimeError``
        when exceeded), protecting the scalable benchmarks from pathological
        blow-up.

    The result is memoised on the net keyed by its structural ``_version``
    (and the ``max_rows`` bound), so the repeated refinement queries of the
    SM-cover search (:func:`repro.petri.smcover.find_sm_component_containing`
    callers re-enter here once per uncovered place) reuse one Farkas fixed
    point.  Callers receive fresh dicts; the cached rows are never exposed.
    """
    version = getattr(net, "_version", None)
    cache_key = (version, max_rows)
    cached = getattr(net, "_invariants_cache", None)
    if cached is not None and cached[0] == cache_key:
        return [dict(invariant) for invariant in cached[1]]
    invariants = _compute_place_invariants(net, max_rows)
    try:
        net._invariants_cache = (cache_key, invariants)
    except AttributeError:
        pass  # net-like object without attribute support; skip caching
    return [dict(invariant) for invariant in invariants]


def _compute_place_invariants(
    net: PetriNet,
    max_rows: Optional[int],
) -> list[dict[str, int]]:
    """Uncached Farkas elimination (see :func:`place_invariants`)."""
    places, transitions, matrix = incidence_matrix(net)
    num_places = len(places)
    num_transitions = len(transitions)
    # Rows: [C_row | identity_row | support mask of the identity part].
    # Rows are only ever combined with positive factors and the invariant
    # parts are non-negative, so supports never cancel: the support mask of a
    # combination is the union of the parents' masks and can be carried
    # incrementally instead of being recomputed from the vectors.
    rows: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []
    for i in range(num_places):
        identity = tuple(1 if j == i else 0 for j in range(num_places))
        rows.append((tuple(matrix[i]), identity, 1 << i))

    for column in range(num_transitions):
        positive = [row for row in rows if row[0][column] > 0]
        negative = [row for row in rows if row[0][column] < 0]
        base: list[tuple[tuple[int, ...], tuple[int, ...], int]] = [
            row for row in rows if row[0][column] == 0
        ]
        fresh: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []
        for c_pos, inv_pos, mask_pos in positive:
            for c_neg, inv_neg, mask_neg in negative:
                factor_pos = -c_neg[column]
                factor_neg = c_pos[column]
                new_c = tuple(
                    factor_pos * a + factor_neg * b for a, b in zip(c_pos, c_neg)
                )
                new_inv = tuple(
                    factor_pos * a + factor_neg * b for a, b in zip(inv_pos, inv_neg)
                )
                merged = _normalize(new_c + new_inv)
                fresh.append(
                    (merged[:num_transitions], merged[num_transitions:], mask_pos | mask_neg)
                )
        # prune rows with non-minimal support (on the invariant part)
        combined = _prune_combined(base, fresh)
        if max_rows is not None and len(combined) > max_rows:
            raise RuntimeError(
                f"Farkas elimination exceeded {max_rows} intermediate rows"
            )
        rows = combined

    invariants: list[dict[str, int]] = []
    seen: set[tuple[int, ...]] = set()
    for c_part, inv_part, _ in rows:
        if any(value != 0 for value in c_part):
            continue
        if all(value == 0 for value in inv_part):
            continue
        normalized = _normalize(inv_part)
        if normalized in seen:
            continue
        seen.add(normalized)
        invariants.append(
            {places[i]: value for i, value in enumerate(normalized) if value}
        )
    return invariants


def _prune_combined(
    base: list[tuple[tuple[int, ...], tuple[int, ...], int]],
    fresh: list[tuple[tuple[int, ...], tuple[int, ...], int]],
) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Remove rows whose invariant support strictly contains another row's.

    ``base`` rows are the output of the previous elimination step, so they
    are already mutually support-minimal and support-distinct: a base row can
    only be dominated by a *fresh* row, and a fresh row by any row.  This
    cuts the pruning cost from quadratic in ``|base| + |fresh|`` to
    ``O(|base|·|fresh| + |fresh|²)`` bitmask comparisons.
    """
    if not fresh:
        return base
    fresh_masks = [mask for _, _, mask in fresh]
    kept: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []
    base_masks: list[int] = []
    for row in base:
        support = row[2]
        dominated = False
        for other in fresh_masks:
            # other is a (strict) subset of support
            if not other & ~support and other != support:
                dominated = True
                break
        if not dominated:
            kept.append(row)
            base_masks.append(support)
    for index, row in enumerate(fresh):
        support = fresh_masks[index]
        dominated = False
        for other in base_masks:
            if not other & ~support:  # subset or equal: base wins dedupe
                dominated = True
                break
        if not dominated:
            for j, other in enumerate(fresh_masks):
                if j == index:
                    continue
                if not other & ~support and (other != support or j < index):
                    dominated = True
                    break
        if not dominated:
            kept.append(row)
    return kept


def minimal_place_invariants(net: PetriNet) -> list[frozenset[str]]:
    """Supports of the minimal P-semiflows."""
    return [frozenset(inv) for inv in place_invariants(net)]


def token_count_of_invariant(net: PetriNet, invariant: dict[str, int]) -> int:
    """Weighted token count of the initial marking over an invariant.

    This count is preserved by every firing; for a one-token SM-component it
    equals 1.
    """
    marking = net.initial_marking
    return sum(weight * marking[place] for place, weight in invariant.items())
