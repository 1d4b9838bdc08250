"""Place invariants (P-semiflows) of a Petri net.

SM-components of live and safe free-choice nets correspond to minimal place
semiflows with 0/1 coefficients whose induced subnet is a strongly connected
state machine (Hack's theorem, referenced in Section II-B).  This module
computes minimal semiflows with the classic Farkas / Fourier–Motzkin
elimination on the incidence matrix, which the SM-cover computation then
filters.

Elimination starts from ``[C | I]`` and removes one column (transition) of
``C`` at a time.  The rows with a zero in the column (the *base*) stay; every
pair of a positive and a negative row is combined into a *candidate* that
cancels the column; then every row whose support (the places of its
invariant part) strictly contains another row's support is pruned, and of
equal supports the first row wins.

:func:`_compute_place_invariants` keeps the rows sparse — the C-part as
``{column: coeff}``, the invariant part as ``{place: coeff}``, plus the
support as a bitmask — under row ids that only grow, so id order is row
order.  Three inverted indices are kept up to date as rows come and go:
column → rows with a nonzero entry there, place → rows holding it, and
place → rows whose support's lowest bit it is.  A column then touches only
its positive and negative rows:

1. walk the ``positive x negative`` pairs in row order and keep the first
   pair of each support union ``U``;
2. drop ``U`` when a base row's support is a subset of it — such a row's
   lowest bit is one of ``U``'s bits, so the lowest-bit index finds it;
3. of the remaining unions, drop the strict supersets of others, scanning
   them by popcount (a strict subset has fewer bits);
4. drop every base row whose support strictly contains a kept union — the
   place index lists the candidates, through ``U``'s rarest place;
5. build and gcd-normalise the vectors of the kept unions only.

This is the generate-then-prune of :func:`_reference_compute_place_invariants`
(with :func:`_prune_combined`), row for row and in the same order, because

* base rows are mutually minimal: they survived the previous step's
  pruning, so none strictly contains another and no two are equal;
* a candidate that a base row dominates can never dominate a surviving
  row: from ``b ⊆ U ⊊ b'`` would follow ``b ⊊ b'`` for two base rows, and
  ``U`` dominates no candidate that a base row does not dominate already.
  So pruning a candidate as soon as a base row dominates it, before it is
  compared with anything, loses nothing;
* among candidates, a dominated one is dominated by a minimal one too, so
  comparing against the kept minimal unions is enough, and a base row
  strictly containing any candidate strictly contains a kept one.

``max_rows`` still bounds the number of rows after each column.
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
    """Uncached Farkas elimination (see :func:`place_invariants`).

    Sparse rows with incremental inverted indices; the module docstring
    argues why the result equals :func:`_reference_compute_place_invariants`.
    """
    places = net.places
    transitions = net.transitions
    place_index = {p: i for i, p in enumerate(places)}
    # Row id -> C-part {column: coeff}, invariant part {place index: coeff}
    # and the support mask of the invariant part.  Ids only ever grow, so id
    # order is the row order of the dense elimination.
    c_parts: dict[int, dict[int, int]] = {i: {} for i in range(len(places))}
    inv_parts: dict[int, dict[int, int]] = {i: {i: 1} for i in range(len(places))}
    masks: dict[int, int] = {i: 1 << i for i in range(len(places))}
    for column, transition in enumerate(transitions):
        for place in net.preset(transition):
            row = c_parts[place_index[place]]
            row[column] = row.get(column, 0) - 1
        for place in net.postset(transition):
            row = c_parts[place_index[place]]
            row[column] = row.get(column, 0) + 1
    for row in c_parts.values():
        for column in [column for column, value in row.items() if not value]:
            del row[column]  # a self-loop cancels
    # Inverted indices over the live rows: column -> rows with a nonzero
    # entry there, place -> rows whose support holds it, and place -> rows
    # whose support's lowest bit it is.
    by_column: list[set[int]] = [set() for _ in transitions]
    by_place: list[set[int]] = [{i} for i in range(len(places))]
    by_low_bit: list[set[int]] = [{i} for i in range(len(places))]
    for row_id, row in c_parts.items():
        for column in row:
            by_column[column].add(row_id)

    def unindex(row_id: int) -> None:
        for column in c_parts[row_id]:
            by_column[column].discard(row_id)
        mask = masks[row_id]
        by_low_bit[(mask & -mask).bit_length() - 1].discard(row_id)
        while mask:
            low = mask & -mask
            by_place[low.bit_length() - 1].discard(row_id)
            mask ^= low

    def dominated_by_base(union: int) -> bool:
        # a base row inside ``union`` has its lowest bit among union's bits
        bits = union
        while bits:
            low = bits & -bits
            for row_id in by_low_bit[low.bit_length() - 1]:
                if not masks[row_id] & ~union:
                    return True
            bits ^= low
        return False

    next_id = len(places)
    for column in range(len(transitions)):
        touched = sorted(by_column[column])
        positive = [r for r in touched if c_parts[r][column] > 0]
        negative = [r for r in touched if c_parts[r][column] < 0]
        # Every touched row leaves: only the base rows (zero in this column)
        # and the kept combinations stay in the indices.
        for row_id in touched:
            unindex(row_id)
        # The first pair to form a support union stands for it.
        pairs: dict[int, tuple[int, int]] = {}
        for pos in positive:
            mask_pos = masks[pos]
            for neg in negative:
                pairs.setdefault(mask_pos | masks[neg], (pos, neg))
        survivors = [union for union in pairs if not dominated_by_base(union)]
        minimal: list[int] = []
        for union in sorted(survivors, key=int.bit_count):
            outside = ~union
            for other in minimal:
                if not other & outside:
                    break  # unions are distinct: a strict subset is kept
            else:
                minimal.append(union)
        keep = set(minimal)
        fresh = [union for union in survivors if union in keep]
        for union in fresh:
            # base rows strictly containing a kept union: scan the rows of
            # its rarest place
            bits = union
            holders = None
            while bits:
                low = bits & -bits
                rows_here = by_place[low.bit_length() - 1]
                if holders is None or len(rows_here) < len(holders):
                    holders = rows_here
                bits ^= low
            for row_id in [r for r in holders if masks[r] & union == union]:
                unindex(row_id)
                del c_parts[row_id], inv_parts[row_id], masks[row_id]
        for union in fresh:
            pos, neg = pairs[union]
            c_pos, c_neg = c_parts[pos], c_parts[neg]
            factor_pos = -c_neg[column]
            factor_neg = c_pos[column]
            new_c = {j: factor_pos * value for j, value in c_pos.items()}
            for j, value in c_neg.items():
                new_c[j] = new_c.get(j, 0) + factor_neg * value
            new_c = {j: value for j, value in new_c.items() if value}
            new_inv = {i: factor_pos * value for i, value in inv_parts[pos].items()}
            for i, value in inv_parts[neg].items():
                new_inv[i] = new_inv.get(i, 0) + factor_neg * value
            divisor = gcd(*new_c.values(), *new_inv.values())
            if divisor > 1:
                new_c = {j: value // divisor for j, value in new_c.items()}
                new_inv = {i: value // divisor for i, value in new_inv.items()}
            row_id = next_id
            next_id += 1
            c_parts[row_id] = new_c
            inv_parts[row_id] = new_inv
            masks[row_id] = union
            for j in new_c:
                by_column[j].add(row_id)
            by_low_bit[(union & -union).bit_length() - 1].add(row_id)
            bits = union
            while bits:
                low = bits & -bits
                by_place[low.bit_length() - 1].add(row_id)
                bits ^= low
        for row_id in touched:
            del c_parts[row_id], inv_parts[row_id], masks[row_id]
        if max_rows is not None and len(masks) > max_rows:
            raise RuntimeError(
                f"Farkas elimination exceeded {max_rows} intermediate rows"
            )

    # A row nonzero in some column left when that column was eliminated, so
    # every row left is a semiflow: gcd-normalised when it was built, and
    # support-distinct from the others.
    return [
        {places[i]: inv_parts[row_id][i] for i in sorted(inv_parts[row_id])}
        for row_id in sorted(masks)
    ]


def _reference_compute_place_invariants(
    net: PetriNet,
    max_rows: Optional[int],
) -> list[dict[str, int]]:
    """Dense generate-then-prune Farkas elimination: the differential oracle.

    Every row carries the full C-part and invariant part as tuples, every
    ``positive x negative`` pair is combined and normalised, and the whole
    column's rows are then pruned by :func:`_prune_combined`.
    :func:`_compute_place_invariants` returns the same list in the same
    order (``tests/test_structural_fixed_points.py`` pins this).
    """
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
