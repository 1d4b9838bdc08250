"""Packed region-cover algebra vs. the object-level reference operations.

The structural flow derives every set/reset function from region covers:
QR(t) is the union of the QPS places' covers minus the successor ERs, and
the generalized regions are unions over the transitions of a signal.
``repro.boolean.cover`` runs those unions (one k-way ``Cover.union_all``
scan) and sharps on packed ``(care, value)`` ints and allocates cubes only
for the result; the object-level loops are kept as the ``_reference_*``
oracles.  This bench builds the QR (plain and restricted), BR and GQR covers
of three specs with both implementations on the same machine, in
alternating rounds so that a drift of the machine's speed hits both sides
alike.  Every cover must be exactly the reference's cube list.

The rows land in the perf record under ``region_covers``.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

from repro.api import Pipeline
from repro.boolean.cover import (
    Cover,
    _reference_intersect_cube,
    _reference_intersection,
    _reference_sharp_cube,
    _reference_union,
)

#: the tail spec of structural_scalable, the widest independent cells, and
#: a gated-latch chain
CASES = ("muller_pipeline_32", "independent_cells_45", "glatch_8")
#: alternating packed/reference rounds per case
ROUNDS = 3


def _reference_sharp(cover, other):
    result = cover
    for cube in other:
        result = _reference_sharp_cube(result, cube)
        if result.is_empty():
            break
    return result


def _reference_union_all(cls, covers, variables=()):
    result = cls.empty(variables)
    for cover in covers:
        result = _reference_union(result, cover)
    return result


def _reference_ops(patch) -> None:
    """Patch ``Cover`` onto the object-level reference operations."""
    patch.setattr(Cover, "union", _reference_union)
    patch.setattr(Cover, "union_all", classmethod(_reference_union_all))
    patch.setattr(Cover, "intersection", _reference_intersection)
    patch.setattr(Cover, "intersect_cube", _reference_intersect_cube)
    patch.setattr(Cover, "sharp_cube", _reference_sharp_cube)
    patch.setattr(Cover, "sharp", _reference_sharp)


def _region_covers(approximation) -> list[list]:
    """Every QR/BR/GQR cover of the approximation, built from scratch."""
    approximation.__dict__.pop("_region_cache", None)
    stg = approximation.stg
    covers = []
    for transition in stg.transitions:
        if stg.label(transition).direction not in "+-":
            continue
        covers.append(approximation.qr_cover(transition))
        covers.append(approximation.qr_cover(transition, restricted=True))
        covers.append(approximation.br_cover(transition))
    for signal in stg.non_input_signals:
        for value in (0, 1):
            covers.append(approximation.gqr_cover(signal, value))
            covers.append(approximation.gqr_cover(signal, value, restricted=True))
    return [[list(cube.literals.items()) for cube in cover] for cover in covers]


def _timed(approximation) -> tuple[float, list[list]]:
    start = time.perf_counter()
    covers = _region_covers(approximation)
    return time.perf_counter() - start, covers


def _compare(monkeypatch, names, rounds: int) -> list[dict]:
    rows = []
    for name in names:
        refinement = Pipeline().refine(name)
        approximation = refinement.approximation
        packed, reference = [], []
        for _ in range(rounds):
            seconds, packed_covers = _timed(approximation)
            packed.append(seconds)
            with monkeypatch.context() as patch:
                _reference_ops(patch)
                seconds, reference_covers = _timed(approximation)
            reference.append(seconds)
            assert packed_covers == reference_covers, name
        approximation.__dict__.pop("_region_cache", None)
        packed_s = statistics.median(packed)
        reference_s = statistics.median(reference)
        rows.append(
            {
                "benchmark": name,
                "covers": len(packed_covers),
                "cubes": sum(len(cover) for cover in packed_covers),
                "packed_ms": round(packed_s * 1000, 2),
                "reference_ms": round(reference_s * 1000, 2),
                "speedup": round(reference_s / packed_s, 1),
            }
        )
    return rows


def test_region_covers_packed_vs_reference(benchmark, print_table, perf_record, monkeypatch):
    """Same-machine packed vs. reference construction of the region covers."""
    rows = benchmark.pedantic(
        lambda: _compare(monkeypatch, CASES, ROUNDS), iterations=1, rounds=1
    )
    print_table(rows, title="Region covers (QR/BR/GQR) — packed vs _reference_* ops")
    packed_ms = sum(row["packed_ms"] for row in rows)
    reference_ms = sum(row["reference_ms"] for row in rows)
    perf_record["results"]["region_covers"] = {
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "rounds": ROUNDS,
        "cases": rows,
        "packed_ms": round(packed_ms, 2),
        "reference_ms": round(reference_ms, 2),
        "speedup": round(reference_ms / packed_ms, 1),
        "identical_covers": True,
    }
    assert reference_ms / packed_ms >= 1.5, (
        f"packed region covers only {reference_ms / packed_ms:.1f}x faster than "
        f"the reference ({packed_ms:.1f} ms vs {reference_ms:.1f} ms)"
    )


def test_region_covers_smoke(benchmark, monkeypatch):
    """Fast regression guard run by CI (``-k smoke``): one small spec's
    region covers are identical through both implementations."""
    benchmark.pedantic(
        lambda: _compare(monkeypatch, ("glatch_3",), 1), iterations=1, rounds=1
    )
