"""Packed two-level minimizer vs. its object-level reference.

``repro.boolean.minimize`` expands cubes against bit-parallel off-set
columns (one big-int AND per literal probe) instead of allocating a
``Cube`` per probe and scanning the off-set cube by cube; the object-level
loops are kept as ``_reference_minimize``.  This bench records every
``minimize_cover`` call the state-based flow makes on four specs — the
code-derived on/off/dc-sets the baseline of Table VI minimizes — and
replays them through both implementations on the same machine, in
alternating rounds so that a drift of the machine's speed hits both
sides alike.  Every replayed call must return exactly the reference's cube
list.

The rows land in the perf record under ``minimize``.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

import repro.statebased.synthesis as statebased_synthesis
from repro.api import Spec
from repro.boolean.cover import Cover
from repro.boolean.minimize import _reference_minimize, minimize_cover
from repro.statebased.regions import state_space

#: the state-based workload's heaviest minimizer inputs
CASES = ("glatch_8", "philosophers_5", "independent_cells_5", "muller_pipeline_8")
#: alternating packed/reference rounds per case
ROUNDS = 3


def _recorded_calls(monkeypatch, name: str) -> list[tuple]:
    """Every ``(on, off, dc)`` triple the state-based flow minimizes for ``name``."""
    calls: list[tuple] = []

    def recording(on_set, off_set, dc_set=None):
        # the flow hands its off- and dc-sets over as packed pairs; both
        # sides replay them as Covers
        variables = on_set.variables
        calls.append(
            (on_set, Cover.from_pairs(off_set, variables), Cover.from_pairs(dc_set, variables))
        )
        return minimize_cover(on_set, off_set, dc_set)

    with monkeypatch.context() as patch:
        patch.setattr(statebased_synthesis, "minimize_cover", recording)
        stg = Spec.from_benchmark(name).stg
        statebased_synthesis.synthesize_state_based(stg, state_space(stg))
    return calls


def _cube_lists(minimizer, calls) -> list[list]:
    return [
        [list(cube.literals.items()) for cube in minimizer(*call)] for call in calls
    ]


def _replay_seconds(minimizer, calls) -> float:
    start = time.perf_counter()
    for call in calls:
        minimizer(*call)
    return time.perf_counter() - start


def _compare(monkeypatch, names, rounds: int) -> list[dict]:
    rows = []
    for name in names:
        calls = _recorded_calls(monkeypatch, name)
        assert _cube_lists(minimize_cover, calls) == _cube_lists(_reference_minimize, calls), name
        packed, reference = [], []
        for _ in range(rounds):
            packed.append(_replay_seconds(minimize_cover, calls))
            reference.append(_replay_seconds(_reference_minimize, calls))
        packed_s = statistics.median(packed)
        reference_s = statistics.median(reference)
        rows.append(
            {
                "benchmark": name,
                "calls": len(calls),
                "packed_ms": round(packed_s * 1000, 2),
                "reference_ms": round(reference_s * 1000, 2),
                "speedup": round(reference_s / packed_s, 1),
            }
        )
    return rows


def test_minimize_packed_vs_reference(benchmark, print_table, perf_record, monkeypatch):
    """Same-machine packed vs. reference replay of the recorded calls."""
    rows = benchmark.pedantic(
        lambda: _compare(monkeypatch, CASES, ROUNDS), iterations=1, rounds=1
    )
    print_table(rows, title="Two-level minimizer — packed vs _reference_minimize")
    packed_ms = sum(row["packed_ms"] for row in rows)
    reference_ms = sum(row["reference_ms"] for row in rows)
    perf_record["results"]["minimize"] = {
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
    assert reference_ms / packed_ms >= 2, (
        f"packed minimizer only {reference_ms / packed_ms:.1f}x faster than "
        f"the reference ({packed_ms:.1f} ms vs {reference_ms:.1f} ms)"
    )


def test_minimize_smoke(benchmark, monkeypatch):
    """Fast regression guard run by CI (``-k smoke``): the recorded calls of
    one small spec replay identically through both minimizers."""
    benchmark.pedantic(
        lambda: _compare(monkeypatch, ("glatch_3",), 1), iterations=1, rounds=1
    )
