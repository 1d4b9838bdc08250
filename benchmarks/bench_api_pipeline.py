"""Staged-pipeline caching: Fig. 13 level sweep, cached vs. recomputed.

The seed exposed one-shot ``synthesize(stg, options)`` as the public entry
point, so an M1..M5 sweep through the public API re-ran the analysis
front-end (concurrency, consistency, approximation, SM-cover, refinement,
CSC) once per level; the experiment scripts had to re-wire the reuse by
hand.  The seed-style sweep is replayed here with one fresh pipeline per
(benchmark, level), which is the work that one-shot call did.  The unified
:class:`repro.api.Pipeline` memoises the ``analyze`` / ``refine`` artifacts
on the spec hash, so the same sweep pays for the front-end once per
benchmark.  This bench measures both flavours over the
classic suite and records the speedup in the PR2 perf record.
"""

from __future__ import annotations

import time

from repro.api import Pipeline, Spec, SynthesisOptions
from repro.benchmarks.classic import classic_names, load_classic

LEVELS = (1, 2, 3, 4, 5)


def _sweep_per_level_recomputation(names: list[str]) -> int:
    """Seed-style sweep: one fresh pipeline per (benchmark, level)."""
    total_literals = 0
    for name in names:
        stg = load_classic(name)
        for level in LEVELS:
            artifact = Pipeline().synthesize(
                stg, SynthesisOptions(level=level, assume_csc=True)
            )
            total_literals += artifact.circuit.literal_count()
    return total_literals


def _sweep_cached_pipeline(names: list[str]) -> tuple[int, Pipeline]:
    """Unified-API sweep: one pipeline, front-end computed once per benchmark."""
    pipeline = Pipeline()
    total_literals = 0
    for name in names:
        spec = Spec.from_benchmark(name)
        for level in LEVELS:
            artifact = pipeline.synthesize(
                spec, SynthesisOptions(level=level, assume_csc=True)
            )
            total_literals += artifact.literals
    return total_literals, pipeline


def test_fig13_sweep_cached_pipeline(benchmark, perf_record, print_table):
    """Cached-pipeline M1..M5 sweep vs. seed per-level recomputation."""
    names = classic_names(synthesizable_only=True)

    start = time.perf_counter()
    legacy_literals = _sweep_per_level_recomputation(names)
    per_level_seconds = time.perf_counter() - start

    (cached_literals, pipeline) = benchmark.pedantic(
        _sweep_cached_pipeline, args=(names,), iterations=1, rounds=1
    )
    start = time.perf_counter()
    _sweep_cached_pipeline(names)
    cached_seconds = time.perf_counter() - start

    # identical circuits, one analysis per benchmark instead of one per level
    assert cached_literals == legacy_literals
    assert pipeline.stage_calls["analyze"] == len(names)
    assert pipeline.stage_calls["synthesize"] == len(LEVELS) * len(names)

    speedup = per_level_seconds / cached_seconds if cached_seconds > 0 else None
    rows = [
        {
            "sweep": "per-level recomputation (seed API)",
            "seconds": round(per_level_seconds, 3),
            "front_end_runs": len(LEVELS) * len(names),
        },
        {
            "sweep": "cached pipeline (repro.api)",
            "seconds": round(cached_seconds, 3),
            "front_end_runs": len(names),
        },
    ]
    print_table(rows, title="Fig. 13 sweep — analysis front-end reuse")
    perf_record["results"]["fig13_pipeline"] = {
        "benchmarks": len(names),
        "levels": len(LEVELS),
        "per_level_recomputation_s": round(per_level_seconds, 4),
        "cached_pipeline_s": round(cached_seconds, 4),
        "speedup": round(speedup, 2) if speedup else None,
        "total_literals": cached_literals,
    }
