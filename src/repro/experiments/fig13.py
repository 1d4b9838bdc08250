"""Fig. 13 — average area improvement across the minimization levels.

The paper plots, for two benchmark sets, the average area of the circuits as
the minimization steps M1 (per-excitation-region covers) through M5 (backward
expansion) and finally technology mapping (TM) are enabled.  The reproduction
sweeps the same levels through one cached :class:`repro.api.Pipeline`: the
``analyze``/``refine`` front-end is computed once per benchmark and reused by
every level (the sweep only re-runs the ``synthesize`` stage), then reports
average literal counts and mapped areas (normalized to the M1 point, as the
paper normalizes to the initial semi-optimized circuit).
"""

from __future__ import annotations

from typing import Optional

from repro.api.pipeline import Pipeline
from repro.api.spec import Spec
from repro.benchmarks.classic import classic_names
from repro.synthesis import SynthesisOptions

#: The minimization points of Fig. 13 (technology mapping is applied on top
#: of the strongest level).
LEVELS: tuple[str, ...] = ("M1", "M2", "M3", "M4", "M5", "TM")


def fig13_per_benchmark(
    names: Optional[list[str]] = None,
    pipeline: Optional[Pipeline] = None,
) -> dict[str, dict[str, dict]]:
    """Literals and area per benchmark and level, via the cached pipeline.

    Returns ``{benchmark: {level: {"literals": int, "area": int}}}``; the
    test-suite uses the per-benchmark breakdown to pin the monotonicity of
    the level sweep.
    """
    if names is None:
        names = classic_names(synthesizable_only=True)
    if pipeline is None:
        pipeline = Pipeline()
    results: dict[str, dict[str, dict]] = {}
    for name in names:
        spec = Spec.from_benchmark(name)
        per_level: dict[str, dict] = {}
        for index, level in enumerate(LEVELS, start=1):
            numeric_level = min(index, 5)
            options = SynthesisOptions(level=numeric_level, assume_csc=True)
            synthesis = pipeline.synthesize(spec, options)
            if level == "TM":
                area = pipeline.map(spec, options).total_area
            else:
                area = synthesis.transistors
            per_level[level] = {"literals": synthesis.literals, "area": area}
        results[name] = per_level
    return results


def fig13_rows(names: Optional[list[str]] = None) -> list[dict]:
    """Average area per minimization level over the benchmark set."""
    per_benchmark = fig13_per_benchmark(names)
    rows: list[dict] = []
    baseline = None
    for level in LEVELS:
        literals = [cells[level]["literals"] for cells in per_benchmark.values()]
        areas = [cells[level]["area"] for cells in per_benchmark.values()]
        avg_literals = sum(literals) / len(literals)
        avg_area = sum(areas) / len(areas)
        if baseline is None:
            baseline = avg_area
        rows.append(
            {
                "level": level,
                "avg_literals": round(avg_literals, 2),
                "avg_area": round(avg_area, 2),
                "normalized_area": round(avg_area / baseline, 3) if baseline else 1.0,
                "benchmarks": len(literals),
            }
        )
    return rows
