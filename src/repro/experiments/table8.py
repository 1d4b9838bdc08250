"""Table VIII — trade-offs among markings, STG nodes, and approximation cubes.

The paper reports, separately for STGs with fewer and with more than 10^6
markings, the total number of reachable markings, STG nodes, and cubes used
by the structural approximations, plus the cubes/node and markings/cube
ratios that justify the cube-approximation approach.  The cube counts come
from the ``analyze``/``refine`` stages of the unified pipeline; the
``gates`` column reports the size of the mapped gate-level netlist (the
``map`` stage), showing that the gate graph stays proportional to the cube
approximation rather than to the marking count.
"""

from __future__ import annotations

from repro.api.pipeline import Pipeline
from repro.api.spec import Spec
from repro.benchmarks import scalable
from repro.benchmarks.classic import classic_names
from repro.benchmarks.figures import fig1_stg, fig7_glatch_stg
from repro.petri.reachability import StateSpaceLimitExceeded, count_reachable_markings
from repro.synthesis.engine import SynthesisError, SynthesisOptions

#: marking-count threshold separating the "small" and "large" groups
LARGE_THRESHOLD = 10_000


def _benchmark_set() -> list[tuple[Spec, int | None]]:
    """(spec, closed-form markings or None) for the analyzed set."""
    items: list[tuple[Spec, int | None]] = []
    for name in classic_names(synthesizable_only=True):
        items.append((Spec.from_benchmark(name), None))
    items.append((Spec.from_stg(fig1_stg(), name="fig1"), None))
    items.append((Spec.from_stg(fig7_glatch_stg(8), name="glatch_8"), None))
    items.append(
        (Spec.from_stg(scalable.muller_pipeline(16), name="muller_pipeline_16"), None)
    )
    items.append(
        (
            Spec.from_stg(scalable.independent_cells(12), name="independent_cells_12"),
            4 ** 12,
        )
    )
    items.append(
        (
            Spec.from_stg(scalable.independent_cells(30), name="independent_cells_30"),
            4 ** 30,
        )
    )
    items.append(
        (
            Spec.from_stg(scalable.independent_cells(45), name="independent_cells_45"),
            4 ** 45,
        )
    )
    return items


def table8_rows(enumeration_limit: int = 300_000) -> list[dict]:
    """Per-benchmark counts plus the two aggregated groups of Table VIII."""
    pipeline = Pipeline()
    per_benchmark: list[dict] = []
    for spec, closed_form in _benchmark_set():
        if closed_form is not None:
            markings: int | None = closed_form
        else:
            try:
                markings = count_reachable_markings(
                    spec.stg.net, max_markings=enumeration_limit
                )
            except StateSpaceLimitExceeded:
                markings = None
        analysis = pipeline.analyze(spec)
        refinement = pipeline.refine(spec)
        nodes = analysis.places + analysis.transitions
        cubes = refinement.cubes
        try:
            mapping = pipeline.map(
                spec, SynthesisOptions(level=3, assume_csc=True)
            )
            gates: int | str = mapping.gate_count
        except SynthesisError:
            gates = "-"
        per_benchmark.append(
            {
                "benchmark": spec.name,
                "markings": markings if markings is not None else f">{enumeration_limit}",
                "nodes": nodes,
                "cubes": cubes,
                "gates": gates,
                "cubes_per_node": round(cubes / nodes, 2),
                "markings_per_cube": (
                    round(markings / cubes, 2) if isinstance(markings, int) else "huge"
                ),
                "_markings_numeric": markings if isinstance(markings, int) else None,
            }
        )

    def aggregate(group: list[dict], label: str) -> dict:
        nodes = sum(r["nodes"] for r in group)
        cubes = sum(r["cubes"] for r in group)
        gates = sum(r["gates"] for r in group if isinstance(r["gates"], int))
        markings = sum(
            r["_markings_numeric"] for r in group if r["_markings_numeric"] is not None
        )
        return {
            "benchmark": label,
            "markings": markings,
            "nodes": nodes,
            "cubes": cubes,
            "gates": gates,
            "cubes_per_node": round(cubes / nodes, 2) if nodes else 0,
            "markings_per_cube": round(markings / cubes, 2) if cubes else 0,
        }

    small = [
        r for r in per_benchmark
        if r["_markings_numeric"] is not None and r["_markings_numeric"] <= LARGE_THRESHOLD
    ]
    large = [
        r for r in per_benchmark
        if r["_markings_numeric"] is None or r["_markings_numeric"] > LARGE_THRESHOLD
    ]
    rows = [dict(r) for r in per_benchmark]
    for row in rows:
        row.pop("_markings_numeric", None)
    if small:
        rows.append(aggregate(small, "SMALL (<=10k markings)"))
    if large:
        numeric_large = [r for r in large if r["_markings_numeric"] is not None]
        if numeric_large:
            rows.append(aggregate(numeric_large, "LARGE (>10k markings, enumerable)"))
    return rows
