"""Table VII — CPU time on the scalable examples.

The paper reports synthesis times for growing dining-philosophers (a
non-free-choice, SM-coverable net) and Muller-pipeline instances.  The
reproduction sweeps both families through the unified API and reports the
structural synthesis time and the circuit size; the state-based baseline
time is included while the state space stays enumerable, to show the
cross-over.
"""

from __future__ import annotations

from repro.api.pipeline import Pipeline
from repro.api.spec import Spec
from repro.benchmarks import scalable
from repro.petri.reachability import StateSpaceLimitExceeded
from repro.synthesis import SynthesisOptions

DEFAULT_PHILOSOPHERS = (3, 5, 8, 12)
DEFAULT_PIPELINES = (4, 8, 16, 32)
BASELINE_MARKING_LIMIT = 100_000


def table7_rows(
    philosophers=DEFAULT_PHILOSOPHERS,
    pipelines=DEFAULT_PIPELINES,
    baseline_limit: int = BASELINE_MARKING_LIMIT,
) -> list[dict]:
    """Rows for both scalable families (no store: the timings are the product)."""
    rows: list[dict] = []
    cases = [
        (f"philosophers_{n}", lambda n=n: scalable.dining_philosophers(n))
        for n in philosophers
    ] + [
        (f"muller_pipeline_{n}", lambda n=n: scalable.muller_pipeline(n))
        for n in pipelines
    ]
    for name, builder in cases:
        spec = Spec.from_stg(builder(), name=name)
        pipeline = Pipeline()
        structural = pipeline.run(spec, SynthesisOptions(level=3, assume_csc=True))
        try:
            baseline = pipeline.run(
                spec,
                SynthesisOptions(level=3),
                backend="statebased",
                max_markings=baseline_limit,
            )
            baseline_seconds: float | str = round(baseline.total_seconds, 3)
            markings: int | str = baseline.synthesis.markings
        except StateSpaceLimitExceeded:
            baseline_seconds = "blow-up"
            markings = f">{baseline_limit}"
        rows.append(
            {
                "benchmark": name,
                "P": spec.stg.net.num_places(),
                "T": spec.stg.net.num_transitions(),
                "markings": markings,
                "structural_s": round(structural.total_seconds, 3),
                "statebased_s": baseline_seconds,
                "structural_lits": structural.literals,
            }
        )
    return rows
