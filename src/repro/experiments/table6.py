"""Table VI — CPU time, structural vs. state-based, on large-RG STGs.

The paper synthesizes STGs whose reachability graphs have from thousands to
10^27 markings and compares its CPU time against SIS and ASSASSIN (which
either time out or blow up).  The reproduction uses arrays of independent
handshake cells (4^n markings) and wide Muller pipelines, runs both backends
through the unified API, and reports the state-based baseline only while the
state space remains enumerable (past the cut-off it is reported as
"blow-up" — the same way the paper reports the tools that could not
complete).  Each case uses a fresh pipeline so the structural timing includes
the full analyze → refine → synthesize chain.
"""

from __future__ import annotations

from repro.api.pipeline import Pipeline
from repro.api.spec import Spec
from repro.benchmarks import scalable
from repro.petri.reachability import StateSpaceLimitExceeded
from repro.synthesis import SynthesisOptions

#: (name, constructor, closed-form marking count or None)
DEFAULT_CASES = [
    ("independent_cells_5", lambda: scalable.independent_cells(5), 4 ** 5),
    ("independent_cells_8", lambda: scalable.independent_cells(8), 4 ** 8),
    ("independent_cells_12", lambda: scalable.independent_cells(12), 4 ** 12),
    ("independent_cells_20", lambda: scalable.independent_cells(20), 4 ** 20),
    ("independent_cells_45", lambda: scalable.independent_cells(45), 4 ** 45),
    ("muller_pipeline_8", lambda: scalable.muller_pipeline(8), None),
    ("muller_pipeline_16", lambda: scalable.muller_pipeline(16), None),
    ("muller_pipeline_32", lambda: scalable.muller_pipeline(32), None),
]

#: State spaces above this size are not enumerated by the baseline.
BASELINE_MARKING_LIMIT = 200_000


def table6_rows(
    cases=None,
    baseline_limit: int = BASELINE_MARKING_LIMIT,
) -> list[dict]:
    """One row per scalable benchmark with both flows' run times.

    No store is attached: the timing columns are the product here, so every
    case must actually compute.
    """
    if cases is None:
        cases = DEFAULT_CASES
    rows: list[dict] = []
    for name, builder, markings in cases:
        spec = Spec.from_stg(builder(), name=name)
        pipeline = Pipeline()
        structural = pipeline.run(spec, SynthesisOptions(level=3, assume_csc=True))

        baseline_seconds: float | str
        baseline_markings: int | str
        try:
            baseline = pipeline.run(
                spec,
                SynthesisOptions(level=3),
                backend="statebased",
                max_markings=baseline_limit,
            )
            baseline_seconds = round(baseline.total_seconds, 3)
            baseline_markings = baseline.synthesis.markings
        except StateSpaceLimitExceeded:
            baseline_seconds = "blow-up"
            baseline_markings = f">{baseline_limit}"
        rows.append(
            {
                "benchmark": name,
                "P": spec.stg.net.num_places(),
                "T": spec.stg.net.num_transitions(),
                "markings": markings if markings is not None else baseline_markings,
                "structural_s": round(structural.total_seconds, 3),
                "statebased_s": baseline_seconds,
                "structural_lits": structural.literals,
            }
        )
    return rows
