"""Dining philosophers: synthesis of a non-free-choice, SM-coverable STG.

The shared-fork places make the net non-free-choice, the class the paper
handles through SM-covers (Table VII).  The example synthesizes the eating
controllers through the unified API (the ``analyze`` artifact exposes the
SM-cover statistics), verifies them, and prints the per-signal logic.

Run with:  python examples/philosophers.py [philosophers]
"""

from __future__ import annotations

import sys

from repro.api import Pipeline, Spec, SynthesisOptions
from repro.benchmarks.scalable import dining_philosophers
from repro.petri.properties import is_free_choice


def main(philosophers: int = 3) -> None:
    spec = Spec.from_stg(
        dining_philosophers(philosophers), name=f"philosophers_{philosophers}"
    )
    print(spec.stg.describe())
    print("free choice:", is_free_choice(spec.stg.net))

    pipeline = Pipeline()
    options = SynthesisOptions(level=5, assume_csc=True)
    analysis = pipeline.analyze(spec)
    print(
        f"SM-components found: {analysis.sm_components}; "
        f"SM-cover size: {analysis.sm_cover_size}"
    )
    print()

    verify = spec.stg.net.num_places() <= 60
    report = pipeline.run(spec, options, verify=verify)
    print(report.describe())


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 3)
