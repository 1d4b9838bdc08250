"""Table V — per-benchmark area comparison.

The paper compares the area of its circuits (S3C, with and without backward
expansion / mapping) against SYN and FORCAGE.  Those tools are not available,
so the reproduction compares:

* ``base``   — the state-based exhaustive baseline (plays the role of the
  prior state-based tools),
* ``s3c``    — the structural flow without backward expansion (level 3),
* ``s3c_full`` — the fully minimized structural flow (level 5) plus
  technology mapping.

All flows run through one cached :class:`repro.api.Pipeline` (the structural
levels share the analysis front-end; the state-based run contributes the
marking count).  Areas are reported in literals and mapped (normalized
transistor) units, and every synthesized circuit is re-verified to be speed
independent.
"""

from __future__ import annotations

from typing import Optional

from repro.api.pipeline import Pipeline
from repro.api.spec import Spec
from repro.benchmarks.classic import classic_names
from repro.synthesis import SynthesisOptions


def table5_rows(
    names: Optional[list[str]] = None,
    verify: bool = True,
) -> list[dict]:
    """One row per benchmark: sizes and areas of the three flows."""
    if names is None:
        names = classic_names(synthesizable_only=True)
    pipeline = Pipeline()
    rows: list[dict] = []
    base_options = SynthesisOptions(level=5)
    partial_options = SynthesisOptions(level=3, assume_csc=True)
    full_options = SynthesisOptions(level=5, assume_csc=True)
    for name in names:
        spec = Spec.from_benchmark(name)
        baseline = pipeline.synthesize(spec, base_options, backend="statebased")
        partial = pipeline.synthesize(spec, partial_options)
        full = pipeline.synthesize(spec, full_options)
        mapped = pipeline.map(spec, full_options)
        stg = spec.stg
        row = {
            "benchmark": name,
            "P": stg.net.num_places(),
            "T": stg.net.num_transitions(),
            "M": baseline.markings,
            "base_lits": baseline.literals,
            "s3c_lits": partial.literals,
            "s3c_full_lits": full.literals,
            "s3c_mapped_area": mapped.total_area,
        }
        if verify:
            row["base_SI"] = bool(
                pipeline.verify(spec, base_options, backend="statebased")
            )
            row["s3c_SI"] = bool(pipeline.verify(spec, full_options))
        rows.append(row)
    totals = {
        "benchmark": "TOTAL",
        "P": sum(r["P"] for r in rows),
        "T": sum(r["T"] for r in rows),
        "M": sum(r["M"] for r in rows),
        "base_lits": sum(r["base_lits"] for r in rows),
        "s3c_lits": sum(r["s3c_lits"] for r in rows),
        "s3c_full_lits": sum(r["s3c_full_lits"] for r in rows),
        "s3c_mapped_area": sum(r["s3c_mapped_area"] for r in rows),
    }
    if verify:
        totals["base_SI"] = all(r["base_SI"] for r in rows)
        totals["s3c_SI"] = all(r["s3c_SI"] for r in rows)
    rows.append(totals)
    return rows
