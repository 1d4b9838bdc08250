"""repro — Structural methods for the synthesis of speed-independent circuits.

A reproduction of Pastor, Cortadella, Kondratyev and Roig (DATE'96 /
IEEE TCAD 17(11), 1998): synthesis of speed-independent asynchronous circuits
from free-choice signal transition graphs using structural (reachability-
graph-free) approximations of the signal regions.

Unified entry point
-------------------
:mod:`repro.api` is the public front door — re-exported here for
convenience::

    import repro

    report = repro.run("sequencer", level=5, verify=True)
    diff = repro.compare("muller_pipeline_4")      # both backends, cross-check
    reports = repro.synthesize_many(["fig1", "sequencer"], jobs=4)

* :class:`repro.Spec` — one constructor for ``.g`` files, benchmark names,
  and in-memory STGs, with a stable content hash;
* :class:`repro.Pipeline` — staged ``analyze → refine → synthesize → map →
  verify`` flow with per-stage memoisation;
* backends — ``structural`` (the paper's contribution), ``statebased``
  (the exhaustive baseline), ``sat`` (provably minimum covers), and the
  differential :func:`repro.compare`;
* ``python -m repro`` — the same flows as a CLI (``synthesize`` /
  ``verify`` / ``export`` / ``compare`` / ``bench`` / ``gap`` / ``cache`` /
  ``serve`` / ``trace`` / ``top`` / ``fuzz`` / ``list``).

Public sub-packages
-------------------
``repro.api``         unified pipeline, backends, batch execution, CLI
``repro.boolean``     cube/cover algebra and two-level minimization
``repro.petri``       Petri-net kernel (markings, reachability, SM-covers)
``repro.stg``         signal transition graphs and the ``.g`` format
``repro.statebased``  exhaustive (state-based) analysis and synthesis baseline
``repro.structural``  structural approximations (the paper's contribution)
``repro.synthesis``   speed-independent synthesis flow and architectures
``repro.sat``         exact synthesis: CDCL solver and cover encodings
``repro.gates``       gate-level netlists, simulation and exporters
``repro.verify``      speed-independence verification of the synthesized nets
``repro.benchmarks``  benchmark STGs and scalable generators
``repro.experiments`` table/figure reproduction harness
``repro.corpus``      generated-spec corpus, fuzzing campaigns, shrinking
``repro.obs``         tracing, metrics and the ``repro top`` dashboard
"""

from repro.api import (
    ComparisonReport,
    Pipeline,
    Report,
    Spec,
    SpecError,
    SynthesisError,
    SynthesisOptions,
    compare,
    run,
    synthesize_many,
)

__version__ = "2.0.0"

__all__ = [
    "ComparisonReport",
    "Pipeline",
    "Report",
    "Spec",
    "SpecError",
    "SynthesisError",
    "SynthesisOptions",
    "compare",
    "run",
    "synthesize_many",
    "__version__",
]
