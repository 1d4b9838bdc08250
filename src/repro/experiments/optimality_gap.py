"""Optimality gap — structural approximation vs provable SAT minima.

The paper's structural flow trades exactness for scalability; this
experiment measures what the trade costs.  For every registry spec the
exact backend (:mod:`repro.sat`) synthesizes the provably minimum-literal
circuit and is differentially cross-checked against **both** existing
backends on every reachable code; the table then reports the literal
counts side by side with the gap.

``exact ≤ structural`` and ``exact ≤ statebased`` must hold on every row:
the heuristic covers are feasible points of the exact search space, so a
violation is a synthesis bug, not a gap (the ``sound`` column pins this —
the tier-1 suite and the CI sat-smoke step assert it).

Each spec runs as one :class:`~repro.api.scheduler.Scheduler` job with a
per-job deadline — SAT descent is the first genuinely open-ended work in
the batch system, so specs that blow their ``timeout`` or their candidate
budget degrade to a ``skipped`` row instead of stalling the table.
"""

from __future__ import annotations

from typing import Optional

from repro.api.scheduler import Job, Scheduler
from repro.api.spec import Spec
from repro.benchmarks.classic import classic_names
from repro.synthesis import SynthesisOptions

#: the 13-spec gap registry: every synthesizable classic benchmark plus
#: the paper's figures and the smallest scalable instance
GAP_SPECS: tuple[str, ...] = tuple(classic_names(synthesizable_only=True)) + (
    "fig1",
    "fig6",
    "glatch_3",
    "muller_pipeline_2",
)


def run_gap_job(job: Job, pipeline, faults) -> dict:
    """Scheduler runner: one gap row for one spec.

    Synthesizes with all three backends through the (memoising) pipeline,
    cross-checks the exact circuit against both baselines via
    :func:`repro.api.backends.compare`, and returns the row as plain data.
    Budget exhaustion is reported as a ``skipped`` row; anything else
    propagates into the scheduler's retry/error machinery.
    """
    from repro.api.backends import compare
    from repro.sat.encode import SatBudgetExceeded

    spec = job.spec
    options = job.options
    stg = spec.stg
    row: dict = {
        "spec": spec.name,
        "signals": len(stg.non_input_signals),
        "status": "ok",
    }
    structural = pipeline.synthesize(
        spec, options, backend="structural", max_markings=job.max_markings
    )
    statebased = pipeline.synthesize(
        spec, options, backend="statebased", max_markings=job.max_markings
    )
    row["markings"] = statebased.markings
    row["structural_lits"] = structural.literals
    row["statebased_lits"] = statebased.literals
    try:
        exact = pipeline.synthesize(
            spec, options, backend="sat", max_markings=job.max_markings
        )
    except SatBudgetExceeded as error:
        row["status"] = "skipped"
        row["detail"] = str(error)
        row["exact_lits"] = None
        row["gap_lits"] = None
        row["minima"] = None
        row["sound"] = None
        row["matching"] = None
        return row
    row["exact_lits"] = exact.literals
    row["gap_lits"] = structural.literals - exact.literals
    minima = (exact.details or {}).get("minima", {})
    count = 1
    for per_signal in minima.values():
        count *= max(1, per_signal)
    row["minima"] = count
    row["sound"] = (
        exact.literals <= structural.literals
        and exact.literals <= statebased.literals
    )
    matching = True
    for pair in (("structural", "sat"), ("statebased", "sat")):
        report = compare(
            spec,
            options,
            pipeline=pipeline,
            max_markings=job.max_markings,
            backends=pair,
        )
        matching = matching and report.matching
    row["matching"] = matching
    row["seconds"] = round(exact.seconds, 6)
    return row


def gap_rows(
    names: Optional[list[str]] = None,
    level: int = 5,
    store=None,
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    max_markings: Optional[int] = None,
) -> list[dict]:
    """One gap row per spec plus a TOTAL row, in registry order.

    ``jobs``/``timeout`` feed the scheduler (parallel fan-out and per-job
    deadlines); a job that times out or errors after retries becomes an
    ``error`` row rather than aborting the batch.
    """
    if names is None:
        names = list(GAP_SPECS)
    options = SynthesisOptions(level=level, assume_csc=True)
    job_list = [
        Job(
            spec=Spec.from_benchmark(name),
            options=options,
            max_markings=max_markings,
            timeout=timeout,
            runner="repro.experiments.optimality_gap:run_gap_job",
        )
        for name in names
    ]
    scheduler = Scheduler(jobs=jobs, store=store, timeout=timeout)
    by_index: dict[int, dict] = {}
    for result in scheduler.iter_results(job_list):
        if result.report is not None:
            by_index[result.index] = result.report
        else:
            by_index[result.index] = {
                "spec": result.job.spec.name,
                "status": "error",
                "detail": str(result.error),
                "structural_lits": None,
                "statebased_lits": None,
                "exact_lits": None,
                "gap_lits": None,
                "minima": None,
                "sound": None,
                "matching": None,
            }
    rows = [by_index[i] for i in range(len(job_list))]
    solved = [r for r in rows if r["status"] == "ok"]
    rows.append(
        {
            "spec": "TOTAL",
            "status": f"{len(solved)}/{len(rows)} ok",
            "structural_lits": sum(r["structural_lits"] or 0 for r in rows),
            "statebased_lits": sum(r["statebased_lits"] or 0 for r in rows),
            "exact_lits": sum(r["exact_lits"] or 0 for r in solved),
            "gap_lits": sum(r["gap_lits"] or 0 for r in solved),
            "minima": sum(r["minima"] or 0 for r in solved),
            "sound": all(r["sound"] for r in solved) if solved else None,
            "matching": all(r["matching"] for r in solved) if solved else None,
        }
    )
    return rows
