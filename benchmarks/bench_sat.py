"""Exact SAT synthesis: encode/solve cost and the optimality-gap table.

PR 8's performance story is a *workload*, not a speedup: exact synthesis
is the first open-ended solver load in the batch system.  Two measures:

* **per-spec encode vs. solve seconds** — candidate-cube enumeration +
  CNF construction (`build_encoding` over every signal's set/reset/
  complete problems) against the full CDCL descent (`exact_synthesize`);
* **the optimality-gap table** — the 13-spec registry through
  `experiments.optimality_gap.gap_rows`, pinning `exact ≤ structural`
  and `exact ≤ statebased` with full `compare()` agreement.

The rows land in ``BENCH_PR8.json``.
"""

from __future__ import annotations

import time

from repro.benchmarks.registry import get_benchmark
from repro.experiments.optimality_gap import GAP_SPECS, gap_rows
from repro.sat.encode import build_encoding
from repro.sat.synthesize import _signal_problems, exact_synthesize
from repro.statebased.regions import compute_signal_regions, state_space


def _encode_only_seconds(stg) -> tuple[float, int, int]:
    """Candidate enumeration + CNF build time for every signal problem."""
    regions = compute_signal_regions(stg, compute_backward=False)
    start = time.perf_counter()
    candidates = clauses = 0
    for signal in stg.non_input_signals:
        for problem in _signal_problems(regions, signal):
            encoding = build_encoding(problem, primes_only=problem.kind == "complete")
            candidates += len(encoding.candidates)
            clauses += len(encoding.clauses)
    return time.perf_counter() - start, candidates, clauses


def test_sat_encode_vs_solve(benchmark, perf_record, print_table):
    """Per-spec cost split: CNF construction vs. CDCL descent."""
    cases = ["fig6", "converter_2to4", "sequencer", "dma_ctrl", "muller_pipeline_2"]

    def run_all():
        results = {}
        for name in cases:
            stg = get_benchmark(name)
            start = time.perf_counter()
            circuit = exact_synthesize(stg, state_space(stg))
            results[name] = (circuit, time.perf_counter() - start)
        return results

    results = benchmark.pedantic(run_all, iterations=1, rounds=1)

    rows = []
    record: dict = {}
    for name in cases:
        stg = get_benchmark(name)
        encode_s, candidates, clauses = _encode_only_seconds(stg)
        circuit, total_s = results[name]
        signals = circuit.metadata["sat"]["signals"]
        conflicts = sum(
            phase.get("conflicts", 0)
            for per_signal in signals.values()
            for phase in per_signal.values()
            if isinstance(phase, dict)
        )
        minima = 1
        for info in signals.values():
            minima *= max(1, info["minima"])
        rows.append(
            {
                "spec": name,
                "signals": len(stg.non_input_signals),
                "candidates": candidates,
                "clauses": clauses,
                "encode_s": round(encode_s, 4),
                "total_s": round(total_s, 4),
                "conflicts": conflicts,
                "minima": minima,
            }
        )
        record[name] = {
            "encode_s": round(encode_s, 6),
            "total_s": round(total_s, 6),
            "candidates": candidates,
            "clauses": clauses,
            "conflicts": conflicts,
            "minima": minima,
            "literals": circuit.literal_count(),
        }
    print_table(rows, title="Exact synthesis — encode vs. solve cost")
    perf_record["results"].setdefault("sat", {})["encode_solve"] = record


def test_sat_optimality_gap_table(benchmark, perf_record, print_table):
    """The 13-spec gap table; soundness and agreement are hard asserts."""
    rows = benchmark.pedantic(
        lambda: gap_rows(names=list(GAP_SPECS)), iterations=1, rounds=1
    )
    solved = [row for row in rows if row["status"] == "ok"]
    assert solved, "no spec solved within budget"
    assert all(row["sound"] for row in solved), rows
    assert all(row["matching"] for row in solved), rows
    print_table(
        [
            {
                key: row.get(key)
                for key in (
                    "spec",
                    "status",
                    "structural_lits",
                    "statebased_lits",
                    "exact_lits",
                    "gap_lits",
                    "minima",
                    "seconds",
                )
            }
            for row in rows
        ],
        title="Optimality gap — structural / state-based / exact minima",
    )
    total = rows[-1]
    perf_record["results"].setdefault("sat", {})["gap_table"] = {
        "rows": rows,
        "specs": len(rows) - 1,
        "solved": len(solved),
        "structural_lits": total["structural_lits"],
        "statebased_lits": total["statebased_lits"],
        "exact_lits": total["exact_lits"],
        "gap_lits": total["gap_lits"],
    }


def test_sat_smoke(benchmark):
    """CI smoke case: one small spec, exact and agreeing, in milliseconds."""
    from repro.api import Pipeline, SynthesisOptions, compare
    from repro.api.spec import Spec

    def run():
        pipeline = Pipeline()
        spec = Spec.from_benchmark("fig6")
        options = SynthesisOptions(assume_csc=True)
        exact = pipeline.synthesize(spec, options, backend="sat")
        report = compare(
            spec, options, pipeline=pipeline, backends=("statebased", "sat")
        )
        return exact, report

    exact, report = benchmark.pedantic(run, iterations=1, rounds=3)
    assert report.matching
    assert exact.details["exact"] is True
    assert exact.literals <= report.structural.synthesis.literals
