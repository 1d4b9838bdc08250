"""Compiled state-based engine: synthesis CPU time and verification throughput.

PR 4 ported the state-based back end onto machine integers: packed int codes
computed during the BFS, bitset regions, mask-based USC/CSC grouping,
orthogonal-complement dc-sets, and a bit-parallel straight-line evaluator
for mapped gate netlists.  This bench records what the port is worth:

* the Table VI state-based columns (the enumerable registry cases) against
  the PR 3 record of the same runs;
* a same-machine oracle comparison (compiled chain vs. the retained
  ``_reference_*`` dict implementations) so the speedup is auditable
  independent of historical wall-clock;
* registry-wide ``verify_mapped_netlist`` throughput in codes/second
  against the PR 3 differential-verification record.

The rows land in ``BENCH_PR4.json`` under ``statebased``.
"""

from __future__ import annotations

import time

from repro.api import Pipeline, Spec, SynthesisOptions
from repro.gates.verify import (
    _reference_verify_mapped_netlist,
    verify_mapped_netlist,
)
from repro.petri.reachability import build_reachability_graph
from repro.statebased.coding import (
    _reference_analyze_state_coding,
    analyze_state_coding,
)
from repro.statebased.regions import (
    _reference_signal_region_sets,
    compute_signal_regions,
    state_space,
)
from repro.stg.encoding import (
    _reference_encode_reachability_graph,
    encode_reachability_graph,
)
from repro.statebased.synthesis import synthesize_state_based
from repro.synthesis import map_circuit

#: specs small enough for exhaustive gate-level differential simulation
VERIFY_CASES = (
    ("glatch_5", 2),
    ("muller_pipeline_8", 3),
    ("philosophers_5", 3),
    ("independent_cells_5", 3),
)


def test_statebased_synthesis_cpu(benchmark, print_table, perf_record):
    """Table VI state-based columns on the compiled engine vs. PR 3.

    The PR 3 record (same machine, same cases, same
    ``pipeline.run(..., backend="statebased")`` methodology) is the
    ``pr3_baseline`` the perf-record fixture carries.
    """
    baseline = {
        name: seconds
        for name, seconds in perf_record["pr3_baseline"]["table6_statebased_s"].items()
        if name != "total"
    }

    def run_all() -> list[dict]:
        rows = []
        for name in baseline:
            spec = Spec.from_benchmark(name)
            pipeline = Pipeline()
            start = time.perf_counter()
            report = pipeline.run(
                spec,
                SynthesisOptions(level=3),
                backend="statebased",
                max_markings=200_000,
            )
            seconds = time.perf_counter() - start
            rows.append(
                {
                    "benchmark": name,
                    "markings": report.synthesis.markings,
                    "statebased_s": round(seconds, 4),
                    "pr3_statebased_s": baseline[name],
                    "speedup_vs_pr3": round(baseline[name] / seconds, 1),
                    "literals": report.literals,
                }
            )
        return rows

    rows = benchmark.pedantic(run_all, iterations=1, rounds=1)
    print_table(rows, title="State-based synthesis — compiled engine vs PR 3")
    total = sum(row["statebased_s"] for row in rows)
    pr3_total = sum(baseline.values())
    record = perf_record["results"].setdefault("statebased", {})
    record["synthesis"] = {
        "cases": rows,
        "total_s": round(total, 4),
        "pr3_total_s": pr3_total,
        "speedup_vs_pr3": round(pr3_total / total, 1),
    }
    assert total > 0
    assert pr3_total / total >= 5, (
        f"state-based synthesis total only {pr3_total / total:.1f}x faster "
        f"than the PR 3 record ({total:.3f}s vs {pr3_total:.3f}s)"
    )


def test_statebased_oracle_comparison(benchmark, perf_record):
    """Same-machine compiled-vs-reference chain (encode + regions + coding)."""
    stg = Spec.from_benchmark("muller_pipeline_8").stg
    graph = build_reachability_graph(stg.net)

    def compiled_chain():
        encoded = encode_reachability_graph(stg, graph)
        regions = compute_signal_regions(stg, encoded)
        analyze_state_coding(stg, encoded)
        return regions

    def reference_chain():
        encoded = _reference_encode_reachability_graph(stg, graph)
        _reference_signal_region_sets(stg, encoded)
        _reference_analyze_state_coding(stg, encoded)
        return encoded

    start = time.perf_counter()
    reference_chain()
    reference_seconds = time.perf_counter() - start

    timings: list[float] = []

    def run() -> None:
        start = time.perf_counter()
        compiled_chain()
        timings.append(time.perf_counter() - start)

    benchmark.pedantic(run, iterations=1, rounds=1)
    compiled_seconds = timings[-1]
    speedup = (
        reference_seconds / compiled_seconds if compiled_seconds > 0 else float("inf")
    )
    record = perf_record["results"].setdefault("statebased", {})
    record["oracle_vs_compiled_muller_8"] = {
        "reference_s": round(reference_seconds, 4),
        "compiled_s": round(compiled_seconds, 4),
        "speedup": round(speedup, 1),
    }
    assert speedup > 3, (
        f"compiled chain only {speedup:.2f}x faster than the reference "
        f"({compiled_seconds:.3f}s vs {reference_seconds:.3f}s)"
    )


def test_mapped_verification_throughput(benchmark, print_table, perf_record):
    """Registry-wide gate-level differential verification in codes/second."""
    pipeline = Pipeline()
    prepared = []
    for name, level in VERIFY_CASES:
        spec = Spec.from_benchmark(name)
        options = SynthesisOptions(level=level, assume_csc=True)
        circuit = pipeline.synthesize(spec, options).circuit
        prepared.append((spec, circuit, map_circuit(circuit).netlist))

    def run_all() -> list[dict]:
        rows = []
        for spec, circuit, netlist in prepared:
            # best of 3: the first run after the synthesis benches tends to
            # absorb a GC pause, which would misstate the steady-state cost
            seconds = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                report = verify_mapped_netlist(spec.stg, circuit, netlist)
                seconds = min(seconds, time.perf_counter() - start)
            assert report.equivalent, (spec.name, report.mismatches[:3])
            rows.append(
                {
                    "benchmark": spec.name,
                    "codes": report.checked_codes,
                    "verify_mapped_s": round(seconds, 5),
                    "codes_per_s": round(report.checked_codes / seconds),
                }
            )
        return rows

    rows = benchmark.pedantic(run_all, iterations=1, rounds=1)
    # same-machine reference leg (event-driven per-code simulation)
    reference_seconds = 0.0
    for spec, circuit, netlist in prepared:
        start = time.perf_counter()
        reference = _reference_verify_mapped_netlist(spec.stg, circuit, netlist)
        reference_seconds += time.perf_counter() - start
        assert reference.equivalent

    print_table(rows, title="Mapped-netlist differential verification (bit-parallel)")
    total_codes = sum(row["codes"] for row in rows)
    total_seconds = sum(row["verify_mapped_s"] for row in rows)
    throughput = total_codes / total_seconds
    pr3_throughput = perf_record["pr3_baseline"]["verify_mapped_codes_per_s"]
    record = perf_record["results"].setdefault("statebased", {})
    record["mapped_verification"] = {
        "cases": rows,
        "codes": total_codes,
        "total_s": round(total_seconds, 5),
        "codes_per_s": round(throughput),
        "pr3_codes_per_s": round(pr3_throughput),
        "speedup_vs_pr3": round(throughput / pr3_throughput, 1),
        "reference_s": round(reference_seconds, 5),
        "reference_codes_per_s": round(total_codes / reference_seconds),
        "speedup_vs_reference": round(
            (total_codes / total_seconds) / (total_codes / reference_seconds), 1
        ),
    }
    assert throughput / pr3_throughput >= 5, (
        f"mapped verification only "
        f"{throughput / pr3_throughput:.1f}x the PR 3 throughput"
    )


def test_statebased_smoke(benchmark):
    """Fast regression guard run by CI (``-k smoke``): one full state-based
    synthesis plus one mapped verification on small specs."""

    def run() -> None:
        spec = Spec.from_benchmark("sequencer")
        circuit = synthesize_state_based(spec.stg, state_space(spec.stg))
        assert circuit.signals
        netlist = map_circuit(circuit).netlist
        report = verify_mapped_netlist(spec.stg, circuit, netlist)
        assert report.equivalent and report.checked_codes > 0

    benchmark.pedantic(run, iterations=1, rounds=1)
