"""Shared helpers for the benchmark harness.

Every bench module regenerates one table or figure of the paper's evaluation
section; the resulting rows are printed so that running

    pytest benchmarks/ --benchmark-only -s

produces the reproduced tables alongside the timing numbers.  Bench modules
also push their rows into the session-scoped ``perf_record`` fixture, which
is persisted as ``BENCH_PR15.json`` at the repo root when the session ends —
the machine-readable perf trajectory consumed by later PRs (``BENCH_PR1``
recorded the bit-packed kernel; PR2 the cached-pipeline sweep of the
unified API; PR3 gate-netlist construction and gate-level differential
verification; PR4 the compiled state-based engine and bit-parallel mapped
verification; PR5 the durable-workspace batch throughput from
``bench_store.py``; PR7 the corpus generator / fuzzing-farm throughput and
the k-bounded packed reachability kernel from ``bench_corpus.py``; PR8 the
exact SAT backend's encode/solve costs and the optimality-gap table from
``bench_sat.py``; PR9 the prefork serving fleet's saturation throughput
and tail latency from ``bench_fleet.py``; PR10
the observability subsystem's serving-overhead budget from
``bench_obs.py``; since then also the packed two-level minimizer against
its object reference from ``bench_minimize.py``, and the packed region-cover
algebra against the object-level cover operations from
``bench_region_covers.py``).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.reporting import format_table, write_perf_record

#: Timings of the seed (pre-kernel, dict-based) implementation, measured on
#: the same cases the bench modules run, so BENCH_PR1.json carries
#: before/after numbers for the bit-packed kernel in a single record.
SEED_BASELINE = {
    "count_reachable_markings_s": {"muller_pipeline_16": 7.971},
    "table6_structural_s": {
        "independent_cells_5": 0.007,
        "independent_cells_8": 0.012,
        "independent_cells_20": 0.066,
        "independent_cells_45": 0.506,
        "muller_pipeline_8": 0.055,
        "muller_pipeline_16": 0.392,
        "total": 1.038,
    },
}

#: PR 3 record (BENCH_PR3.json, same machine): the dict-based state-based
#: columns of Table VI and the per-code event-simulation verification
#: throughput the compiled state-based engine (PR 4) is measured against.
PR3_BASELINE = {
    "table6_statebased_s": {
        "independent_cells_5": 10.432,
        "muller_pipeline_8": 2.051,
        "total": 12.483,
    },
    "verify_mapped_codes_per_s": 25876,
}


@pytest.fixture(scope="session")
def print_table():
    """Print a reproduced table (always emitted, even without ``-s``,
    via the terminal reporter at the end of the run)."""
    emitted: list[str] = []

    def _print(rows, columns=None, title=None):
        text = format_table(rows, columns=columns, title=title)
        emitted.append(text)
        print("\n" + text)
        return text

    yield _print


#: results keys every full benchmark session produces; the record is only
#: persisted when all of them are present.
_REQUIRED_SECTIONS = (
    "table6",
    "table7",
    "count_reachable_markings_s",
    "fig13_pipeline",
    "mapping",
    "statebased",
    "store",
    "corpus",
    "bounded_kernel",
    "sat",
    "fleet",
    "obs",
    "minimize",
    "region_covers",
)


@pytest.fixture(scope="session")
def perf_record(request):
    """Session-wide perf record, persisted as BENCH_PR15.json on teardown."""
    record: dict = {
        "pr": 15,
        "kernel": (
            "packed region-cover algebra: one k-way Cover.union_all scan in "
            "place of union folds, sharp/intersect on packed (care, value) "
            "entries, Cube objects only for the result; the object-level "
            "operations kept as the _reference_* oracles"
        ),
        "seed_baseline": SEED_BASELINE,
        "pr3_baseline": PR3_BASELINE,
        "results": {},
    }
    yield record
    # Only persist complete, passing runs: a partial invocation (single
    # module, -k, aborted session) or a failing session must not clobber the
    # committed perf trajectory with an incomplete or unrepresentative record.
    if any(key not in record["results"] for key in _REQUIRED_SECTIONS):
        return
    if request.session.testsfailed:
        return
    repo_root = Path(__file__).resolve().parent.parent
    # Derive headline speedups for the cases that have a seed counterpart.
    table6 = record["results"].get("table6", [])
    structural = {
        row["benchmark"]: row["structural_s"]
        for row in table6
        if isinstance(row.get("structural_s"), float)
    }
    seed = SEED_BASELINE["table6_structural_s"]
    shared = [name for name in structural if name in seed and name != "total"]
    speedups = {
        name: round(seed[name] / structural[name], 2)
        for name in shared
        if structural[name] > 0
    }
    if shared:
        seed_total = sum(seed[name] for name in shared)
        new_total = sum(structural[name] for name in shared)
        if new_total > 0:
            speedups["table6_structural_total"] = round(seed_total / new_total, 2)
    count = record["results"].get("count_reachable_markings_s", {})
    for name, seconds in count.items():
        baseline = SEED_BASELINE["count_reachable_markings_s"].get(name)
        if baseline and seconds > 0:
            speedups[f"count_reachable_markings:{name}"] = round(baseline / seconds, 2)
    pipeline = record["results"].get("fig13_pipeline", {})
    if pipeline.get("speedup"):
        speedups["fig13_sweep_cached_pipeline"] = pipeline["speedup"]
    record["speedup_vs_seed"] = speedups
    statebased = record["results"].get("statebased", {})
    speedups_pr3 = {}
    synthesis = statebased.get("synthesis", {})
    if synthesis.get("speedup_vs_pr3"):
        speedups_pr3["table6_statebased_total"] = synthesis["speedup_vs_pr3"]
    verification = statebased.get("mapped_verification", {})
    if verification.get("speedup_vs_pr3"):
        speedups_pr3["verify_mapped_throughput"] = verification["speedup_vs_pr3"]
    record["speedup_vs_pr3"] = speedups_pr3
    store_results = record["results"].get("store", {})
    if store_results.get("warm_vs_cold_speedup"):
        record["store_throughput"] = {
            "warm_vs_cold_speedup": store_results["warm_vs_cold_speedup"],
            "warm_specs_per_s": store_results.get("warm_specs_per_s"),
            "server_specs_per_s": store_results.get("server_specs_per_s"),
        }
    corpus_results = record["results"].get("corpus", {})
    if corpus_results:
        record["corpus_throughput"] = {
            "generate_specs_per_s": corpus_results.get("generate_specs_per_s"),
            "campaign_sequential_specs_per_s": corpus_results.get(
                "campaign_sequential_specs_per_s"
            ),
            "campaign_pool_specs_per_s": corpus_results.get(
                "campaign_pool_specs_per_s"
            ),
            "campaign_pool_speedup": corpus_results.get("campaign_pool_speedup"),
        }
    bounded = record["results"].get("bounded_kernel", {})
    if bounded:
        record["bounded_kernel_speedup_vs_reference"] = {
            name: data.get("speedup") for name, data in bounded.items()
        }
    sat_results = record["results"].get("sat", {})
    gap = sat_results.get("gap_table", {})
    if gap:
        record["optimality_gap"] = {
            "solved": gap.get("solved"),
            "specs": gap.get("specs"),
            "structural_lits": gap.get("structural_lits"),
            "statebased_lits": gap.get("statebased_lits"),
            "exact_lits": gap.get("exact_lits"),
            "gap_lits": gap.get("gap_lits"),
        }
    fleet_results = record["results"].get("fleet", {})
    if fleet_results:
        record["fleet_serving"] = {
            "cores": fleet_results.get("cores"),
            "best_req_per_s": fleet_results.get("best_req_per_s"),
            "vs_pr5_server": fleet_results.get("vs_pr5_server"),
            "p99_ms": {
                workers: row.get("p99_ms")
                for workers, row in fleet_results.get("saturation", {}).items()
            },
        }
    obs_results = record["results"].get("obs", {})
    if obs_results:
        record["observability_overhead"] = {
            "off_req_per_s": obs_results.get("off_req_per_s"),
            "on_req_per_s": obs_results.get("on_req_per_s"),
            "on_over_off": obs_results.get("on_over_off"),
        }
    minimize_results = record["results"].get("minimize", {})
    if minimize_results:
        record["minimizer_speedup_vs_reference"] = minimize_results.get("speedup")
    write_perf_record(repo_root / "BENCH_PR15.json", record)
