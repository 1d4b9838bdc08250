"""The process that synthesizes a compute workload.

Run by ``run.py``; it prints ``READY`` once imports and the pre-warm are
done (the end of set-up), then runs the passes and prints one JSON line of
per-operation records.  With ``--trace`` it runs the same passes a second
time with the layer wrappers installed and adds the layer metrics.

    python3 perfbench/worker.py --workload structural_scalable --seed 1 --passes 3
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.api import Pipeline  # noqa: E402

import layers  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from oracle import summarize  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import COMPUTE, pass_orders  # noqa: E402

#: a small spec synthesized once before timing, so that first-call costs
#: (lazy imports, interned variables) are paid in set-up
PREWARM_SPEC = "handshake_seq"


def run_passes(orders, options, on_event=None):
    """Time every operation of every pass; returns (records, pass times, slices).

    An operation's ``seconds`` is its wall time at the reference machine
    speed (see ``calibrate.py``; ``wall_seconds`` is the raw time), and a
    pass's time is the sum of its operations' times.  Each report is
    reduced to its summary as soon as it is timed, so the heap (and the
    garbage collector's work) does not grow with the run.
    """
    calibrator = Calibrator(every=1)
    records = []
    clock = time.perf_counter
    for number, order in enumerate(orders):
        for spec in order:
            pipeline = Pipeline(on_event=on_event)
            record = {"spec": spec, "pass": number, "slice": calibrator.before()}
            begin = clock()
            try:
                report = pipeline.run(spec, **options)
            except Exception as error:  # noqa: BLE001 — judged by the oracle
                record["wall_seconds"] = clock() - begin
                record["error"] = type(error).__name__
            else:
                record["wall_seconds"] = clock() - begin
                record.update(summarize(report))
            records.append(record)
    factors = calibrator.factors()
    walls = [0.0] * len(orders)
    for record in records:
        record["seconds"] = record["wall_seconds"] * factors[record.pop("slice")]
        walls[record.pop("pass")] += record["seconds"]
    return records, walls, calibrator.slices


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(COMPUTE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = COMPUTE[args.workload]
    options = dict(workload.options)
    Pipeline().run(PREWARM_SPEC, **options)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    orders = pass_orders(workload, args.seed, args.passes)
    records, walls, slices = run_passes(orders, options)
    result = {
        "records": records,
        "walls": walls,
        "slices": slices,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        recorder = Recorder()
        layers.install(recorder, "program")
        sources = {}

        def on_event(event):
            if event.kind == "stage":
                sources[event.status] = sources.get(event.status, 0) + 1

        traced, traced_walls, _ = run_passes(orders, options, on_event=on_event)
        metrics = layers.layer_metrics(recorder.spans, [], len(traced))
        resolved = sum(sources.values()) or 1
        metrics["api.pipeline.memory_share"] = sources.get("memory", 0) / resolved
        metrics["api.pipeline.store_share"] = sources.get("store", 0) / resolved
        metrics["api.pipeline.computed_share"] = sources.get("computed", 0) / resolved
        metrics["trace.self_coverage"] = layers.self_coverage(
            recorder.spans, sum(record["wall_seconds"] for record in traced)
        )
        result["traced"] = {"records": traced, "walls": traced_walls, "metrics": metrics}
        if args.spans_out:
            recorder.dump(args.spans_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
