"""Saturation throughput and tail latency of the serving fleet.

PR 5 measured the single-process daemon at ~530-650 warm requests/s and
called the `ThreadingHTTPServer` the bottleneck; PR 9's fleet preforks N
``SO_REUSEPORT`` workers over one shared store to convert cores into
throughput.  This bench drives the *real* fleet (supervisor + worker
subprocesses, the same path ``repro serve --workers N`` takes) and records
achieved requests/s plus p50/p99 latency for warm ``/synthesize`` requests
at 1, 2 and N workers under a fixed concurrent load (the PR 5 comparable
is ``server_specs_per_s`` in ``BENCH_PR5``).  How the fleet resolves a
herd of cold requests is a correctness property, pinned in
``tests/test_fleet.py``, not a figure measured here.

The box's core count is recorded alongside: on a single-core runner the
prefork fleet cannot exceed one core's worth of work, so the 1→N scaling
column is flat there by construction — the scaling claim is per-core, the
zero-loss robustness claims (chaos suite, CI smoke) hold regardless.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
import urllib.request
from contextlib import contextmanager

from repro.api import Pipeline, SynthesisOptions
from repro.api.fleet import FleetConfig, FleetSupervisor
from repro.benchmarks.classic import classic_names

OPTIONS = SynthesisOptions(assume_csc=True)

#: the 13-spec warm workload (the same suite bench_store.py measures)
def _suite() -> list[str]:
    names = classic_names(synthesizable_only=True)
    names += ["glatch_3", "glatch_5", "muller_pipeline_2", "philosophers_3"]
    return names


def _post(port: int, path: str, payload: dict, timeout: float = 60.0) -> dict:
    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def _get(port: int, path: str, timeout: float = 10.0) -> dict:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=timeout
    ) as response:
        return json.loads(response.read().decode("utf-8"))


@contextmanager
def _fleet(store, run_dir, workers: int):
    config = FleetConfig(
        port=0, workers=workers, store=str(store), run_dir=str(run_dir)
    )
    supervisor = FleetSupervisor(config, log_stream=io.StringIO())
    supervisor.start()
    stop = threading.Event()

    def supervise() -> None:
        while not stop.is_set():
            supervisor.poll()
            stop.wait(0.1)

    thread = threading.Thread(target=supervise, daemon=True)
    thread.start()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            _get(supervisor.port, "/health", timeout=2)
            break
        except OSError:
            time.sleep(0.05)
    try:
        yield supervisor
    finally:
        stop.set()
        thread.join(timeout=5)
        supervisor.stop()


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _saturate(
    port: int, names: list[str], threads: int, duration: float
) -> tuple[int, float, list[float]]:
    """Drive warm ``/synthesize`` load; returns (requests, seconds, latencies)."""
    latencies: list[list[float]] = [[] for _ in range(threads)]
    errors: list[str] = []
    barrier = threading.Barrier(threads + 1)

    def hammer(slot: int) -> None:
        barrier.wait()
        deadline = time.perf_counter() + duration
        step = 0
        while time.perf_counter() < deadline:
            name = names[(slot + step) % len(names)]
            started = time.perf_counter()
            try:
                payload = _post(port, "/synthesize", {"spec": name, "assume_csc": True})
                assert "report" in payload
            except Exception as error:  # noqa: BLE001 — a loss fails the bench
                errors.append(f"{name}: {type(error).__name__}: {error}")
                return
            latencies[slot].append(time.perf_counter() - started)
            step += 1

    workers = [threading.Thread(target=hammer, args=(i,)) for i in range(threads)]
    for worker in workers:
        worker.start()
    barrier.wait()
    started = time.perf_counter()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - started
    assert errors == [], errors[:5]
    flat = [sample for bucket in latencies for sample in bucket]
    return len(flat), elapsed, flat


def test_fleet_saturation_throughput(benchmark, perf_record, print_table, tmp_path):
    names = _suite()
    store = tmp_path / "store"
    # prewarm the shared store once: the fleet then serves memory and
    # store hits, which is the steady-state serving workload
    pipeline = Pipeline(store=store)
    for name in names:
        pipeline.run(name, OPTIONS)

    cores = os.cpu_count() or 1
    top = max(4, min(8, cores))
    concurrency = 6
    duration = 1.5
    rows = []
    by_workers: dict[str, dict] = {}
    for workers in (1, 2, top):
        with _fleet(store, tmp_path / f"run{workers}", workers) as supervisor:
            port = supervisor.port
            for name in names:  # connection/cache warmup round
                _post(port, "/synthesize", {"spec": name, "assume_csc": True})

            def measured():
                return _saturate(port, names, concurrency, duration)

            count, elapsed, latencies = (
                benchmark.pedantic(measured, iterations=1, rounds=1)
                if workers == 1
                else measured()
            )
            assert supervisor.respawns == 0  # clean run: no crashes hidden
        row = {
            "workers": workers,
            "requests": count,
            "req_per_s": round(count / elapsed, 1),
            "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 2),
            "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 2),
        }
        rows.append(row)
        by_workers[str(workers)] = row
    print_table(
        rows,
        title=(
            f"Fleet saturation — warm /synthesize, {concurrency} concurrent "
            f"clients, {cores} core(s)"
        ),
    )

    best = max(row["req_per_s"] for row in rows)
    pr5_server = 650.71  # BENCH_PR5/PR8 store section: server_specs_per_s
    perf_record["results"]["fleet"] = {
        "cores": cores,
        "concurrency": concurrency,
        "duration_s": duration,
        "saturation": by_workers,
        "best_req_per_s": best,
        "pr5_server_req_per_s": pr5_server,
        "vs_pr5_server": round(best / pr5_server, 2),
    }


def test_fleet_smoke(benchmark, tmp_path):
    """CI smoke case: a 1-worker fleet answers a request end-to-end."""
    store = tmp_path / "store"
    Pipeline(store=store).run("sequencer", OPTIONS)

    def serve_once():
        with _fleet(store, tmp_path / "run", 1) as supervisor:
            payload = _post(
                supervisor.port, "/synthesize", {"spec": "sequencer", "assume_csc": True}
            )
            assert payload["resolution"]["computed"] == 0
            return payload["report"]["synthesize"]["literals"]

    literals = benchmark.pedantic(serve_once, iterations=1, rounds=1)
    assert literals > 0
