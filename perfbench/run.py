"""The repository's benchmark: one workload, its end-to-end metrics, checked.

    python3 perfbench/run.py --workload structural_scalable --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``structural_scalable``,
``statebased_verified``, ``exact_registry`` and ``serve_mixed``.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it has the per-layer metrics of a
separate traced run instead.  The line before it is an ``info`` object:
the machine, the tail percentile used and its sample count, the traffic
shares.  Every operation's output is checked against an independently
certified reference (``oracle.py``); ``correct`` is false if any fails.

The program is driven only through its public entry points:
``repro.api.Pipeline`` in a worker process, and ``repro serve`` with
``repro.api.client.Client`` for ``serve_mixed``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: worker start-ups per compute run, for the median setup_s
COMPUTE_SETUPS = 5

#: hard limit on one run, below the 180 s a run may take
RUN_DEADLINE = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    """The environment of every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class Watched:
    """A child process that is killed if it outlives ``limit`` seconds."""

    def __init__(self, command, limit: float):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True
        )
        self.timer = threading.Timer(limit, self.kill)
        self.timer.daemon = True
        self.timer.start()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()

    def finish(self, interrupt: bool = False, grace: float = 30.0) -> str:
        """Reap the process and return the rest of its stdout.

        With ``interrupt`` it is sent SIGINT and killed if it has not ended
        ``grace`` seconds later; otherwise it may run until its limit.
        """
        if interrupt and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            rest, _ = self.proc.communicate(timeout=grace if interrupt else None)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rest, _ = self.proc.communicate()
        self.timer.cancel()
        return rest or ""


# ---------------------------------------------------------------------- #
# Judging
# ---------------------------------------------------------------------- #


def reference(name: str, source, options: dict, expected_error=None) -> dict:
    """Compute and independently certify the reference outcome of one spec.

    A spec whose outcome cannot be certified (an unexpected error, a circuit
    where an error was expected, or a circuit the oracle rejects) gets a
    ``broken`` reference, which no operation matches.
    """
    from repro.api import Pipeline, Spec
    from oracle import OracleError, certify, summarize

    spec = Spec.load(source)
    try:
        report = Pipeline().run(spec, **options)
    except Exception as error:  # noqa: BLE001
        if expected_error is None:
            return {"broken": f"{name}: {type(error).__name__}: {error}", "states": None}
        return {"error": expected_error, "states": None}
    if expected_error is not None:
        return {"broken": f"{name}: expected {expected_error}, got a circuit", "states": None}
    ref = summarize(report)
    try:
        ref["states"] = certify(name, spec.stg, report.synthesis.circuit, ref["literals"])
    except OracleError as error:
        return {"broken": f"{name}: {error}", "states": None}
    return ref


#: report flags that must be present and true wherever the reference has them
VERDICTS = ("speed_independent", "equivalent")


def matches(ref: dict, got: dict) -> bool:
    """Whether one operation's outcome equals its certified reference."""
    if "broken" in ref:
        return False
    if "error" in ref:
        return got.get("error") == ref["error"]
    if "error" in got:
        return False
    if any(got.get(key) != ref[key] for key in ("digest", "literals", "area")):
        return False
    return all(got.get(key) is True for key in VERDICTS if key in ref)


def quality(ops, keys) -> tuple[float, float]:
    """Literals and area summed once per distinct spec (first operation)."""
    first = {}
    for key, got in ops:
        if key in keys and key not in first and "error" not in got:
            first[key] = got
    literals = sum(got["literals"] for got in first.values())
    area = sum(got["area"] or 0 for got in first.values())
    return float(literals), float(area)


def uncalibrated(seconds, rate, setups, slices) -> dict:
    """The raw wall-time figures beside the calibrated metrics, for the info line."""
    return {
        "setup_s": statistics.median(setups),
        "throughput_per_s": rate,
        "latency_p50_ms": statistics.median(seconds) * 1000.0,
        "slice_ms_median": statistics.median(slices) * 1000.0,
    }


def save_times(workload: str, times) -> None:
    """Keep the measured operation times for later analysis."""
    with open(os.path.join(OUT, f"{workload}-times.json"), "w", encoding="utf-8") as handle:
        json.dump(times, handle)


def end_to_end(seconds, rate, tail, ok, setups, rss, literals, area) -> dict:
    """The end-to-end metrics of one run (names and units: BENCHMARK.json)."""
    return {
        "setup_s": statistics.median(setups),
        "throughput_per_s": rate,
        "latency_p50_ms": statistics.median(seconds) * 1000.0,
        "latency_tail_ms": tail * 1000.0,
        "ok_share": ok / len(seconds),
        "peak_rss_mb": rss,
        "literals_total": literals,
        "area_total": area,
    }


# ---------------------------------------------------------------------- #
# Compute workloads
# ---------------------------------------------------------------------- #


def reach_probe() -> tuple[int, int]:
    """Registry specs the exact backend decides vs. those over its budget."""
    from repro.api import Pipeline
    from repro.sat.encode import SatBudgetExceeded
    from workloads import REACH_PROBE_SPECS

    decided = exceeded = 0
    for name in REACH_PROBE_SPECS:
        try:
            Pipeline().run(name, backend="sat")
            decided += 1
        except SatBudgetExceeded:
            exceeded += 1
    return decided, exceeded


def spawn_worker(workload, seed: int, count: int, trace: bool, setup_only: bool):
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload.name, "--seed", str(seed), "--passes", str(count),
    ]
    if trace:
        command += ["--trace", "--spans-out", os.path.join(OUT, f"{workload.name}-spans.jsonl")]
    if setup_only:
        command.append("--setup-only")
    child = Watched(command, RUN_DEADLINE)
    try:
        line = child.proc.stdout.readline()
        setup = time.perf_counter() - child.started
        if line.strip() != "READY":
            raise RuntimeError(f"worker did not start: {line!r}")
    finally:
        rest = child.finish()
    if child.proc.returncode != 0:
        raise RuntimeError(f"worker exited with {child.proc.returncode}")
    payload = json.loads(rest.strip().splitlines()[-1]) if not setup_only else None
    return setup, payload


def run_compute(workload, seed: int, seconds: float, trace: bool):
    from calibrate import calibrated, slice_seconds
    from workloads import passes, tail_beyond

    count = passes(workload, seconds)
    # each start-up is timed just after a calibration slice; the start-ups
    # that only set up come first, so that no slice shares the CPU with a
    # worker that is still running its passes
    started = []
    for _ in range(0 if trace else COMPUTE_SETUPS - 1):
        started.append((slice_seconds(), spawn_worker(workload, seed, count, False, setup_only=True)[0]))
    cut = slice_seconds()
    setup, payload = spawn_worker(workload, seed, count, trace, setup_only=False)
    started.append((cut, setup))
    setups = calibrated(started)

    refs = {name: reference(name, name, workload.options) for name in workload.specs}
    judged = [payload["records"]] + ([payload["traced"]["records"]] if trace else [])
    ops = [(r["spec"], r) for records in judged for r in records]
    ok = sum(matches(refs[name], got) for name, got in ops)
    literals, area = quality(ops, set(workload.specs))
    records = payload["records"]
    times = [r["seconds"] for r in records]
    save_times(workload.name, times)
    beyond = tail_beyond(workload, count)
    # every pass is the same multiset of specs: the median pass is the rate
    rate = len(workload.specs) / statistics.median(payload["walls"])
    metrics = end_to_end(
        times, rate, sorted(times)[len(times) - 1 - beyond],
        sum(matches(refs[r["spec"]], r) for r in records), setups,
        payload["peak_rss_mb"], literals, area,
    )
    raw_walls = [0.0] * count
    for index, record in enumerate(records):
        raw_walls[index // len(workload.specs)] += record["wall_seconds"]
    info = {
        "passes": count,
        "pass_seconds": payload["walls"],
        "samples": len(times),
        "tail_percentile": 100.0 * (len(times) - beyond) / len(times),
        "samples_beyond_tail": beyond,
        "setups_s": setups,
        "uncalibrated": uncalibrated(
            [r["wall_seconds"] for r in records],
            len(workload.specs) / statistics.median(raw_walls),
            [seconds for _, seconds in started],
            payload["slices"],
        ),
        "broken_references": [ref["broken"] for ref in refs.values() if "broken" in ref],
    }
    if trace:
        traced = payload["traced"]
        layer = dict(traced["metrics"])
        traced_rate = len(workload.specs) / statistics.median(traced["walls"])
        layer["trace.overhead_ratio"] = traced_rate / rate
        layer["sat.encode.candidates"] = statistics.mean(
            r.get("candidates", 0) for r in traced["records"]
        )
        layer["sat.solver.conflicts"] = statistics.mean(
            r.get("conflicts", 0) for r in traced["records"]
        )
        layer.update(common_layer_metrics(refs))
        metrics = layer
    return metrics, info, len(ops), len(ops) - ok


def common_layer_metrics(refs: dict) -> dict:
    decided, exceeded = reach_probe()
    enumerated = [ref["states"] for ref in refs.values() if ref.get("states")]
    return {
        "sat.reach_decided": decided,
        "sat.reach_budget_exceeded": exceeded,
        "input.markings_per_spec": statistics.mean(enumerated) if enumerated else 0.0,
    }


# ---------------------------------------------------------------------- #
# serve_mixed
# ---------------------------------------------------------------------- #


class Server:
    """One ``repro serve`` process on a fresh store, pre-warmed."""

    def __init__(self, tag: str):
        from repro.api.client import Client, ClientError
        from workloads import WARM_OPTIONS, WARM_SPECS

        self.store = os.path.join(OUT, f"store-{tag}")
        self.report = os.path.join(OUT, f"server-{tag}.json")
        shutil.rmtree(self.store, ignore_errors=True)
        self.child = Watched(
            [
                sys.executable, os.path.join(HERE, "serve_launcher.py"),
                "--store", self.store, "--report", self.report,
            ],
            RUN_DEADLINE,
        )
        try:
            line = self.child.proc.stdout.readline()
            match = re.search(r"listening on (http://[\d.]+:\d+)", line)
            if match is None:
                raise RuntimeError(f"server did not start: {line!r}")
            self.client = Client(match.group(1), timeout=60.0, retries=0)
            for name in WARM_SPECS:
                try:
                    self.client.synthesize(name, **WARM_OPTIONS)
                except ClientError:
                    pass  # latch_ctrl's expected synthesis_error
        except BaseException:
            self.child.finish(interrupt=True)
            raise
        self.setup = time.perf_counter() - self.child.started

    def start_tracing(self) -> None:
        self.child.proc.send_signal(signal.SIGUSR1)
        if self.child.proc.stdout.readline().strip() != "TRACING":
            raise RuntimeError("server did not start tracing")

    def stop(self) -> dict:
        """Stop the server and return its report (peak RSS, spans)."""
        self.child.finish(interrupt=True)
        shutil.rmtree(self.store, ignore_errors=True)
        if self.child.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.child.proc.returncode}")
        with open(self.report, encoding="utf-8") as handle:
            return json.load(handle)


def drive(client, stream, payloads):
    """The closed loop: one request at a time, the next after each reply.

    Each round starts with a memory-only cache clear, which is not timed.
    Returns the ``(class, key, seconds, record)`` of every request, where
    ``seconds`` is at the reference machine speed (``calibrate.py``) and
    ``record["wall_seconds"]`` is the raw time; the time of each round
    (the sum of its requests'); and the calibration slices.
    """
    from calibrate import Calibrator
    from oracle import summarize
    from workloads import NOVEL_OPTIONS, SERVE_CALIBRATE_EVERY, WARM_OPTIONS

    calibrator = Calibrator(every=SERVE_CALIBRATE_EVERY)
    timed = []
    slice_of = []
    clock = time.perf_counter
    for number, requests in enumerate(stream):
        client.cache_clear()
        for klass, key in requests:
            payload = payloads[klass, key]
            options = NOVEL_OPTIONS if klass == "novel" else WARM_OPTIONS
            slice_of.append(calibrator.before())
            begin = clock()
            try:
                result = client.synthesize(payload, **options)
            except Exception as error:  # noqa: BLE001 — judged by the oracle
                seconds = clock() - begin
                record = {"error": getattr(error, "code", "") or type(error).__name__}
            else:
                seconds = clock() - begin
                # keep the summary, not the report: the heap stays flat
                record = {**summarize(result.report), "resolution": result.resolution}
            record["wall_seconds"] = seconds
            timed.append((klass, key, number, record))
    factors = calibrator.factors()
    walls = [0.0] * len(stream)
    for index, (klass, key, number, record) in enumerate(timed):
        seconds = record["wall_seconds"] * factors[slice_of[index]]
        walls[number] += seconds
        timed[index] = (klass, key, seconds, record)
    return timed, walls, calibrator.slices


def serve_phase(stream, payloads, trace: bool, setups: list):
    """Start a server, drive the stream through it, stop it.

    The server's start-up is added to ``setups`` with the calibration slice
    taken just before it.
    """
    from calibrate import slice_seconds
    from layers import install, layer_metrics, self_coverage
    from spans import Recorder

    cut = slice_seconds()
    server = Server("trace" if trace else "measure")
    setups.append((cut, server.setup))
    recorder = None
    try:
        if trace:
            recorder = Recorder()
            install(recorder, "client")
            server.start_tracing()
        timed, walls, slices = drive(server.client, stream, payloads)
    finally:
        report = server.stop()
    phase = {
        "timed": timed,
        "walls": walls,
        "slices": slices,
        "peak_rss_mb": report.get("peak_rss_mb", 0.0),
    }
    if trace:
        metrics = layer_metrics(report.get("spans", []), recorder.spans, len(timed))
        metrics["trace.self_coverage"] = self_coverage(
            recorder.spans, sum(record["wall_seconds"] for *_, record in timed)
        )
        metrics.update(
            {f"api.pipeline.{source}_share": share for source, share in resolution_shares(timed).items()}
        )
        phase["metrics"] = metrics
    return phase


def resolution_shares(timed) -> dict[str, float]:
    """How the server resolved the stages of the requests: each source's share."""
    sources = {"memory": 0, "store": 0, "computed": 0, "coalesced": 0}
    for _, _, _, record in timed:
        for source in sources:
            sources[source] += record.get("resolution", {}).get(source, 0)
    resolved = sum(sources.values()) or 1
    return {source: sources[source] / resolved for source in ("memory", "store", "computed")}


def class_figures(timed) -> dict[str, dict]:
    """Each request class's share of the requests and its median time."""
    by_class: dict[str, list] = {}
    for klass, _, seconds, _ in timed:
        by_class.setdefault(klass, []).append(seconds)
    return {
        klass: {"share": len(times) / len(timed), "p50_ms": statistics.median(times) * 1000.0}
        for klass, times in by_class.items()
    }


def run_serve(seed: int, seconds: float, trace: bool):
    from calibrate import calibrated, slice_seconds
    from repro.api import Spec
    from workloads import (
        EXPECTED_ERRORS, NOVEL_OPTIONS, NOVEL_PER_ROUND, SERVE_ROUND, SERVE_SETUPS, SERVE_TAIL_PERCENTILE,
        WARM_OPTIONS, WARM_SPECS, novel_specs, serve_rounds, serve_stream,
    )

    rounds = serve_rounds(seconds)
    stream = serve_stream(seed, rounds)
    novel = novel_specs(seed, NOVEL_PER_ROUND * rounds)
    payloads = {}
    for klass, key in (request for requests in stream for request in requests):
        if klass == "novel":
            payloads[klass, key] = novel[key].text
        elif klass == "inline":
            payloads[klass, key] = Spec.from_benchmark(key).text
        else:
            payloads[klass, key] = key

    setups: list = []
    phases = []
    if trace:
        phases.append(serve_phase(stream, payloads, False, setups))
        phases.append(serve_phase(stream, payloads, True, setups))
    else:
        for _ in range(SERVE_SETUPS - 1):
            cut = slice_seconds()
            server = Server("setup")
            setups.append((cut, server.setup))
            server.stop()
        phases.append(serve_phase(stream, payloads, False, setups))

    refs = {
        name: reference(name, name, WARM_OPTIONS, EXPECTED_ERRORS.get(name)) for name in WARM_SPECS
    }
    for index, spec in enumerate(novel):
        refs[index] = reference(spec.name, spec.text, NOVEL_OPTIONS)

    ops = [(key, record) for phase in phases for _, key, _, record in phase["timed"]]
    ok = sum(matches(refs[key], got) for key, got in ops)
    # novel specs change with the seed; the quality totals cover the warm set
    literals, area = quality(ops, set(WARM_SPECS))
    measured = phases[0]
    times = [t[2] for t in measured["timed"]]
    save_times("serve_mixed", [[t[0], str(t[1]), t[2]] for t in measured["timed"]])
    # every round is the same multiset of requests: take the median round
    rate = SERVE_ROUND / statistics.median(measured["walls"])
    tail = statistics.median(
        percentile(times[i : i + SERVE_ROUND], SERVE_TAIL_PERCENTILE)[0]
        for i in range(0, len(times), SERVE_ROUND)
    )
    metrics = end_to_end(
        times, rate, tail, sum(matches(refs[key], got) for key, got in ops[: len(times)]),
        calibrated(setups), measured["peak_rss_mb"], literals, area,
    )
    raw = [record["wall_seconds"] for *_, record in measured["timed"]]
    info = {
        "rounds": rounds,
        "round_seconds": measured["walls"],
        "samples": len(times),
        "tail_percentile": SERVE_TAIL_PERCENTILE,
        "samples_beyond_tail": percentile(times[:SERVE_ROUND], SERVE_TAIL_PERCENTILE)[1],
        "tail_of": "median over rounds",
        "setups_s": calibrated(setups),
        "uncalibrated": uncalibrated(
            raw,
            SERVE_ROUND / statistics.median(
                sum(raw[i : i + SERVE_ROUND]) for i in range(0, len(raw), SERVE_ROUND)
            ),
            [seconds for _, seconds in setups],
            measured["slices"],
        ),
        "classes": class_figures(measured["timed"]),
        "resolution_shares": resolution_shares(measured["timed"]),
        "broken_references": [ref["broken"] for ref in refs.values() if "broken" in ref],
    }
    if trace:
        traced = phases[1]
        layer = dict(traced["metrics"])
        layer["trace.overhead_ratio"] = statistics.median(measured["walls"]) / statistics.median(
            traced["walls"]
        )
        layer.update({f"serve.share.{k}": v["share"] for k, v in info["classes"].items()})
        layer.update(common_layer_metrics({k: v for k, v in refs.items() if k in WARM_SPECS}))
        metrics = layer
    return metrics, info, len(ops), len(ops) - ok


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #


def _deadline(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_DEADLINE} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return fail(f"the program's sources are missing (no {SRC}/repro)")
    # the store, fault and observability settings of the caller's shell
    # must not reach the program, in this process or its children
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import COMPUTE, SERVE

    if args.workload != SERVE and args.workload not in COMPUTE:
        return fail(f"unknown workload {args.workload!r}")
    os.makedirs(OUT, exist_ok=True)
    # every process of the run (this one, the worker or the server, their
    # children) shares one CPU: on a small VM, waking a process on the
    # other CPU costs more, and varies more, than the request itself
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(RUN_DEADLINE)
    load_start = os.getloadavg()
    trace = bool(args.trace)
    if args.workload == SERVE:
        metrics, info, attempted, failed = run_serve(args.seed, args.seconds, trace)
    else:
        metrics, info, attempted, failed = run_compute(
            COMPUTE[args.workload], args.seed, args.seconds, trace
        )
    signal.alarm(0)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    reported = {}
    for metric in declared:
        # a layer that does not run on this workload reports 0
        value = metrics.get(metric["name"], 0.0) if trace else metrics[metric["name"]]
        reported[metric["name"]] = {"value": float(value), "unit": metric["unit"]}
    host = {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": {"start": list(load_start), "end": list(os.getloadavg())},
    }
    print(json.dumps({"info": {"workload": args.workload, "seed": args.seed, "machine": host, **info}}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": reported,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
