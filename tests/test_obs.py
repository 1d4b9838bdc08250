"""Tests of the ``repro.obs`` observability subsystem.

Bottom-up, mirroring the module layout:

* metrics primitives (counter/gauge/histogram) and the *exact*
  cross-process snapshot merge the fleet supervisor performs;
* Prometheus text exposition and its ``repro top``-side parser;
* tracing primitives: span nesting, ``X-Repro-Trace`` propagation,
  stitching per-process sinks into one tree;
* the wired layers: pipeline stage metrics + spans, the SAT descent's
  phase spans and solver-work counters, the server's ``/metrics``
  endpoint, the scheduler's pool-boundary trace stitching;
* the acceptance pins: a traced request through a real 2-worker fleet
  yields a stitched client → HTTP handler → stage tree over HTTP, and
  fleet metric aggregation is elementwise-exact under seeded chaos;
* the ``repro trace`` / ``repro top`` CLI surfaces.
"""

from __future__ import annotations

import io
import json
import random
import threading
import time
import urllib.request
from contextlib import contextmanager

import pytest

from repro.api import SynthesisOptions
from repro.api.cli import main as cli_main
from repro.api.client import Client
from repro.api.fleet import FleetConfig, FleetSupervisor
from repro.api.pipeline import Pipeline
from repro.api.scheduler import Scheduler, make_jobs
from repro.api.server import create_server
from repro.api.store import ArtifactStore
from repro.obs import Obs, activate, current_obs, fleet_metrics, get_obs
from repro.obs.expose import (
    load_snapshots,
    merge_snapshots,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.metrics import DEFAULT_BUCKETS, Registry
from repro.obs.trace import (
    Tracer,
    list_traces,
    load_records,
    load_trace,
    parse_header,
    render_trace,
    span_tree,
)

OPTIONS = SynthesisOptions(level=5, assume_csc=True)


@pytest.fixture(autouse=True)
def _no_ambient_obs(monkeypatch):
    """Tests control observability explicitly, never via the caller's env."""
    monkeypatch.delenv("REPRO_OBS", raising=False)


# ---------------------------------------------------------------------- #
# Metrics primitives
# ---------------------------------------------------------------------- #


class TestMetricsPrimitives:
    def test_counter_accumulates_and_rejects_decrease(self):
        registry = Registry(service="t")
        counter = registry.counter("c_total", "help", ("kind",))
        counter.inc(kind="a")
        counter.inc(2.5, kind="a")
        counter.inc(kind="b")
        assert counter.value(kind="a") == 3.5
        assert counter.value(kind="b") == 1.0
        assert counter.value(kind="never") == 0.0
        with pytest.raises(ValueError):
            counter.inc(-1, kind="a")

    def test_label_names_are_enforced(self):
        registry = Registry()
        counter = registry.counter("c_total", labelnames=("kind",))
        with pytest.raises(ValueError):
            counter.inc()  # missing label
        with pytest.raises(ValueError):
            counter.inc(kind="a", extra="b")  # undeclared label

    def test_gauge_set_inc_dec(self):
        gauge = Registry().gauge("g")
        gauge.set(4.0)
        gauge.inc()
        gauge.dec(2.0)
        assert gauge.value() == 3.0

    def test_histogram_buckets_observations_exactly(self):
        hist = Registry().histogram("h_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.1, 0.5, 5.0, 100.0):
            hist.observe(value)
        snapshot = hist._to_snapshot()
        series = snapshot["series"][json.dumps([])]
        # <=0.1: 0.05 and the boundary 0.1; <=1.0: 0.5; <=10: 5.0; overflow: 100
        assert series["counts"] == [2, 1, 1, 1]
        assert series["count"] == 5
        assert series["sum"] == pytest.approx(105.65)

    def test_histogram_quantile_is_a_bucket_bound(self):
        hist = Registry().histogram("h_seconds", buckets=(0.1, 1.0, 10.0))
        assert hist.quantile(0.5) is None  # empty
        for _ in range(99):
            hist.observe(0.05)
        hist.observe(5.0)
        assert hist.quantile(0.5) == 0.1
        assert hist.quantile(1.0) == 10.0

    def test_default_buckets_are_shared_and_sorted(self):
        assert DEFAULT_BUCKETS == tuple(sorted(DEFAULT_BUCKETS))
        assert DEFAULT_BUCKETS[0] == pytest.approx(0.0005)
        assert len(DEFAULT_BUCKETS) == 20

    def test_registry_get_or_create_is_idempotent_but_kind_strict(self):
        registry = Registry()
        a = registry.counter("x_total")
        assert registry.counter("x_total") is a
        with pytest.raises(ValueError):
            registry.gauge("x_total")


# ---------------------------------------------------------------------- #
# Snapshot persistence and the exact cross-process merge
# ---------------------------------------------------------------------- #


def _seeded_registry(service: str, seed: int) -> Registry:
    """A registry with deterministic pseudo-random content (a fake worker)."""
    rng = random.Random(seed)
    registry = Registry(service=service)
    counter = registry.counter("repro_requests_total", "", ("endpoint",))
    hist = registry.histogram("repro_request_seconds", "", ("endpoint",))
    gauge = registry.gauge("repro_fleet_workers")
    for _ in range(rng.randint(20, 60)):
        endpoint = rng.choice(("synthesize", "verify", "health"))
        counter.inc(rng.randint(1, 5), endpoint=endpoint)
        hist.observe(rng.uniform(0.0001, 300.0), endpoint=endpoint)
    gauge.set(rng.randint(1, 8))
    return registry


class TestSnapshotMerge:
    def test_merge_is_elementwise_exact(self, tmp_path):
        registries = [_seeded_registry(f"w{i}", seed=100 + i) for i in range(4)]
        for registry in registries:
            registry.write_snapshot(tmp_path / f"metrics-{registry.service}.json")
        snapshots = load_snapshots(tmp_path)
        assert len(snapshots) == 4
        merged = merge_snapshots(snapshots)
        assert merged["merged_from"] == 4

        # counters: merged value == arithmetic sum over the per-file values
        for key in merged["metrics"]["repro_requests_total"]["series"]:
            expected = sum(
                s["metrics"]["repro_requests_total"]["series"].get(key, 0.0)
                for s in snapshots
            )
            assert merged["metrics"]["repro_requests_total"]["series"][key] == expected

        # histograms: per-bucket counts, sum and count all add exactly
        family = merged["metrics"]["repro_request_seconds"]
        for key, series in family["series"].items():
            per_file = [
                s["metrics"]["repro_request_seconds"]["series"].get(key)
                for s in snapshots
            ]
            per_file = [p for p in per_file if p is not None]
            for slot in range(len(family["buckets"]) + 1):
                assert series["counts"][slot] == sum(
                    p["counts"][slot] for p in per_file
                )
            assert series["count"] == sum(p["count"] for p in per_file)
            assert series["sum"] == pytest.approx(sum(p["sum"] for p in per_file))

    def test_damaged_snapshot_degrades_to_skipped(self, tmp_path):
        _seeded_registry("w0", 1).write_snapshot(tmp_path / "metrics-w0.json")
        (tmp_path / "metrics-torn.json").write_text('{"metrics": {"x"')
        (tmp_path / "metrics-list.json").write_text("[1, 2]")
        snapshots = load_snapshots(tmp_path)
        assert len(snapshots) == 1

    def test_mixed_bucket_boundaries_are_not_merged(self):
        a = Registry("a")
        a.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        b = Registry("b")
        b.histogram("h", buckets=(1.0, 4.0)).observe(0.5)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        series = merged["metrics"]["h"]["series"][json.dumps([])]
        assert series["count"] == 1  # the mismatched snapshot was skipped

    def test_write_snapshot_is_atomic_and_isolated(self, tmp_path):
        registry = Registry("w")
        counter = registry.counter("c_total")
        counter.inc()
        path = registry.write_snapshot(tmp_path / "metrics-w.json")
        before = json.loads(path.read_text())
        counter.inc(10)  # later mutation must not leak into the old document
        assert before["metrics"]["c_total"]["series"][json.dumps([])] == 1.0
        assert not list(tmp_path.glob("*.tmp"))


# ---------------------------------------------------------------------- #
# Prometheus exposition
# ---------------------------------------------------------------------- #


class TestPrometheus:
    def test_render_and_parse_roundtrip(self):
        registry = _seeded_registry("w", seed=7)
        text = render_prometheus(registry.snapshot())
        assert "# TYPE repro_requests_total counter" in text
        assert "# TYPE repro_request_seconds histogram" in text
        families = parse_prometheus(text)
        for endpoint in ("synthesize", "verify", "health"):
            key = (("endpoint", endpoint),)
            if key in families["repro_requests_total"]:
                assert families["repro_requests_total"][key] == registry.counter(
                    "repro_requests_total", labelnames=("endpoint",)
                ).value(endpoint=endpoint)

    def test_histogram_exposition_is_cumulative_with_inf(self):
        registry = Registry("w")
        hist = registry.histogram("h_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 99.0):
            hist.observe(value)
        text = render_prometheus(registry.snapshot())
        lines = [l for l in text.splitlines() if l.startswith("h_seconds")]
        assert 'h_seconds_bucket{le="0.1"} 1' in lines
        assert 'h_seconds_bucket{le="1"} 2' in lines
        assert 'h_seconds_bucket{le="+Inf"} 3' in lines
        assert "h_seconds_count 3" in lines
        assert any(l.startswith("h_seconds_sum") for l in lines)


# ---------------------------------------------------------------------- #
# Tracing primitives
# ---------------------------------------------------------------------- #


class TestTracePrimitives:
    def test_header_roundtrip_and_malformed_values(self):
        tracer = Tracer(service="t")
        with tracer.span("root") as span:
            header = span.context.to_header()
        context = parse_header(header)
        assert context.trace_id == span.trace_id
        assert context.span_id == span.span_id
        for bad in (None, "", "justonepart", ":", "abc:", ":def", "xyz!:123", 7):
            assert parse_header(bad) is None

    def test_spans_nest_via_the_thread_local_stack(self, tmp_path):
        sink = tmp_path / "trace-t.jsonl"
        tracer = Tracer(sink=sink, service="t")
        with tracer.span("outer") as outer:
            assert tracer.current() == outer.context
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        assert tracer.current() is None
        records = load_records(tmp_path)
        assert [r["name"] for r in records] == ["inner", "outer"]  # finish order
        assert records[0]["parent"] == records[1]["span"]

    def test_explicit_parent_adopts_the_remote_context(self):
        tracer = Tracer(service="worker")
        remote = parse_header("aaaa1111:bbbb2222")
        with tracer.span("http:/synthesize", parent=remote) as span:
            assert span.trace_id == "aaaa1111"
            assert span.parent_id == "bbbb2222"

    def test_error_status_and_timers(self, tmp_path):
        tracer = Tracer(sink=tmp_path / "trace-t.jsonl", service="t")
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                time.sleep(0.01)
                raise RuntimeError("x")
        (record,) = load_records(tmp_path)
        assert record["status"] == "error"
        assert record["seconds"] >= 0.01
        assert record["cpu_seconds"] >= 0.0

    def test_sinkless_tracer_counts_but_drops(self):
        tracer = Tracer(service="t")
        with tracer.span("a"):
            pass
        assert tracer.emitted == 1

    def test_stitching_tolerates_torn_lines_and_orphans(self, tmp_path):
        tracer = Tracer(sink=tmp_path / "trace-a.jsonl", service="a")
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        # a torn final line from a SIGKILLed process
        with open(tmp_path / "trace-a.jsonl", "a") as handle:
            handle.write('{"trace": "deadbeef", "span": "tr')
        # an orphan whose parent never reached any sink
        (tmp_path / "trace-b.jsonl").write_text(
            json.dumps(
                {
                    "trace": "cafecafe",
                    "span": "0011",
                    "parent": "lost",
                    "name": "orphan",
                    "start": 1.0,
                    "seconds": 0.5,
                }
            )
            + "\n"
        )
        records = load_records(tmp_path)
        assert len(records) == 3
        roots = span_tree(load_trace(tmp_path, "cafecafe"))
        assert len(roots) == 1 and roots[0]["record"]["name"] == "orphan"
        summaries = list_traces(tmp_path)
        assert {s["trace"] for s in summaries} == {
            records[0]["trace"],
            "cafecafe",
        }

    def test_render_trace_draws_the_tree(self, tmp_path):
        tracer = Tracer(sink=tmp_path / "trace-t.jsonl", service="svc")
        with tracer.span("root") as root:
            with tracer.span("left"):
                pass
            with tracer.span("right"):
                pass
        text = render_trace(load_trace(tmp_path, root.trace_id))
        assert text.startswith(f"trace {root.trace_id}")
        assert "└─ root" in text
        assert "├─ left" in text
        assert "└─ right" in text
        assert "[svc]" in text
        assert render_trace([]) == "(no spans)"


# ---------------------------------------------------------------------- #
# The Obs bundle: grammar, env resolution, activation
# ---------------------------------------------------------------------- #


class TestObsBundle:
    def test_grammar_roundtrip(self, tmp_path):
        obs = Obs.parse(f"dir={tmp_path};service=cli;trace=off")
        assert obs.dir == tmp_path
        assert obs.service == "cli"
        assert not obs.trace_enabled and obs.metrics_enabled
        again = Obs.parse(obs.to_text())
        assert again.dir == obs.dir
        assert again.trace_enabled == obs.trace_enabled

    def test_off_tokens_and_bad_clauses(self):
        for text in ("off", "", "0", "false", "no"):
            assert Obs.parse(text) is None
        assert Obs.parse("on") is not None
        with pytest.raises(ValueError):
            Obs.parse("bogus")
        with pytest.raises(ValueError):
            Obs.parse("color=red")

    def test_get_obs_resolution_order(self, monkeypatch, tmp_path):
        assert get_obs(None) is None  # env unset by the autouse fixture
        monkeypatch.setenv("REPRO_OBS", "on")
        assert get_obs(None) is not None
        monkeypatch.setenv("REPRO_OBS", "off")
        assert get_obs(None) is None
        explicit = Obs()
        assert get_obs(explicit) is explicit
        parsed = get_obs(f"dir={tmp_path}")
        assert parsed is not None and parsed.dir == tmp_path

    def test_activate_scopes_the_thread_local(self):
        obs = Obs()
        assert current_obs() is None
        with activate(obs):
            assert current_obs() is obs
            with activate(None):
                assert current_obs() is None
            assert current_obs() is obs
        assert current_obs() is None

    def test_snapshot_path_and_trace_sink_live_in_dir(self, tmp_path):
        obs = Obs(dir=tmp_path, service="svc")
        assert obs.snapshot_path == tmp_path / "metrics-svc.json"
        assert obs.tracer.sink == tmp_path / "trace-svc.jsonl"
        obs.requests.inc(endpoint="health")
        assert obs.write_snapshot() == obs.snapshot_path
        assert Obs(service="nodir").write_snapshot() is None

    def test_render_metrics_is_prometheus_text(self):
        obs = Obs(service="svc")
        obs.requests.inc(endpoint="health")
        families = parse_prometheus(obs.render_metrics())
        assert families["repro_requests_total"][(("endpoint", "health"),)] == 1.0


# ---------------------------------------------------------------------- #
# Pipeline + SAT wiring
# ---------------------------------------------------------------------- #


class TestPipelineObs:
    def test_stage_resolutions_mirror_the_adhoc_counters(self, tmp_path):
        obs = Obs()
        pipeline = Pipeline(store=tmp_path / "store", obs=obs)
        pipeline.run("sequencer", OPTIONS)
        pipeline.run("sequencer", OPTIONS)  # memory hits
        computed = sum(
            obs.stage_resolutions.value(stage=stage, source="computed")
            for stage in pipeline.stage_calls
        )
        assert computed == sum(pipeline.stage_calls.values())
        assert obs.stage_resolutions.value(stage="synthesize", source="memory") >= 1
        # a fresh pipeline over the same store resolves from disk
        pipeline2 = Pipeline(store=tmp_path / "store", obs=obs)
        pipeline2.run("sequencer", OPTIONS)
        assert obs.stage_resolutions.value(stage="synthesize", source="store") >= 1
        # wall and CPU timers saw every computed stage
        snapshot = obs.stage_seconds._to_snapshot()
        observed = sum(s["count"] for s in snapshot["series"].values())
        assert observed == computed
        cpu = obs.stage_cpu_seconds._to_snapshot()
        assert sum(s["count"] for s in cpu["series"].values()) == computed

    def test_store_reads_and_writes_are_counted(self, tmp_path):
        obs = Obs()
        store = ArtifactStore(tmp_path / "store", obs=obs)
        pipeline = Pipeline(store=store, obs=obs)
        pipeline.run("sequencer", OPTIONS)
        assert obs.store_writes.value() == store.writes
        assert obs.store_reads.value(outcome="miss") == store.misses
        pipeline.evict_cache()
        pipeline.run("sequencer", OPTIONS)  # memory evicted: store hits
        assert obs.store_reads.value(outcome="hit") == store.hits >= 1

    def test_stage_spans_nest_under_the_active_span(self, tmp_path):
        obs = Obs(dir=tmp_path / "run", service="test")
        pipeline = Pipeline(obs=obs)
        with obs.tracer.span("caller") as caller:
            pipeline.run("sequencer", OPTIONS)
        records = load_trace(tmp_path / "run", caller.trace_id)
        by_name = {r["name"]: r for r in records}
        assert "stage:synthesize" in by_name
        (root,) = span_tree(records)
        assert root["record"]["name"] == "caller"
        # analyze/refine nest under synthesize, which nests under caller
        synth = next(
            n for n in root["children"] if n["record"]["name"] == "stage:synthesize"
        )
        nested = {n["record"]["name"] for n in synth["children"]}
        assert "stage:analyze" in nested

    def test_sat_descent_reports_phases_and_solver_work(self, tmp_path):
        obs = Obs(dir=tmp_path / "run", service="test")
        pipeline = Pipeline(obs=obs)
        with obs.tracer.span("caller") as caller:
            pipeline.run("sequencer", OPTIONS, backend="sat")
        # solver work counters came up through the thread-local seam
        assert obs.sat_work.value(kind="propagations") > 0
        assert obs.sat_work.value(kind="decisions") > 0
        phases = obs.sat_phase_seconds._to_snapshot()["series"]
        phase_names = {json.loads(key)[0] for key in phases}
        assert phase_names == {"cubes", "literals", "enumerate"}
        # each phase ran once per (signal, kind) cover problem
        counts = {json.loads(k)[0]: v["count"] for k, v in phases.items()}
        assert counts["cubes"] == counts["literals"] == counts["enumerate"]
        # and the sat:* spans nest under the synthesize stage span
        records = load_trace(tmp_path / "run", caller.trace_id)
        sat_spans = [r for r in records if r["name"].startswith("sat:")]
        assert sat_spans
        stage = next(r for r in records if r["name"] == "stage:synthesize")
        parents = {r["parent"] for r in sat_spans}
        assert parents == {stage["span"]}

    def test_obs_off_records_nothing(self, tmp_path):
        pipeline = Pipeline(store=tmp_path / "store")
        assert pipeline.obs is None
        pipeline.run("sequencer", OPTIONS)
        assert pipeline.store.obs is None


# ---------------------------------------------------------------------- #
# Server: /metrics and request accounting
# ---------------------------------------------------------------------- #


@contextmanager
def _served(tmp_path, **kwargs):
    server = create_server(port=0, store=tmp_path / "store", **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _scrape(port: int) -> tuple[str, str]:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/metrics", timeout=10
    ) as response:
        return (
            response.read().decode("utf-8"),
            response.headers.get("Content-Type", ""),
        )


class TestServerObs:
    def test_metrics_endpoint_disabled_is_a_hint(self, tmp_path):
        with _served(tmp_path) as (_, port):
            text, content_type = _scrape(port)
        assert "disabled" in text
        assert content_type.startswith("text/plain")

    def test_metrics_endpoint_exposes_request_series(self, tmp_path):
        obs = Obs(service="server")
        with _served(tmp_path, obs=obs) as (server, port):
            client = Client(f"http://127.0.0.1:{port}")
            client.synthesize("sequencer", assume_csc=True)
            client.synthesize("sequencer", assume_csc=True)
            client.health()
            text, content_type = _scrape(port)
        assert content_type.startswith("text/plain; version=0.0.4")
        families = parse_prometheus(text)
        requests = families["repro_requests_total"]
        assert requests[(("endpoint", "synthesize"),)] == 2.0
        assert requests[(("endpoint", "health"),)] == 1.0
        # the stage resolution series carry the computed/memory split
        resolutions = families["repro_stage_resolutions_total"]
        assert (
            resolutions[(("source", "computed"), ("stage", "synthesize"))] == 1.0
        )
        assert (
            resolutions[(("source", "memory"), ("stage", "synthesize"))] == 1.0
        )
        hist = families["repro_request_seconds_count"]
        assert hist[(("endpoint", "synthesize"),)] == 2.0

    def test_request_errors_are_counted(self, tmp_path):
        obs = Obs(service="server")
        with _served(tmp_path, obs=obs) as (_, port):
            client = Client(f"http://127.0.0.1:{port}")
            with pytest.raises(Exception):
                client.synthesize("no_such_benchmark_anywhere")
        assert obs.request_errors.value(endpoint="synthesize") == 1.0
        assert obs.requests.value(endpoint="synthesize") == 1.0

    def test_post_without_header_is_traced_as_a_root(self, tmp_path):
        run = tmp_path / "run"
        obs = Obs(dir=run, service="server")
        with _served(tmp_path, obs=obs) as (_, port):
            Client(f"http://127.0.0.1:{port}").synthesize(
                "sequencer", assume_csc=True
            )
            Client(f"http://127.0.0.1:{port}").health()  # probe GET: untraced
        records = load_records(run)
        roots = [r for r in records if r["parent"] is None]
        assert [r["name"] for r in roots] == ["http:/synthesize"]

    def test_propagated_header_stitches_client_and_server(self, tmp_path):
        run = tmp_path / "run"
        server_obs = Obs(dir=run, service="server")
        client_obs = Obs(dir=run, service="client")
        with _served(tmp_path, obs=server_obs) as (_, port):
            client = Client(f"http://127.0.0.1:{port}", obs=client_obs)
            client.synthesize("sequencer", assume_csc=True)
        (summary,) = list_traces(run)
        assert summary["services"] == ["client", "server"]
        (root,) = span_tree(load_trace(run, summary["trace"]))
        assert root["record"]["name"] == "client:POST /synthesize"
        (http,) = root["children"]
        assert http["record"]["name"] == "http:/synthesize"
        assert http["record"]["service"] == "server"


# ---------------------------------------------------------------------- #
# Scheduler: spans and snapshots across the process-pool boundary
# ---------------------------------------------------------------------- #


class TestSchedulerObs:
    def test_sequential_jobs_count_into_the_registry(self, tmp_path):
        obs = Obs()
        scheduler = Scheduler(jobs=None, store=tmp_path / "store", obs=obs)
        results = list(scheduler.iter_results(make_jobs(["sequencer"], OPTIONS)))
        assert results[0].ok
        assert obs.jobs.value(status="start") == 1.0
        assert obs.jobs.value(status="done") == 1.0

    def test_pool_jobs_stitch_under_the_submitting_span(self, tmp_path):
        run = tmp_path / "run"
        obs = Obs(dir=run, service="driver")
        scheduler = Scheduler(jobs=2, store=tmp_path / "store", obs=obs)
        names = ["sequencer", "handshake_seq"]
        with obs.tracer.span("batch") as batch:
            results = list(scheduler.iter_results(make_jobs(names, OPTIONS)))
        assert all(r.ok for r in results)

        records = load_trace(run, batch.trace_id)
        jobs = [r for r in records if r["name"].startswith("job:")]
        assert {r["name"] for r in jobs} == {f"job:{n}" for n in names}
        # every pool-side job span adopted the submitting span as parent,
        # from a different process
        assert {r["parent"] for r in jobs} == {batch.span_id}
        driver_pid = next(r for r in records if r["name"] == "batch")["pid"]
        assert all(r["pid"] != driver_pid for r in jobs)
        # stage spans nest under their job span inside the pool process
        stages = [r for r in records if r["name"] == "stage:synthesize"]
        assert {r["parent"] for r in stages} <= {r["span"] for r in jobs}

        # every pool process flushed a snapshot; the merge sees all work
        merged = fleet_metrics(run)
        series = merged["metrics"]["repro_stage_resolutions_total"]["series"]
        computed = sum(
            value
            for key, value in series.items()
            if json.loads(key)[1] == "computed"
        )
        per_file = sum(
            value
            for snapshot in load_snapshots(run)
            for key, value in snapshot["metrics"]
            .get("repro_stage_resolutions_total", {"series": {}})["series"]
            .items()
            if json.loads(key)[1] == "computed"
        )
        assert computed == per_file > 0


# ---------------------------------------------------------------------- #
# Acceptance: the real 2-worker fleet over HTTP
# ---------------------------------------------------------------------- #


@contextmanager
def _running_fleet(tmp_path, **overrides):
    settings = dict(
        port=0,
        workers=2,
        store=str(tmp_path / "store"),
        run_dir=str(tmp_path / "run"),
        heartbeat_interval=0.1,
        obs="on",
    )
    settings.update(overrides)
    supervisor = FleetSupervisor(FleetConfig(**settings), log_stream=io.StringIO())
    supervisor.start()
    stop = threading.Event()

    def supervise() -> None:
        while not stop.is_set():
            supervisor.poll()
            stop.wait(0.05)

    thread = threading.Thread(target=supervise, daemon=True)
    thread.start()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            urllib.request.urlopen(
                f"http://127.0.0.1:{supervisor.port}/health", timeout=2
            )
            break
        except OSError:
            time.sleep(0.05)
    try:
        yield supervisor
    finally:
        stop.set()
        thread.join(timeout=5)
        supervisor.stop()


class TestFleetObsAcceptance:
    def test_traced_request_stitches_across_the_fleet(self, tmp_path):
        run_dir = tmp_path / "run"
        with _running_fleet(tmp_path) as supervisor:
            client = Client(
                f"http://127.0.0.1:{supervisor.port}",
                obs=Obs(dir=run_dir, service="client"),
                retries=4,
                backoff=0.1,
                timeout=60,
            )
            result = client.synthesize("sequencer", level=5, assume_csc=True)
            assert result.resolution["computed"] > 0  # genuinely cold

        # exactly one trace: client span -> worker http span -> nested
        # stage spans, across two processes
        traces = [
            t for t in list_traces(run_dir) if t["root"] == "client:POST /synthesize"
        ]
        assert len(traces) == 1
        summary = traces[0]
        assert summary["services"][0] == "client"
        assert any(s.startswith("worker") for s in summary["services"])
        records = load_trace(run_dir, summary["trace"])
        (root,) = span_tree(records)
        assert root["record"]["name"] == "client:POST /synthesize"
        assert root["record"]["service"] == "client"
        (http,) = root["children"]
        assert http["record"]["name"] == "http:/synthesize"
        assert http["record"]["service"].startswith("worker")
        (synth,) = http["children"]
        assert synth["record"]["name"] == "stage:synthesize"
        nested = {n["record"]["name"] for n in synth["children"]}
        assert "stage:analyze" in nested
        # the rendered tree is what `repro trace show` prints
        text = render_trace(records)
        assert "client:POST /synthesize" in text and "stage:synthesize" in text

    def test_fleet_aggregation_is_exact_under_seeded_chaos(self, tmp_path):
        run_dir = tmp_path / "run"
        specs = ["sequencer", "handshake_seq", "glatch_3"]
        with _running_fleet(
            tmp_path, faults="seed=11;stage.delay@synthesize=0.4~0.05"
        ) as supervisor:
            client = Client(
                f"http://127.0.0.1:{supervisor.port}",
                retries=8,
                backoff=0.1,
                timeout=60,
            )
            failures: list[str] = []
            served = [0]
            lock = threading.Lock()

            def load(slot: int) -> None:
                for step in range(6):
                    name = specs[(slot + step) % len(specs)]
                    try:
                        client.synthesize(name, level=5, assume_csc=True)
                        with lock:
                            served[0] += 1
                    except Exception as error:  # noqa: BLE001 — collected
                        failures.append(f"{name}: {error!r}")

            threads = [
                threading.Thread(target=load, args=(i,)) for i in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert failures == []
            time.sleep(0.4)  # at least one heartbeat flush after the load
            merged = supervisor.metrics()

        assert merged is not None and merged["merged_from"] >= 3
        snapshots = load_snapshots(run_dir)
        # counters: each merged series equals the arithmetic sum of the
        # per-process snapshot files — elementwise, exactly
        for name in ("repro_requests_total", "repro_stage_resolutions_total"):
            for key, value in merged["metrics"][name]["series"].items():
                expected = sum(
                    s["metrics"].get(name, {"series": {}})["series"].get(key, 0.0)
                    for s in snapshots
                )
                assert value == expected, (name, key)
        # histogram buckets add exactly too
        family = merged["metrics"]["repro_request_seconds"]
        for key, series in family["series"].items():
            per_file = [
                s["metrics"]
                .get("repro_request_seconds", {"series": {}})["series"]
                .get(key)
                for s in snapshots
            ]
            per_file = [p for p in per_file if p is not None]
            assert series["counts"] == [
                sum(counts) for counts in zip(*(p["counts"] for p in per_file))
            ]
            assert series["count"] == sum(p["count"] for p in per_file)
        # and the fleet served every request the clients sent: the final
        # worker snapshots (flushed on drain) account for all 18
        synthesize_total = sum(
            value
            for key, value in merged["metrics"]["repro_requests_total"][
                "series"
            ].items()
            if json.loads(key) == ["synthesize"]
        )
        assert synthesize_total >= served[0] == 18
        # the supervisor's own gauge is part of the merge
        assert merged["metrics"]["repro_fleet_workers"]["series"][
            json.dumps([])
        ] == 2.0


# ---------------------------------------------------------------------- #
# CLI: repro trace / repro top
# ---------------------------------------------------------------------- #


def _run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestObsCli:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        obs = Obs(dir=tmp_path / "run", service="cli")
        pipeline = Pipeline(obs=obs)
        with obs.tracer.span("cli:synthesize"):
            pipeline.run("sequencer", OPTIONS)
        obs.write_snapshot()
        return tmp_path / "run"

    def test_trace_ls_and_show(self, capsys, run_dir):
        code, out, _ = _run_cli(capsys, "trace", "ls", "--dir", str(run_dir))
        assert code == 0
        assert "cli:synthesize" in out
        trace_id = out.split()[0]
        code, out, _ = _run_cli(capsys, "trace", "show", trace_id, "--dir", str(run_dir))
        assert code == 0
        assert "stage:synthesize" in out and "ms" in out
        code, out, _ = _run_cli(
            capsys, "trace", "show", trace_id, "--dir", str(run_dir), "--json"
        )
        assert code == 0
        records = json.loads(out)
        assert all(r["trace"] == trace_id for r in records)

    def test_trace_show_requires_an_id_and_real_trace(self, capsys, run_dir):
        code, _, err = _run_cli(capsys, "trace", "show", "--dir", str(run_dir))
        assert code == 2 and "trace id" in err
        code, _, err = _run_cli(
            capsys, "trace", "show", "feedc0de", "--dir", str(run_dir)
        )
        assert code == 2 and "no spans" in err

    def test_trace_ls_empty_dir(self, capsys, tmp_path):
        code, out, _ = _run_cli(capsys, "trace", "ls", "--dir", str(tmp_path))
        assert code == 0 and "no traces" in out

    def test_top_once_over_a_run_dir(self, capsys, run_dir):
        code, out, _ = _run_cli(
            capsys, "top", "--run-dir", str(run_dir), "--once"
        )
        assert code == 0
        assert "repro top" in out
        assert "stages" in out and "computed" in out

    def test_top_json_sample(self, capsys, run_dir):
        code, out, _ = _run_cli(
            capsys, "top", "--run-dir", str(run_dir), "--once", "--json"
        )
        assert code == 0
        sample = json.loads(out)
        assert sample["stages"]["computed"] >= 1
        assert sample["req_per_s"] is None  # single sample: no rate yet

    def test_top_over_a_live_server_url(self, capsys, tmp_path):
        obs = Obs(service="server")
        with _served(tmp_path, obs=obs) as (_, port):
            Client(f"http://127.0.0.1:{port}").synthesize(
                "sequencer", assume_csc=True
            )
            code, out, _ = _run_cli(
                capsys,
                "top",
                "--url",
                f"http://127.0.0.1:{port}",
                "--iterations",
                "2",
                "--interval",
                "0.05",
            )
        assert code == 0
        assert "requests" in out

    def test_top_requires_exactly_one_source(self, capsys, tmp_path):
        code, out, _ = _run_cli(capsys, "top", "--once")
        assert code == 2
        code, out, _ = _run_cli(
            capsys,
            "top",
            "--once",
            "--run-dir",
            str(tmp_path),
            "--url",
            "http://127.0.0.1:1",
        )
        assert code == 2

    def test_top_unreachable_source_fails_cleanly(self, capsys, tmp_path):
        code, out, _ = _run_cli(
            capsys, "top", "--once", "--url", "http://127.0.0.1:9"
        )
        assert code == 1 and "cannot sample" in out
