"""Chaos suite: the fault-tolerant execution layer under injected faults.

Deterministic fault injection (:mod:`repro.api.faults`) drives every
hardened layer — the store's quarantine/sweep paths, the pipeline's
stage-fault hooks, the scheduler's retry/timeout/crash recovery, and the
serve daemon's shedding and readiness split — and the batch-level
invariant the hardening exists for: a faulted pool batch drains with
reports *identical* (timing aside) to a fault-free run, reproducibly by
seed.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import Pipeline, SynthesisOptions
from repro.api.client import Client, ClientError
from repro.api.events import EventLog
from repro.api.faults import (
    FaultInjector,
    FaultRule,
    InjectedIOError,
    InjectedStageError,
    get_injector,
)
from repro.api.scheduler import (
    NO_RETRY,
    JobTimeoutError,
    PoisonJobError,
    RetryPolicy,
    Scheduler,
    make_jobs,
)
from repro.api.server import create_server
from repro.api.spec import Spec
from repro.api.store import ArtifactStore
from repro.benchmarks.classic import classic_names, load_classic
from repro.synthesis.engine import SynthesisError

#: the 13-spec batch of the acceptance criterion: every synthesizable
#: classic benchmark plus four structured generators
SUITE = classic_names(synthesizable_only=True) + [
    "glatch_3",
    "glatch_5",
    "muller_pipeline_2",
    "philosophers_3",
]

OPTIONS = SynthesisOptions(level=5, assume_csc=True)


def fingerprint(report) -> str:
    """Timing-free identity of a report: circuit, literals, verdicts."""
    return json.dumps(
        [
            report.spec_name,
            report.literals,
            report.circuit.to_json() if report.circuit is not None else None,
            report.speed_independent,
        ],
        sort_keys=True,
    )


def unsafe_sequencer() -> Spec:
    """A synthesizable spec whose underlying net is *unsafe*.

    A shadow place holding two tokens self-looped on one transition forces
    the reachability layer onto the dict-based ``_reference_*`` fallback
    (the packed kernel only handles 1-safe nets) without changing the
    sequencer's behaviour — the synthesized circuit stays identical.
    """
    stg = load_classic("sequencer")
    stg.add_place("shadow")
    stg.add_arc("shadow", "req+")
    stg.add_arc("req+", "shadow")
    stg.net.set_initial_tokens("shadow", 2)
    return Spec.load(stg)


# ---------------------------------------------------------------------- #
# Grammar and determinism
# ---------------------------------------------------------------------- #


class TestGrammar:
    def test_parse_round_trips_through_to_text(self):
        text = "seed=7;worker.kill@sequencer=1x1;stage.error@synthesize=0.5;store.read=0.25;stage.delay@analyze=1x2~0.05"
        injector = FaultInjector.parse(text)
        again = FaultInjector.parse(injector.to_text())
        assert again.seed == 7
        assert again.rules == injector.rules

    def test_unknown_site_and_bad_rate_are_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultInjector.parse("disk.melt=1")
        with pytest.raises(ValueError, match="rate"):
            FaultRule(site="store.read", rate=1.5)
        with pytest.raises(ValueError, match="malformed"):
            FaultInjector.parse("store.read")

    def test_decisions_are_deterministic_by_seed(self):
        def schedule(seed: int) -> list[bool]:
            injector = FaultInjector.parse(f"seed={seed};store.read=0.5")
            return [injector.fire("store.read") is not None for _ in range(64)]

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)
        fired = sum(schedule(7))
        assert 10 < fired < 54  # a rate, not a constant

    def test_limit_caps_firings_in_counter_mode(self):
        injector = FaultInjector.parse("stage.error@synthesize=1x2")
        fired = [injector.fire("stage.error", "synthesize") is not None for _ in range(5)]
        assert fired == [True, True, False, False, False]
        assert injector.fire("stage.error", "analyze") is None  # scoped

    def test_limit_bounds_the_attempt_token_in_token_mode(self):
        injector = FaultInjector.parse("worker.kill@sequencer=1x1")
        assert injector.bind(1).fire("worker.kill", "sequencer") is not None
        assert injector.bind(2).fire("worker.kill", "sequencer") is None

    def test_get_injector_resolves_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=3;store.read=1")
        injector = get_injector(None)
        assert injector is not None and injector.seed == 3
        monkeypatch.delenv("REPRO_FAULTS")
        assert get_injector(None) is None


# ---------------------------------------------------------------------- #
# Store faults: degraded reads, dropped writes, corruption quarantine
# ---------------------------------------------------------------------- #


class TestStoreFaults:
    def test_read_fault_degrades_to_recomputation(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        Pipeline(store=store).run("sequencer", OPTIONS)  # warm the store
        faulted = Pipeline(store=store, faults="store.read=1")
        report = faulted.run("sequencer", OPTIONS)
        assert report.literals > 0
        assert faulted.stage_calls["synthesize"] == 1  # recomputed, not served

    def test_write_fault_keeps_the_computed_result(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        pipeline = Pipeline(store=store, faults="store.write=1")
        report = pipeline.run("sequencer", OPTIONS)
        assert report.literals > 0
        assert store.stats()["entries"] == 0  # nothing landed on disk

    def test_corrupt_write_is_quarantined_then_recomputed_and_repersisted(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        # exactly one entry lands truncated on disk
        writer = Pipeline(store=store, faults="store.corrupt=1x1")
        baseline = writer.run("sequencer", OPTIONS)

        reader_store = ArtifactStore(tmp_path / "store")
        reader = Pipeline(store=reader_store)
        report = reader.run("sequencer", OPTIONS)
        assert fingerprint(report) == fingerprint(baseline)
        assert reader_store.quarantined == 1
        quarantined = [
            path
            for path in reader_store.quarantine_dir.iterdir()
            if not path.name.endswith(".reason.json")
        ]
        assert len(quarantined) == 1
        reasons = list(reader_store.quarantine_dir.glob("*.reason.json"))
        assert len(reasons) == 1
        record = json.loads(reasons[0].read_text())
        assert record["reason"] == "undecodable JSON"
        # the recomputation re-persisted a good entry at the same address
        fresh = ArtifactStore(tmp_path / "store")
        warm = Pipeline(store=fresh)
        again = warm.run("sequencer", OPTIONS)
        assert fingerprint(again) == fingerprint(baseline)
        assert warm.stage_calls["synthesize"] == 0  # served from the store
        assert fresh.quarantined == 0

    def test_orphaned_tempfiles_are_swept(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(("k",), {"v": 1}, stage="analyze")
        bucket = next(iter(store._entry_paths())).parent
        orphan = bucket / ".deadbeef-kill.tmp"
        orphan.write_text("partial")
        old = time.time() - 7200
        import os

        os.utime(orphan, (old, old))
        fresh = bucket / ".cafe-live.tmp"
        fresh.write_text("live writer")
        stats = store.stats()
        assert stats["tmp_swept"] == 1  # only the old orphan
        assert stats["tmp_files"] == 1  # the young one survived
        assert not orphan.exists() and fresh.exists()
        swept = store.sweep()  # explicit sweep takes everything
        assert swept["tmp_removed"] == 1
        assert not fresh.exists()

    def test_sweep_quarantines_stale_code_versions(self, tmp_path):
        old = ArtifactStore(tmp_path / "store", code_version="repro-0.1")
        old.put(("k",), {"v": 1}, stage="analyze")
        store = ArtifactStore(tmp_path / "store")
        assert store.stats()["stale_entries"] == 1
        swept = store.sweep()
        assert swept["stale_quarantined"] == 1
        assert store.stats()["stale_entries"] == 0
        assert store.stats()["quarantined_entries"] == 1

    def test_fsync_mode_round_trips(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", fsync=True)
        store.put(("k",), {"v": 42}, stage="analyze")
        assert store.get(("k",)) == {"v": 42}

    def test_injected_errors_are_typed(self):
        injector = FaultInjector.parse("store.read=1")
        with pytest.raises(InjectedIOError):
            injector.raise_io("store.read")
        assert isinstance(InjectedIOError("x"), OSError)
        with pytest.raises(InjectedStageError):
            FaultInjector.parse("stage.error=1").stage_enter("synthesize")


# ---------------------------------------------------------------------- #
# Scheduler: retry policy, sequential mode
# ---------------------------------------------------------------------- #

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.01)


class TestRetryPolicy:
    def test_classification(self):
        policy = RetryPolicy()
        assert policy.is_retryable(OSError("disk"))
        assert policy.is_retryable(InjectedStageError("x"))
        assert policy.is_retryable(JobTimeoutError("slow"))
        assert not policy.is_retryable(SynthesisError("no CSC"))
        assert not policy.is_retryable(KeyError("bug"))
        assert policy.classify(OSError("d")) == "retryable"
        assert policy.classify(SynthesisError("n")) == "fatal"

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.35, seed=5)
        delays = [policy.delay_for(attempt, key="job") for attempt in (1, 2, 3, 4)]
        assert delays == [policy.delay_for(a, key="job") for a in (1, 2, 3, 4)]
        assert all(d <= 0.35 * 1.25 for d in delays)  # cap + jitter margin
        assert delays[0] != policy.delay_for(1, key="other")  # jitter varies


class TestSequentialRetry:
    def test_transient_stage_fault_is_retried_to_success(self):
        log = EventLog()
        scheduler = Scheduler(
            on_event=log,
            retry=FAST_RETRY,
            faults="stage.error@synthesize=1x2",
        )
        results = list(scheduler.iter_results(make_jobs(["sequencer"], OPTIONS)))
        assert len(results) == 1 and results[0].ok
        assert results[0].attempts == 3  # two injected failures, then success
        statuses = [e.status for e in log.of_kind("job")]
        assert statuses == ["start", "retry", "retry", "done"]
        assert [e.attempt for e in log.of_kind("job")] == [None, 1, 2, 3]

    def test_fatal_error_is_not_retried(self):
        log = EventLog()
        scheduler = Scheduler(on_event=log, retry=FAST_RETRY)
        # fig5 has structural CSC conflicts: a deterministic SynthesisError
        results = list(
            scheduler.iter_results(make_jobs(["fig5"], SynthesisOptions(level=5)))
        )
        assert not results[0].ok
        assert isinstance(results[0].error, SynthesisError)
        assert results[0].attempts == 1
        assert [e.status for e in log.of_kind("job")] == ["start", "error"]

    def test_retry_budget_exhaustion_surfaces_the_fault(self):
        scheduler = Scheduler(retry=FAST_RETRY, faults="stage.error@synthesize=1")
        results = list(scheduler.iter_results(make_jobs(["sequencer"], OPTIONS)))
        assert not results[0].ok
        assert isinstance(results[0].error, InjectedStageError)
        assert results[0].attempts == FAST_RETRY.max_attempts

    def test_no_retry_policy_restores_single_shot(self):
        scheduler = Scheduler(retry=NO_RETRY, faults="stage.error@synthesize=1x1")
        results = list(scheduler.iter_results(make_jobs(["sequencer"], OPTIONS)))
        assert not results[0].ok and results[0].attempts == 1

    def test_run_fail_fast_keeps_harvested_results(self):
        scheduler = Scheduler(retry=NO_RETRY)
        jobs = make_jobs(["sequencer", "fig5", "handshake_seq"], SynthesisOptions())
        with pytest.raises(SynthesisError):
            scheduler.run(jobs)
        harvested = {r.job.spec.name: r for r in scheduler.last_results}
        assert harvested["sequencer"].ok
        assert not harvested["fig5"].ok and not harvested["fig5"].cancelled
        assert "handshake_seq" not in harvested  # never started sequentially


# ---------------------------------------------------------------------- #
# Scheduler: pool mode under chaos
# ---------------------------------------------------------------------- #


class TestPoolChaos:
    CHAOS = (
        "seed=7;worker.kill@sequencer=1x1;"
        "stage.error@synthesize=0.4x2;store.read=0.2"
    )

    def _run(self, tmp_path, name, faults=None, jobs=4):
        scheduler = Scheduler(
            jobs=jobs,
            store=ArtifactStore(tmp_path / name),
            retry=FAST_RETRY,
            faults=faults,
        )
        job_list = make_jobs(SUITE, OPTIONS, verify=True)
        results = list(scheduler.iter_results(job_list))
        assert len(results) == len(SUITE)
        return results

    def test_faulted_batch_drains_identical_to_fault_free(self, tmp_path):
        clean = self._run(tmp_path, "clean")
        chaos = self._run(tmp_path, "chaos", faults=self.CHAOS)
        assert all(r.ok for r in clean)
        assert all(r.ok for r in chaos), [
            f"{r.job.spec.name}: {r.error}" for r in chaos if not r.ok
        ]
        by_name = lambda rs: {r.job.spec.name: fingerprint(r.report) for r in rs}
        assert by_name(chaos) == by_name(clean)
        # the worker kill really happened: sequencer needed a second attempt
        attempts = {r.job.spec.name: r.attempts for r in chaos}
        assert attempts["sequencer"] >= 2

    def test_chaos_run_is_deterministic_by_seed(self, tmp_path):
        # no worker.kill here: a pool crash resubmits whichever innocent
        # jobs were in flight, so *their* attempt counts are scheduling
        # noise — stage/store decisions are pure functions of the seed
        faults = "seed=7;stage.error@synthesize=0.4x2;store.read=0.2"
        first = self._run(tmp_path, "a", faults=faults)
        second = self._run(tmp_path, "b", faults=faults)
        key = lambda rs: {r.job.spec.name: (r.ok, r.attempts) for r in rs}
        assert key(first) == key(second)
        other_seed = self._run(
            tmp_path, "c", faults="seed=8;stage.error@synthesize=0.4x2;store.read=0.2"
        )
        assert key(other_seed) != key(first)  # the seed is load-bearing

    def test_unlimited_killer_is_quarantined_as_poison(self, tmp_path):
        results = self._run(
            tmp_path, "poison", faults="worker.kill@sequencer=1", jobs=2
        )
        by_name = {r.job.spec.name: r for r in results}
        poisoned = by_name["sequencer"]
        assert isinstance(poisoned.error, PoisonJobError)
        assert "quarantined" in str(poisoned.error)
        innocents = [r for r in results if r.job.spec.name != "sequencer"]
        assert all(r.ok for r in innocents), [
            f"{r.job.spec.name}: {r.error}" for r in innocents if not r.ok
        ]

    def test_deadline_abandons_and_retries_a_slow_attempt(self, tmp_path):
        log = EventLog()
        # 4 workers for 2 jobs: an abandoned (still-sleeping) attempt keeps
        # occupying its worker, so the retry needs a free one to run on
        scheduler = Scheduler(
            jobs=4,
            on_event=log,
            retry=FAST_RETRY,
            timeout=0.6,
            faults="stage.delay@synthesize=1x1~2.0",
        )
        jobs = make_jobs(["sequencer", "handshake_seq"], OPTIONS)
        results = list(scheduler.iter_results(jobs))
        assert all(r.ok for r in results), [str(r.error) for r in results if not r.ok]
        assert all(r.attempts == 2 for r in results)  # attempt 1 timed out
        statuses = [e.status for e in log.of_kind("job")]
        assert statuses.count("timeout") == 2
        assert statuses.count("retry") == 2

    def test_pool_run_fail_fast_distinguishes_cancelled_from_failed(self):
        scheduler = Scheduler(jobs=2, retry=NO_RETRY)
        names = ["fig5", "glatch_3", "glatch_5", "muller_pipeline_2", "philosophers_3"]
        with pytest.raises(SynthesisError):
            scheduler.run(make_jobs(names, SynthesisOptions()))
        by_name = {r.job.spec.name: r for r in scheduler.last_results}
        failed = by_name["fig5"]
        assert failed.error is not None and not failed.cancelled
        cancelled = [r for r in scheduler.last_results if r.cancelled]
        drained = [r for r in scheduler.last_results if r.ok]
        # queued work was cancelled, in-flight work drained — and the two
        # outcomes are distinguishable on the records
        assert all(r.error is None for r in cancelled)
        assert len(cancelled) + len(drained) + 1 <= len(names)


class TestDeadlineCrashRace:
    """The deadline × retry interplay when a pool crash races a timeout.

    Two invariants the crash-recovery path must hold: a resubmitted
    attempt runs against a *fresh* deadline (the dead attempt's deadline
    died with its future — the clock does not keep ticking across the
    respawn), and a job quarantined as poison is terminal (no later crash,
    deadline or retry may resubmit it or touch its attempt count again).
    """

    def test_crash_resubmission_resets_the_deadline_clock(self):
        # topology: a 2-worker pool runs the victim (slow: 1.0s injected
        # verify delay, 1.3s deadline) next to a 0.6s filler; the killer is
        # *queued*, so its attempt-1 kill lands ~0.65s in — mid-victim.
        # The victim's attempt 2 then runs entirely *after* its original
        # t0+1.3s deadline has passed; only a per-submission deadline
        # lets it finish.  A stale clock would fire a spurious timeout,
        # burn an attempt and emit timeout/retry events.
        log = EventLog()
        scheduler = Scheduler(
            jobs=2,
            on_event=log,
            retry=FAST_RETRY,
            faults=(
                "worker.kill@sequencer=1x1;"
                "stage.delay@verify=1~1.0;stage.delay@map=1~0.6"
            ),
        )
        victim = make_jobs(["handshake_seq"], OPTIONS, verify=True, timeout=1.3)
        filler = make_jobs(["glatch_3"], OPTIONS, map_technology=True)
        killer = make_jobs(["sequencer"], OPTIONS)
        results = list(scheduler.iter_results(victim + filler + killer))
        by_name = {r.job.spec.name: r for r in results}
        assert all(r.ok for r in results), [
            f"{r.job.spec.name}: {r.error}" for r in results if not r.ok
        ]
        struck = by_name["handshake_seq"]
        # exactly one resubmission — the crash did not double-count
        assert struck.attempts == 2
        assert by_name["sequencer"].attempts == 2
        assert by_name["glatch_3"].attempts == 1
        # the victim's total wall clock exceeded its 1.3s deadline, yet no
        # timeout fired: the deadline is per-attempt, not per-job
        assert struck.seconds > 1.3
        statuses = [event.status for event in log.of_kind("job")]
        assert "timeout" not in statuses
        assert "retry" not in statuses  # crash resubmission is silent
        victim_events = [
            event for event in log.of_kind("job") if event.spec == "handshake_seq"
        ]
        assert [event.status for event in victim_events] == ["start", "done"]
        assert victim_events[-1].attempt == 2

    def test_poison_quarantine_is_terminal_across_later_crashes(self):
        # sequencer kills every attempt (poison); handshake_seq kills only
        # its first (innocent-looking accomplice); glatch_3 is bystander.
        # Crash 1 exposes all three, crash 2 sends all three to isolation:
        # the poison job's isolation crash quarantines it, and nothing —
        # not the 30s deadline still armed, not the bystanders' later
        # results — may resubmit it or emit further events for it.
        # The jobs take milliseconds, so without the 0.5s analyze delay on
        # attempts 1-2 an innocent job could finish on the second pool
        # before its crash is noticed and never reach isolation; the
        # isolation attempts (3) run undelayed.
        log = EventLog()
        scheduler = Scheduler(
            jobs=2,
            on_event=log,
            retry=FAST_RETRY,
            timeout=30.0,
            faults=(
                "worker.kill@sequencer=1;worker.kill@handshake_seq=1x1;"
                "stage.delay@analyze=1x2~0.5"
            ),
        )
        jobs = make_jobs(["sequencer", "handshake_seq", "glatch_3"], OPTIONS)
        results = list(scheduler.iter_results(jobs))
        by_name = {r.job.spec.name: r for r in results}
        poison = by_name["sequencer"]
        assert isinstance(poison.error, PoisonJobError)
        # initial + one crash resubmission + isolation: exactly 3 attempts
        assert poison.attempts == 3
        # the accomplice and the bystander ride the same two crashes into
        # isolation and succeed there — attempts counted once per run
        assert by_name["handshake_seq"].ok
        assert by_name["handshake_seq"].attempts == 3
        assert by_name["glatch_3"].ok
        assert by_name["glatch_3"].attempts == 3
        events = log.of_kind("job")
        poison_statuses = [e.status for e in events if e.spec == "sequencer"]
        assert poison_statuses == ["start", "error"]
        # terminal: the error is the poison job's final event
        last_poison = max(i for i, e in enumerate(events) if e.spec == "sequencer")
        assert events[last_poison].status == "error"
        # the armed deadlines died with their crashed futures
        assert "timeout" not in [e.status for e in events]


# ---------------------------------------------------------------------- #
# Unsafe-net fallback under faults (satellite 4)
# ---------------------------------------------------------------------- #


class TestUnsafeFallbackUnderFaults:
    def test_reference_fallback_survives_stage_faults_with_retry(self):
        spec = unsafe_sequencer()
        from repro.petri.reachability import build_reachability_graph

        graph = build_reachability_graph(spec.stg.net)
        from repro.petri.compiled import CompiledBoundedNet

        # the safe kernel refuses the net; the k-bounded kernel handles it
        assert isinstance(graph._compiled, CompiledBoundedNet)

        baseline = Pipeline().run(spec, OPTIONS, backend="statebased")
        scheduler = Scheduler(retry=FAST_RETRY, faults="stage.error@synthesize=1x2")
        jobs = make_jobs([spec], OPTIONS, backend="statebased")
        results = list(scheduler.iter_results(jobs))
        assert results[0].ok and results[0].attempts == 3
        assert results[0].report.literals == baseline.literals
        # the unsafe net costs nothing in behaviour: same circuit as the
        # plain sequencer through the same backend
        plain = Pipeline().run("sequencer", OPTIONS, backend="statebased")
        assert results[0].report.literals == plain.literals

    def test_store_quarantine_round_trip_on_the_fallback_path(self, tmp_path):
        spec = unsafe_sequencer()
        store = ArtifactStore(tmp_path / "store")
        writer = Pipeline(store=store, faults="store.corrupt=1x1")
        baseline = writer.run(spec, OPTIONS, backend="statebased")
        reader_store = ArtifactStore(tmp_path / "store")
        reader = Pipeline(store=reader_store)
        report = reader.run(spec, OPTIONS, backend="statebased")
        assert report.literals == baseline.literals
        assert reader_store.quarantined == 1


# ---------------------------------------------------------------------- #
# Server: readiness, shedding, deadlines, structured errors
# ---------------------------------------------------------------------- #


@pytest.fixture()
def served(tmp_path):
    server = create_server(port=0, store=tmp_path / "store")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    try:
        yield server, Client(f"http://127.0.0.1:{port}", retries=0)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _serve(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread, server.server_address[1]


class TestServerResilience:
    def test_ready_is_green_with_a_writable_store(self, served):
        _, client = served
        payload = client._request("GET", "/ready")
        assert payload["ready"] is True
        assert payload["max_queue"] == 8

    def test_ready_goes_red_when_the_store_is_unreachable(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the store root should be")
        server = create_server(port=0, store=blocker / "store")
        thread, port = _serve(server)
        try:
            client = Client(f"http://127.0.0.1:{port}", retries=0)
            assert client.health()["status"] == "ok"  # liveness stays green
            with pytest.raises(ClientError) as excinfo:
                client._request("GET", "/ready")
            assert excinfo.value.status == 503
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_overload_is_shed_with_503_and_retry_after(self, tmp_path):
        server = create_server(port=0, store=tmp_path / "store", max_queue=0)
        thread, port = _serve(server)
        try:
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/synthesize",
                data=json.dumps({"spec": "sequencer", "assume_csc": True}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 503
            assert excinfo.value.headers.get("Retry-After") is not None
            body = json.loads(excinfo.value.read().decode())
            assert body["error"]["code"] == "overloaded"
            assert body["error"]["retryable"] is True
            assert server.service.shed == 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_deadline_miss_is_a_504_and_client_retry_recovers(self, tmp_path):
        server = create_server(
            port=0, store=tmp_path / "store", request_timeout=0.1
        )
        thread, port = _serve(server)
        service = server.service
        try:
            service.lock.acquire()  # wedge the service
            single = Client(f"http://127.0.0.1:{port}", retries=0)
            with pytest.raises(ClientError) as excinfo:
                single.synthesize("sequencer", assume_csc=True)
            assert excinfo.value.status == 504
            assert excinfo.value.code == "deadline_exceeded"
            assert excinfo.value.retryable is True

            releaser = threading.Timer(0.3, service.lock.release)
            releaser.start()
            retrying = Client(
                f"http://127.0.0.1:{port}", retries=3, backoff=0.2
            )
            result = retrying.synthesize("sequencer", assume_csc=True)
            assert result.report.literals > 0
            releaser.join()
        finally:
            if service.lock.locked():
                service.lock.release()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_structured_error_bodies_carry_stable_codes(self, served):
        _, client = served
        with pytest.raises(ClientError) as excinfo:
            client.synthesize("no_such_benchmark_at_all")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "spec_error"
        assert excinfo.value.retryable is False
        with pytest.raises(ClientError) as excinfo:
            client.synthesize("fig5")  # CSC conflict: a synthesis error
        assert excinfo.value.code == "synthesis_error"
        with pytest.raises(ClientError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not_found"

    def test_requests_survive_injected_store_read_faults(self, tmp_path):
        pipeline = Pipeline(
            store=ArtifactStore(tmp_path / "store"), faults="store.read=1"
        )
        server = create_server(port=0, pipeline=pipeline)
        thread, port = _serve(server)
        try:
            client = Client(f"http://127.0.0.1:{port}", retries=0)
            first = client.synthesize("sequencer", assume_csc=True)
            assert first.report.literals > 0
            server.service.pipeline.evict_cache()
            second = client.synthesize("sequencer", assume_csc=True)
            # the store is unreadable, so nothing resolves from it — the
            # request recomputes and still answers 200
            assert second.report.literals == first.report.literals
            assert second.resolution["store"] == 0
            assert second.resolution["computed"] > 0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
