"""The one stage-resolution path: memory cache → artifact store → compute.

Every process resolves a pipeline stage the same way (``Pipeline._memo``):
its in-memory cache first, then the content-addressed store on disk, then
the computation, whose result is cached and persisted.  There is no tier
in between: the store answers every read from disk and its counters and
stats describe the disk tier only.  Concurrent cold work is bounded by
what serializes it — one serving process computes a herd of identical
cold requests once, because its service lock serializes them; independent
pipelines racing on one store each compute at most once and leave one
readable entry per stage key.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.api import Pipeline, SynthesisOptions
from repro.api.client import Client
from repro.api.events import EventLog
from repro.api.faults import InjectedStageError
from repro.api.server import create_server
from repro.api.store import LAYOUT_VERSION, ArtifactStore

OPTIONS = SynthesisOptions(level=5, assume_csc=True)

#: the stage entries a structural ``sequencer`` synthesis persists
SEQUENCER_STAGES = {"analyze": 1, "refine": 1, "synthesize": 1}


def fingerprint(report) -> str:
    """A report's JSON with every timing field zeroed."""

    def zero_seconds(value):
        if isinstance(value, dict):
            return {
                key: 0 if key.endswith("seconds") else zero_seconds(item)
                for key, item in value.items()
            }
        if isinstance(value, list):
            return [zero_seconds(item) for item in value]
        return value

    return json.dumps(zero_seconds(report.to_json()), sort_keys=True)


class TestMemoOrder:
    def test_cold_run_misses_the_store_then_computes_and_persists(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        pipeline = Pipeline(store=store)
        pipeline.synthesize("sequencer", OPTIONS)
        assert dict(pipeline.store_misses) == SEQUENCER_STAGES
        assert dict(pipeline.stage_calls) == SEQUENCER_STAGES
        assert dict(pipeline.store_hits) == {}
        assert store.writes == 3
        assert store.stats()["per_stage"] == SEQUENCER_STAGES

    def test_memory_hit_reads_neither_the_store_nor_computes(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        pipeline = Pipeline(store=store)
        pipeline.synthesize("sequencer", OPTIONS)
        before = (store.hits, store.misses, store.writes, dict(pipeline.stage_calls))
        log = EventLog()
        pipeline.on_event = log
        pipeline.synthesize("sequencer", OPTIONS)
        assert (store.hits, store.misses, store.writes, dict(pipeline.stage_calls)) == before
        assert log.stage_statuses("synthesize") == ["memory"]

    def test_store_hit_is_promoted_to_memory(self, tmp_path):
        Pipeline(store=tmp_path / "store").synthesize("sequencer", OPTIONS)
        store = ArtifactStore(tmp_path / "store")
        log = EventLog()
        reader = Pipeline(store=store, on_event=log)
        reader.synthesize("sequencer", OPTIONS)
        reader.synthesize("sequencer", OPTIONS)
        assert log.stage_statuses("synthesize") == ["store", "memory"]
        # one disk read in all: the repeat never reached the store
        assert store.hits == 1 and store.misses == 0
        assert dict(reader.store_hits) == {"synthesize": 1}
        assert dict(reader.stage_calls) == {}

    def test_evicted_memory_resolves_from_the_store(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        pipeline = Pipeline(store=store)
        first = pipeline.run("sequencer", OPTIONS)
        calls = dict(pipeline.stage_calls)
        assert pipeline.evict_cache() > 0
        assert pipeline.cache_info() == {}
        again = pipeline.run("sequencer", OPTIONS)
        assert fingerprint(again) == fingerprint(first)
        assert dict(pipeline.stage_calls) == calls  # nothing recomputed
        assert pipeline.store_hits["synthesize"] == 1
        assert pipeline.cache_info()["synthesize"] == 1

    def test_undecodable_artifact_is_recomputed_and_overwritten(self, tmp_path):
        baseline = Pipeline(store=tmp_path / "store").run("sequencer", OPTIONS)
        store = ArtifactStore(tmp_path / "store")
        (entry,) = [e for e in store.entries() if e["stage"] == "synthesize"]
        path = entry.pop("_path")
        # a well-formed envelope whose artifact no longer parses
        entry["artifact"] = {"bogus": True}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)

        pipeline = Pipeline(store=store)
        report = pipeline.run("sequencer", OPTIONS)
        assert fingerprint(report) == fingerprint(baseline)
        assert pipeline.store_misses["synthesize"] == 1
        assert pipeline.stage_calls["synthesize"] == 1
        # the recomputation replaced the entry at the same address
        warm = Pipeline(store=tmp_path / "store")
        warm.run("sequencer", OPTIONS)
        assert warm.stage_calls["synthesize"] == 0
        assert warm.store_hits["synthesize"] == 1

    def test_failed_stage_is_neither_cached_nor_persisted(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        pipeline = Pipeline(store=store, faults="stage.error@synthesize=1x1")
        with pytest.raises(InjectedStageError):
            pipeline.synthesize("sequencer", OPTIONS)
        # the fault fires on entry to the stage, before its front end runs
        assert pipeline.cache_info() == {}
        assert dict(pipeline.stage_calls) == {}
        assert store.stats()["entries"] == 0
        # the retry misses memory and store alike and computes every stage
        pipeline.synthesize("sequencer", OPTIONS)
        assert dict(pipeline.stage_calls) == SEQUENCER_STAGES
        assert store.stats()["per_stage"] == SEQUENCER_STAGES
        assert pipeline.store_misses["synthesize"] == 2

    def test_stage_events_name_exactly_three_sources(self, tmp_path):
        log = EventLog()
        Pipeline(store=tmp_path / "store", on_event=log).synthesize("sequencer", OPTIONS)
        reader = Pipeline(store=tmp_path / "store", on_event=log)
        reader.synthesize("sequencer", OPTIONS)
        reader.synthesize("sequencer", OPTIONS)
        statuses = {event.status for event in log.of_kind("stage")}
        assert statuses == {"computed", "store", "memory"}


class TestConcurrentResolution:
    def test_pipelines_racing_on_one_store_agree(self, tmp_path):
        # the delay holds every synthesize computation open, so all three
        # pipelines miss the store; each computes at most once, and the
        # atomic writes leave one readable entry per stage key
        racers = 3
        barrier = threading.Barrier(racers)
        pipelines = [
            Pipeline(
                store=ArtifactStore(tmp_path / "store"),
                faults="stage.delay@synthesize=1~0.2",
            )
            for _ in range(racers)
        ]
        reports = [None] * racers
        failures: list[str] = []

        def race(slot: int) -> None:
            barrier.wait()
            try:
                reports[slot] = pipelines[slot].run("sequencer", OPTIONS)
            except Exception as error:  # noqa: BLE001 — asserted below
                failures.append(f"{type(error).__name__}: {error}")

        threads = [threading.Thread(target=race, args=(i,)) for i in range(racers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert failures == []
        assert len({fingerprint(report) for report in reports}) == 1
        assert all(p.stage_calls["synthesize"] <= 1 for p in pipelines)
        stats = ArtifactStore(tmp_path / "store").stats()
        assert stats["per_stage"] == SEQUENCER_STAGES
        assert stats["entries"] == 3 and stats["tmp_files"] == 0
        assert stats["quarantined_entries"] == 0

    def test_one_serving_process_computes_a_cold_herd_once(self, tmp_path):
        # the service lock serializes the herd: the first request computes
        # (held open by the delay), every later one resolves from memory
        herd_size = 4
        pipeline = Pipeline(
            store=tmp_path / "store", faults="stage.delay@synthesize=1~0.3"
        )
        server = create_server(port=0, pipeline=pipeline)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        barrier = threading.Barrier(herd_size)
        results = [None] * herd_size
        failures: list[str] = []

        def stampede(slot: int) -> None:
            client = Client(url, timeout=60, retries=0)
            barrier.wait()
            try:
                results[slot] = client.synthesize("sequencer", level=5, assume_csc=True)
            except Exception as error:  # noqa: BLE001 — asserted below
                failures.append(f"{type(error).__name__}: {error}")

        try:
            herd = [threading.Thread(target=stampede, args=(i,)) for i in range(herd_size)]
            for member in herd:
                member.start()
            for member in herd:
                member.join(timeout=60)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert failures == []
        assert len({fingerprint(result.report) for result in results}) == 1
        sources = sorted(
            stage["status"]
            for result in results
            for stage in result.resolution["stages"]
            if stage["stage"] == "synthesize"
        )
        assert sources == ["computed"] + ["memory"] * (herd_size - 1)
        assert pipeline.stage_calls["synthesize"] == 1


class TestDiskTierOnly:
    def test_every_read_goes_to_disk(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        path = store.put(("k", 1), {"value": 1}, stage="analyze")
        assert store.get(("k", 1)) == {"value": 1}
        # remove the entry behind the handle's back: no in-process tier
        # may keep answering for it
        path.unlink()
        assert store.get(("k", 1)) is None
        assert store.peek(("k", 1)) is None
        assert (store.hits, store.misses) == (1, 1)

    def test_stats_describe_the_disk_tier_only(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        Pipeline(store=store).synthesize("sequencer", OPTIONS)
        stats = store.stats()
        assert set(stats) == {
            "root",
            "code_version",
            "entries",
            "stale_entries",
            "bytes",
            "per_stage",
            "tmp_files",
            "tmp_swept",
            "quarantined_entries",
            "session",
        }
        assert stats["session"] == {
            "hits": 0,
            "misses": 3,
            "writes": 3,
            "quarantined": 0,
            "tmp_swept": 0,
        }

    def test_layout_holds_only_entry_buckets_and_quarantine(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        pipeline = Pipeline(store=store)
        for name in ("sequencer", "handshake_seq", "glatch_3"):
            pipeline.synthesize(name, OPTIONS)
        bucket = next(iter(store._entry_paths())).parent
        (bucket / ("0" * 64 + ".json")).write_text("{truncated", encoding="utf-8")
        assert store.sweep()["stale_quarantined"] == 1
        layout = tmp_path / "store" / f"v{LAYOUT_VERSION}"
        children = sorted(child.name for child in layout.iterdir())
        assert "quarantine" in children
        buckets = [name for name in children if name != "quarantine"]
        assert buckets and all(
            len(name) == 2 and all(c in "0123456789abcdef" for c in name)
            for name in buckets
        )

    def test_peek_leaves_a_damaged_entry_for_get_to_quarantine(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        path = store.put(("k", 1), {"value": 1}, stage="analyze")
        path.write_text("{truncated", encoding="utf-8")
        assert store.peek(("k", 1)) is None
        assert path.exists() and store.quarantined == 0
        assert (store.hits, store.misses) == (0, 0)
        assert store.get(("k", 1)) is None
        assert not path.exists() and store.quarantined == 1
        assert store.misses == 1

    def test_entries_skip_undecodable_files(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        kept = store.put(("k", 1), {"value": 1}, stage="analyze", spec_name="a")
        broken = store.put(("k", 2), {"value": 2}, stage="refine", spec_name="b")
        broken.write_text("{truncated", encoding="utf-8")
        entries = store.entries()
        assert [entry["_path"] for entry in entries] == [str(kept)]
        assert entries[0]["spec"] == "a" and entries[0]["artifact"] == {"value": 1}

    def test_probe_creates_a_writable_layout(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.probe()
        assert (tmp_path / "store" / f"v{LAYOUT_VERSION}").is_dir()
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the store root should be")
        assert not ArtifactStore(blocked).probe()
