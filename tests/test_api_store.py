"""Tests of the durable workspace: lossless artifact JSON and the store.

Pins the PR 5 acceptance criteria:

* every stage artifact round-trips ``to_json``/``from_json`` losslessly
  over the benchmark registry (the enumerable part of it);
* a second ``Pipeline.run`` of the same spec in a **fresh process** with
  the same store performs zero analyze/refine/synthesize computations and
  produces the same results as a no-store run (differential check);
* cache keys separate gate libraries differing only in ``latch_area`` /
  ``allow_latch``, and a store written by a different code version is
  ignored, not crashed on.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import Pipeline, Report, Spec, SynthesisOptions
from repro.api.artifacts import (
    AnalysisArtifact,
    MappingArtifact,
    RefinementArtifact,
    SynthesisArtifact,
    VerificationArtifact,
)
from repro.api.store import ArtifactStore, default_store_path
from repro.gates.library import default_library
from dataclasses import replace as dc_replace

#: specs covering every registry family that stays enumerable in a test run
ROUNDTRIP_SPECS = [
    "fig1",
    "fig5",
    "glatch_3",
    "sequencer",
    "handshake_seq",
    "muller_pipeline_2",
    "philosophers_3",
    "independent_cells_5",
]


def _registry_specs():
    """Every registry benchmark small enough for a full verified run."""
    from repro.benchmarks.classic import classic_names

    names = set(ROUNDTRIP_SPECS)
    names.update(classic_names(synthesizable_only=True))
    return sorted(names)


class TestArtifactRoundTrip:
    @pytest.mark.parametrize("name", _registry_specs())
    def test_every_stage_artifact_round_trips(self, name):
        """to_json → JSON text → from_json → to_json is the identity."""
        pipeline = Pipeline()
        report = pipeline.run(
            name,
            SynthesisOptions(assume_csc=True),
            map_technology=True,
            verify=True,
        )
        for artifact, cls in (
            (report.analysis, AnalysisArtifact),
            (report.refinement, RefinementArtifact),
            (report.synthesis, SynthesisArtifact),
            (report.mapping, MappingArtifact),
            (report.verification, VerificationArtifact),
        ):
            document = artifact.to_json()
            text = json.dumps(document)  # must be pure JSON
            reloaded = cls.from_json(json.loads(text))
            assert reloaded.to_json() == document, f"{cls.__name__} on {name}"
        document = report.to_json()
        reloaded = Report.from_json(json.loads(json.dumps(document)))
        assert reloaded.to_json() == document

    def test_reloaded_circuit_behaves_identically(self):
        report = Pipeline().run("sequencer", SynthesisOptions(assume_csc=True))
        reloaded = Report.from_json(report.to_json())
        stg = Spec.load("sequencer").stg
        signals = stg.signal_names
        for code in range(1 << len(signals)):
            vector = {s: (code >> i) & 1 for i, s in enumerate(signals)}
            assert report.circuit.next_values(vector) == reloaded.circuit.next_values(
                vector
            )

    def test_rehydrated_refinement_feeds_synthesis(self, tmp_path):
        """A store-loaded refinement must support a *new* level's synthesis."""
        options = SynthesisOptions(level=5, assume_csc=True)
        warm = Pipeline(store=tmp_path / "store")
        warm.run("sequencer", options)

        fresh = Pipeline(store=tmp_path / "store")
        artifact = fresh.synthesize("sequencer", SynthesisOptions(level=2, assume_csc=True))
        assert fresh.stage_calls["analyze"] == 0
        assert fresh.stage_calls["refine"] == 0
        assert fresh.stage_calls["synthesize"] == 1
        cold = Pipeline().synthesize(
            "sequencer", SynthesisOptions(level=2, assume_csc=True)
        )
        assert artifact.circuit.to_json() == cold.circuit.to_json()

    def test_refine_document_does_not_nest_the_analysis(self):
        """The analysis has its own document; refine must not duplicate it."""
        report = Pipeline().run("sequencer", SynthesisOptions(assume_csc=True))
        refine_doc = report.refinement.to_json()
        assert "analysis" not in refine_doc
        # a standalone refine document still rehydrates (scaffolding rebuilt
        # from the STG around the frozen refined covers)
        from repro.api.artifacts import RefinementArtifact

        standalone = RefinementArtifact.from_json(refine_doc)
        assert standalone.analysis is None
        stg = Spec.load("sequencer").stg
        standalone.ensure_handles(stg)
        original = report.refinement.approximation.cover_functions
        rebuilt = standalone.approximation.cover_functions
        assert set(original) == set(rebuilt)
        for place in original:
            assert original[place].to_json() == rebuilt[place].to_json()

    def test_wrong_stage_and_version_are_rejected(self):
        report = Pipeline().run("fig1", SynthesisOptions(assume_csc=True))
        document = report.synthesis.to_json()
        with pytest.raises(ValueError):
            AnalysisArtifact.from_json(document)
        stale = dict(document)
        stale["version"] = 999
        with pytest.raises(ValueError):
            SynthesisArtifact.from_json(stale)


class TestStoreBasics:
    def test_put_get_and_stats(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = ("analyze", "hash", (True, False))
        assert store.get(key) is None
        store.put(key, {"stage": "analyze", "x": 1}, stage="analyze", spec_name="s")
        assert store.get(key) == {"stage": "analyze", "x": 1}
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["per_stage"] == {"analyze": 1}
        assert stats["bytes"] > 0
        assert stats["session"]["hits"] == 1
        assert stats["session"]["misses"] == 1
        assert stats["session"]["writes"] == 1

    def test_corrupted_entry_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = ("map", "h", None)
        path = store.put(key, {"ok": True})
        path.write_text("{ not json")
        assert store.get(key) is None

    def test_clear_removes_entries(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        for index in range(3):
            store.put(("stage", index), {"index": index})
        assert store.clear() == 3
        assert store.stats()["entries"] == 0

    def test_clear_scoped_by_spec_pattern(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(("a",), {"x": 1}, stage="analyze", spec_name="glatch_3")
        store.put(("b",), {"x": 2}, stage="analyze", spec_name="glatch_5")
        store.put(("c",), {"x": 3}, stage="analyze", spec_name="sequencer")
        assert store.clear(spec_pattern="glatch_*") == 2
        remaining = [entry["spec"] for entry in store.entries()]
        assert remaining == ["sequencer"]

    def test_clear_sweeps_orphaned_temp_files(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        path = store.put(("a",), {"x": 1}, spec_name="s")
        # simulate a writer killed between mkstemp and os.replace
        orphan = path.parent / ".deadbeef0000-orphan.tmp"
        orphan.write_text("partial")
        assert store.clear() == 2
        assert not orphan.exists()

    def test_peek_does_not_move_the_counters(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.peek(("k", 1)) is None
        store.put(("k", 1), {"value": 1})
        assert store.peek(("k", 1)) == {"value": 1}
        assert store.hits == 0 and store.misses == 0

    def test_default_store_path_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "custom"))
        assert default_store_path() == tmp_path / "custom"


class TestCacheKeyCorrectness:
    def test_latch_area_and_allow_latch_do_not_collide(self, tmp_path):
        """Libraries differing only in latch_area/allow_latch get own keys."""
        base = default_library()
        bigger_latch = dc_replace(base, latch_area=base.latch_area + 10)
        no_latch = dc_replace(base, allow_latch=False)

        # level 1 keeps the C-latch architecture (latch_area matters)
        options = SynthesisOptions(level=1, assume_csc=True)
        pipeline = Pipeline(store=tmp_path / "store")
        mapped_base = pipeline.map("sequencer", options, library=base)
        mapped_big = pipeline.map("sequencer", options, library=bigger_latch)
        mapped_free = pipeline.map("sequencer", options, library=no_latch)
        # three distinct computations, three distinct cached artifacts
        assert pipeline.stage_calls["map"] == 3
        assert mapped_base.latch_count > 0
        assert mapped_big.total_area > mapped_base.total_area
        assert mapped_free.latch_count == 0

        # and a fresh process resolves each from its own store entry
        fresh = Pipeline(store=tmp_path / "store")
        again_base = fresh.map("sequencer", options, library=base)
        again_big = fresh.map("sequencer", options, library=bigger_latch)
        again_free = fresh.map("sequencer", options, library=no_latch)
        assert fresh.stage_calls["map"] == 0
        assert again_base.total_area == mapped_base.total_area
        assert again_big.total_area == mapped_big.total_area
        assert again_free.netlist.to_json() == mapped_free.netlist.to_json()

    def test_different_code_version_is_ignored_not_crashed(self, tmp_path):
        root = tmp_path / "store"
        old = Pipeline(store=ArtifactStore(root, code_version="some-older-release"))
        options = SynthesisOptions(assume_csc=True)
        old.run("sequencer", options)
        assert ArtifactStore(root, code_version="some-older-release").stats()["entries"] > 0

        current = Pipeline(store=ArtifactStore(root))
        report = current.run("sequencer", options)
        # every stage recomputed: the stale entries are invisible
        assert current.stage_calls["analyze"] == 1
        assert current.stage_calls["synthesize"] == 1
        assert current.store_hits.total() == 0
        assert report.literals == Pipeline().run("sequencer", options).literals
        # the store now reports the old entries as stale
        stats = ArtifactStore(root).stats()
        assert stats["stale_entries"] > 0

    def test_unwritable_store_degrades_gracefully(self, tmp_path):
        root = tmp_path / "ro-store"
        root.mkdir()
        store = ArtifactStore(root)
        os.chmod(root, 0o500)
        try:
            pipeline = Pipeline(store=store)
            report = pipeline.run("fig1", SynthesisOptions(assume_csc=True))
            assert report.literals > 0
        finally:
            os.chmod(root, 0o700)


class TestFreshProcessResume:
    def test_second_process_performs_zero_stage_computations(self, tmp_path):
        """The headline acceptance criterion, differential-checked."""
        store = tmp_path / "store"
        script = (
            "import json, sys\n"
            "from repro.api import Pipeline, SynthesisOptions\n"
            "p = Pipeline(store=sys.argv[1])\n"
            "r = p.run('sequencer', SynthesisOptions(assume_csc=True),\n"
            "          map_technology=True, verify=True, verify_mapped=True)\n"
            "print(json.dumps({'stage_calls': dict(p.stage_calls),\n"
            "                  'store_hits': dict(p.store_hits),\n"
            "                  'report': r.to_json()}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(Path(__file__).resolve().parent.parent / "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )

        def run_once() -> dict:
            result = subprocess.run(
                [sys.executable, "-c", script, str(store)],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            return json.loads(result.stdout)

        first = run_once()
        # analyze, refine, synthesize, map, verify, verify_mapped + states
        assert sum(first["stage_calls"].values()) == 7

        second = run_once()
        assert second["stage_calls"] == {}, "fresh process must compute nothing"
        assert sum(second["store_hits"].values()) == 6

        # differential: identical to a run that never saw a store
        no_store = Pipeline()
        reference = no_store.run(
            "sequencer",
            SynthesisOptions(assume_csc=True),
            map_technology=True,
            verify=True,
            verify_mapped=True,
        )
        resumed = Report.from_json(second["report"])
        assert resumed.literals == reference.literals
        assert resumed.synthesis.circuit.to_json() == reference.circuit.to_json()
        assert resumed.mapping.netlist.to_json() == reference.mapping.netlist.to_json()
        assert (
            resumed.verification.speed_independent
            == reference.verification.speed_independent
        )
        assert (
            resumed.mapped_verification.equivalent
            == reference.mapped_verification.equivalent
        )
