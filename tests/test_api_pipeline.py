"""Tests of the staged pipeline: memoisation, sweeps, reports."""

from __future__ import annotations

import json
import sys

import pytest

from repro.api import Pipeline, Report, Spec, SynthesisError, SynthesisOptions, run
from repro.api import compare as pipeline_compare
from repro.petri.reachability import StateSpaceLimitExceeded


class TestStageMemoisation:
    def test_level_sweep_reuses_the_analysis_artifact(self):
        """The acceptance criterion: one analyze/refine across M1..M5."""
        pipeline = Pipeline()
        spec = Spec.from_benchmark("sequencer")
        literals = []
        for level in (1, 2, 3, 4, 5):
            artifact = pipeline.synthesize(
                spec, SynthesisOptions(level=level, assume_csc=True)
            )
            literals.append(artifact.literals)
        assert pipeline.stage_calls["analyze"] == 1
        assert pipeline.stage_calls["refine"] == 1
        assert pipeline.stage_calls["synthesize"] == 5
        assert len(literals) == 5

    def test_repeated_calls_hit_the_cache(self):
        pipeline = Pipeline()
        first = pipeline.synthesize("handshake_seq", SynthesisOptions(assume_csc=True))
        second = pipeline.synthesize("handshake_seq", SynthesisOptions(assume_csc=True))
        assert first is second
        assert pipeline.stage_calls["synthesize"] == 1

    def test_equivalent_specs_share_cache_entries(self):
        """The cache keys on the content hash, not on the load path."""
        pipeline = Pipeline()
        by_name = Spec.from_benchmark("handshake_seq")
        by_text = Spec.from_text(by_name.text)
        options = SynthesisOptions(assume_csc=True)
        pipeline.synthesize(by_name, options)
        pipeline.synthesize(by_text, options)
        assert pipeline.stage_calls["analyze"] == 1
        assert pipeline.stage_calls["synthesize"] == 1

    def test_run_computes_the_front_end_once(self):
        """run() reuses the artifacts its circuit was synthesized from."""
        pipeline = Pipeline()
        report = pipeline.run("handshake_seq", SynthesisOptions(assume_csc=True))
        assert pipeline.stage_calls["analyze"] == 1
        assert pipeline.stage_calls["refine"] == 1
        # and the attached artifacts are the very ones the backend consumed
        assert report.refinement.approximation is report.synthesis.refinement.approximation

    def test_structural_cache_ignores_max_markings(self):
        """The structural backend never enumerates: the bound is not a key."""
        pipeline = Pipeline()
        options = SynthesisOptions(assume_csc=True)
        first = pipeline.synthesize("handshake_seq", options)
        second = pipeline.synthesize("handshake_seq", options, max_markings=50_000)
        assert first is second
        assert pipeline.stage_calls["synthesize"] == 1

    def test_cache_info_and_clear(self):
        pipeline = Pipeline()
        pipeline.run("handshake_seq", SynthesisOptions(assume_csc=True))
        info = pipeline.cache_info()
        assert info["analyze"] == 1 and info["synthesize"] == 1
        pipeline.clear_cache()
        assert pipeline.cache_info() == {}
        assert pipeline.stage_calls == {}


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count calls of the reachability and encoding kernels.

    Every ``repro`` module binding of the two functions is replaced, so a
    consumer that enumerates on its own is counted too.
    """
    import repro.petri.reachability as reachability
    import repro.stg.encoding as encoding

    calls = {"build_reachability_graph": 0, "encode_reachability_graph": 0}
    for module, name in (
        (reachability, "build_reachability_graph"),
        (encoding, "encode_reachability_graph"),
    ):
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    monkeypatch.setattr(loaded, attr, counted)
    return calls


class TestStateSpaceStage:
    """One enumeration, one encoding per (spec, max_markings)."""

    @pytest.mark.parametrize("backend", ["statebased", "structural"])
    def test_run_with_both_verifies_enumerates_once(self, backend, kernel_calls):
        pipeline = Pipeline()
        report = pipeline.run(
            "muller_pipeline_8",
            SynthesisOptions(assume_csc=True),
            backend=backend,
            verify=True,
            verify_mapped=True,
        )
        assert report.verification.speed_independent
        assert report.mapped_verification.equivalent
        assert pipeline.stage_calls["states"] == 1
        assert kernel_calls == {
            "build_reachability_graph": 1,
            "encode_reachability_graph": 1,
        }

    def test_compare_enumerates_once(self, kernel_calls):
        pipeline = Pipeline()
        report = pipeline_compare(
            "muller_pipeline_8", SynthesisOptions(assume_csc=True), pipeline=pipeline
        )
        assert report.matching
        assert pipeline.stage_calls["states"] == 1
        assert kernel_calls == {
            "build_reachability_graph": 1,
            "encode_reachability_graph": 1,
        }

    def test_a_different_bound_is_a_second_state_space(self, kernel_calls):
        pipeline = Pipeline()
        options = SynthesisOptions(assume_csc=True)
        pipeline.run("muller_pipeline_8", options, backend="statebased", verify=True)
        pipeline.run(
            "muller_pipeline_8",
            options,
            backend="statebased",
            verify=True,
            max_markings=10_000,
        )
        assert pipeline.stage_calls["states"] == 2
        assert kernel_calls["build_reachability_graph"] == 2
        assert kernel_calls["encode_reachability_graph"] == 2

    def test_state_space_is_memory_only(self, tmp_path):
        store_path = tmp_path / "store"
        options = SynthesisOptions(assume_csc=True)
        first = Pipeline(store=store_path)
        first.run("sequencer", options, backend="statebased", verify=True)
        assert first.stage_calls["states"] == 1
        assert "states" not in first.store_misses
        # a fresh pipeline served from the store never asks for the states
        second = Pipeline(store=store_path)
        second.run("sequencer", options, backend="statebased", verify=True)
        assert second.stage_calls == {}


class TestStages:
    def test_analyze_artifact_contents(self):
        pipeline = Pipeline()
        artifact = pipeline.analyze("sequencer")
        assert artifact.consistent
        assert artifact.places > 0 and artifact.transitions > 0
        assert artifact.sm_cover_size >= 1
        assert artifact.approximation is not None
        data = artifact.to_dict()
        json.dumps(data)
        assert data["stage"] == "analyze"

    def test_refine_artifact_contents(self):
        pipeline = Pipeline()
        artifact = pipeline.refine("sequencer")
        assert artifact.csc_certified
        assert artifact.cubes > 0
        json.dumps(artifact.to_dict())

    def test_refine_does_not_mutate_the_cached_analysis(self):
        """analyze() results are call-order independent."""
        pipeline = Pipeline()
        spec = Spec.from_benchmark("fig5")  # the cover-refinement example
        analysis = pipeline.analyze(spec)
        raw_approximation = analysis.approximation
        raw_covers = raw_approximation.cover_functions
        refinement = pipeline.refine(spec)
        # the analysis artifact keeps the raw approximation untouched
        assert analysis.approximation is raw_approximation
        assert analysis.approximation.cover_functions is raw_covers
        # the refinement carries its own approximation with the new covers
        assert refinement.approximation is not raw_approximation
        assert refinement.approximation.cover_functions is not raw_covers

    def test_statebased_assume_csc_skips_only_the_csc_check(self):
        """latch_ctrl is consistent but violates CSC: assume_csc lets the
        state-based backend synthesize it while consistency stays checked."""
        from repro.statebased.synthesis import StateBasedSynthesisError

        pipeline = Pipeline()
        with pytest.raises(StateBasedSynthesisError, match="CSC"):
            pipeline.synthesize("latch_ctrl", SynthesisOptions(), backend="statebased")
        artifact = pipeline.synthesize(
            "latch_ctrl", SynthesisOptions(assume_csc=True), backend="statebased"
        )
        assert artifact.literals > 0

    def test_map_and_verify_stages(self):
        pipeline = Pipeline()
        options = SynthesisOptions(level=5, assume_csc=True)
        mapping = pipeline.map("sequencer", options)
        assert mapping.total_area > 0
        verification = pipeline.verify("sequencer", options)
        assert verification.speed_independent
        assert verification.checked_markings > 0
        # synthesize ran once, shared by map and verify
        assert pipeline.stage_calls["synthesize"] == 1

    def test_run_produces_a_json_serializable_report(self):
        report = run("sequencer", level=5, map_technology=True, verify=True)
        assert isinstance(report, Report)
        assert report.backend == "structural"
        assert report.literals > 0
        assert report.speed_independent is True
        assert report.total_seconds > 0
        data = report.to_dict()
        json.dumps(data)
        assert set(data) >= {"spec", "backend", "level", "synthesize", "analyze"}
        assert "circuit" not in json.dumps(data)

    def test_statebased_backend_through_run(self):
        report = run("handshake_seq", backend="statebased", verify=True)
        assert report.backend == "statebased"
        assert report.synthesis.markings == 4
        assert report.analysis is None  # no structural front-end
        assert report.speed_independent is True


class TestErrorPaths:
    def test_csc_failure_without_assume_csc(self):
        # latch_ctrl is the classic benchmark with the CSC violation
        with pytest.raises(SynthesisError, match="CSC"):
            Pipeline().synthesize("latch_ctrl", SynthesisOptions())

    def test_structural_verify_honours_max_markings(self):
        # independent_cells_20 has 2^40 reachable markings: the structural
        # flow synthesizes it without enumeration, but the verify stage
        # enumerates, so the caller's bound must reach the enumeration
        pipeline = Pipeline()
        with pytest.raises(StateSpaceLimitExceeded, match="1000"):
            pipeline.run("independent_cells_20", verify=True, max_markings=1000)
        assert pipeline.stage_calls["synthesize"] == 1
        # the bound is part of the verify key: an unbounded call of a small
        # spec does not answer a bounded one from the cache
        assert pipeline.verify("glatch_3").speed_independent
        with pytest.raises(StateSpaceLimitExceeded):
            pipeline.verify("glatch_3", max_markings=1)
