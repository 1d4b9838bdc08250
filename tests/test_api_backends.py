"""Tests of the three backends and the differential comparison mode."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import (
    Pipeline,
    StateBasedBackend,
    StructuralBackend,
    SynthesisOptions,
    compare,
    get_backend,
)

#: small registry benchmarks with enumerable state spaces and certified CSC
DIFFERENTIAL_NAMES = [
    "handshake_seq",
    "sequencer",
    "converter_2to4",
    "rw_port",
    "muller_pipeline_2",
]


class TestBackendResolution:
    def test_names_resolve(self):
        assert isinstance(get_backend("structural"), StructuralBackend)
        assert isinstance(get_backend("statebased"), StateBasedBackend)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("quantum")
        with pytest.raises(TypeError):
            get_backend(42)


class TestDifferentialMode:
    @pytest.mark.parametrize("name", DIFFERENTIAL_NAMES)
    def test_backends_agree_on_next_state_functions(self, name):
        """The paper's central claim as an API call: same circuits, both flows."""
        report = compare(name, SynthesisOptions(level=5, assume_csc=True))
        assert report.matching, report.mismatches
        assert bool(report)
        assert report.checked_markings > 0
        assert report.structural.backend == "structural"
        assert report.statebased.backend == "statebased"

    def test_comparison_report_serializes(self):
        report = compare("handshake_seq", SynthesisOptions(level=3, assume_csc=True))
        data = report.to_dict()
        json.dumps(data)
        assert data["matching"] is True
        assert data["checked_markings"] == report.checked_markings
        assert "structural" in data and "statebased" in data

    def test_comparison_shares_the_pipeline_cache(self):
        pipeline = Pipeline()
        options = SynthesisOptions(level=5, assume_csc=True)
        compare("sequencer", options, pipeline=pipeline)
        calls = pipeline.stage_calls["synthesize"]
        assert calls == 2  # one per backend
        compare("sequencer", options, pipeline=pipeline)
        assert pipeline.stage_calls["synthesize"] == calls  # all cached

    def test_compare_checks_only_the_requested_signals(self):
        """With a signal subset both circuits implement only that signal;
        the cross-check must not ask them for the other outputs."""
        report = compare("fig1", SynthesisOptions(signals=["c"]))
        assert report.matching, report.mismatches
        assert report.checked_markings > 0
        assert set(report.structural.circuit.signals) == {"c"}
        assert set(report.statebased.circuit.signals) == {"c"}

    def test_mismatch_detection(self):
        """A deliberately broken circuit must be flagged, not rubber-stamped."""
        from repro.api import Spec
        from repro.api.backends import ComparisonReport, compare as run_compare
        from repro.boolean.cover import Cover

        pipeline = Pipeline()
        options = SynthesisOptions(level=5, assume_csc=True)
        report = run_compare("handshake_seq", options, pipeline=pipeline)
        assert report.matching
        # corrupt the cached structural circuit: force the output to constant 0
        artifact = pipeline.synthesize("handshake_seq", options)
        impl = artifact.circuit.implementations["ack"]
        impl.set_cover = Cover.empty(impl.set_cover.variables)
        impl.uses_latch = False
        broken = run_compare("handshake_seq", options, pipeline=pipeline)
        assert isinstance(broken, ComparisonReport)
        assert not broken.matching
        assert broken.mismatches
        # the verdict keys on the mismatch count, not the capped detail list
        still_broken = run_compare(
            "handshake_seq", options, pipeline=pipeline, max_mismatches=0
        )
        assert not still_broken.matching
        assert still_broken.mismatches == []


class TestCSCRefusal:
    def test_refusal_text_does_not_depend_on_the_hash_seed(self):
        """``latch_ctrl`` violates CSC; both entry points must name its
        unresolved places in the same order under any ``PYTHONHASHSEED``."""
        script = (
            "from repro.api import Pipeline, SynthesisOptions, run\n"
            "from repro.synthesis.engine import SynthesisError\n"
            "for attempt in (\n"
            "    lambda: Pipeline().synthesize('latch_ctrl', SynthesisOptions()),\n"
            "    lambda: run('latch_ctrl'),\n"
            "):\n"
            "    try:\n"
            "        attempt()\n"
            "    except SynthesisError as error:\n"
            "        print(error)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        texts = []
        for seed in ("4", "5"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            texts.append(done.stdout)
        assert texts[0].count("CSC could not be certified") == 2, texts[0]
        assert texts[0] == texts[1]
