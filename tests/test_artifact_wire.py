"""The artifact wire format, pinned byte for byte.

``tests/data/artifact_wire.json`` holds golden documents of three runs —
``sequencer`` on the structural backend and ``handshake_seq`` on the
state-based and SAT backends, each with map, verify and verify_mapped —
with every stage's ``seconds`` zeroed: ``Report.to_json()``,
``Report.to_dict()`` (which carry every stage document), plus a ``map``
and a ``synthesize`` document written before their optional keys existed.
Comparisons are on ``json.dumps`` text, so key order is pinned too.

Regenerate (only when the format changes on purpose; bump
``ARTIFACT_VERSION`` when a field changes meaning) with::

    PYTHONPATH=src python tests/test_artifact_wire.py > tests/data/artifact_wire.json
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.api import Pipeline, Report, SynthesisOptions
from repro.api.artifacts import (
    AnalysisArtifact,
    MappedVerificationArtifact,
    MappingArtifact,
    RefinementArtifact,
    SynthesisArtifact,
    VerificationArtifact,
)
from repro.api.store import ArtifactStore

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "artifact_wire.json"

#: (spec, backend) of each golden report
CASES = (
    ("sequencer", "structural"),
    ("handshake_seq", "statebased"),
    ("handshake_seq", "sat"),
)

#: the artifact class of each stage document key
STAGE_CLASSES = {
    "analyze": AnalysisArtifact,
    "refine": RefinementArtifact,
    "synthesize": SynthesisArtifact,
    "map": MappingArtifact,
    "verify": VerificationArtifact,
    "verify_mapped": MappedVerificationArtifact,
}

#: the keys a stage document may lack (read with a default on load)
OPTIONAL_KEYS = {
    "analyze": {"handles"},
    "refine": {"handles"},
    "synthesize": {"markings", "details", "circuit"},
    "map": {"library", "gate_count", "net_count", "latch_count", "netlist"},
    "verify": set(),
    "verify_mapped": set(),
}


def _run(spec: str, backend: str) -> Report:
    report = Pipeline().run(
        spec,
        SynthesisOptions(),
        backend=backend,
        map_technology=True,
        verify=True,
        verify_mapped=True,
    )
    for stage in (
        report.analysis,
        report.refinement,
        report.synthesis,
        report.mapping,
        report.verification,
        report.mapped_verification,
    ):
        if stage is not None:
            stage.seconds = 0.0
    return report


def _legacy(document: dict, drop: set) -> dict:
    return {key: value for key, value in document.items() if key not in drop}


def build_golden() -> dict:
    """The golden documents, computed by the code under test."""
    reports = {}
    for spec, backend in CASES:
        report = _run(spec, backend)
        reports[f"{spec}/{backend}"] = {
            "to_json": report.to_json(),
            "to_dict": report.to_dict(),
        }
    structural = reports["sequencer/structural"]["to_json"]
    legacy = {}
    for stage in ("map", "synthesize"):
        document = _legacy(structural[stage], OPTIONAL_KEYS[stage])
        artifact = STAGE_CLASSES[stage].from_json(document)
        legacy[stage] = {
            "document": document,
            "to_json": artifact.to_json(),
            "to_dict": artifact.to_dict(),
        }
    return {"reports": reports, "legacy": legacy}


def _text(document) -> str:
    return json.dumps(document, indent=1)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def current() -> dict:
    return build_golden()


@pytest.mark.parametrize("case", [f"{spec}/{backend}" for spec, backend in CASES])
class TestGoldenReports:
    def test_report_documents_are_byte_identical(self, golden, current, case):
        for form in ("to_json", "to_dict"):
            assert _text(current["reports"][case][form]) == _text(
                golden["reports"][case][form]
            ), f"{case} {form}"

    def test_golden_report_round_trips(self, golden, case):
        document = golden["reports"][case]["to_json"]
        reloaded = Report.from_json(document)
        assert _text(reloaded.to_json()) == _text(document)
        assert _text(reloaded.to_dict()) == _text(golden["reports"][case]["to_dict"])

    def test_every_stage_document_round_trips(self, golden, case):
        report = golden["reports"][case]
        for key, cls in STAGE_CLASSES.items():
            document = report["to_json"][key]
            if document is None:
                continue
            artifact = cls.from_json(document)
            assert _text(artifact.to_json()) == _text(document), key
            assert _text(artifact.to_dict()) == _text(report["to_dict"][key]), key

    def test_missing_required_key_raises(self, golden, case):
        for key, cls in STAGE_CLASSES.items():
            document = golden["reports"][case]["to_json"][key]
            if document is None:
                continue
            for field_key in set(document) - OPTIONAL_KEYS[key]:
                with pytest.raises((KeyError, ValueError, TypeError)):
                    cls.from_json(_legacy(document, {field_key}))


@pytest.mark.parametrize("stage", ["map", "synthesize"])
def test_legacy_document_loads_with_defaults(golden, stage):
    legacy = golden["legacy"][stage]
    artifact = STAGE_CLASSES[stage].from_json(legacy["document"])
    assert _text(artifact.to_json()) == _text(legacy["to_json"])
    assert _text(artifact.to_dict()) == _text(legacy["to_dict"])


def test_legacy_documents_lack_the_optional_keys(golden):
    for stage in ("map", "synthesize"):
        assert not OPTIONAL_KEYS[stage] & set(golden["legacy"][stage]["document"])


def test_store_entry_missing_a_required_key_is_recomputed(tmp_path):
    """A document the loader rejects degrades to a recomputation."""
    root = tmp_path / "store"
    options = SynthesisOptions()
    warm = Pipeline(store=root)
    expected = warm.run("sequencer", options, map_technology=True).to_json()
    store = ArtifactStore(root)
    damaged = 0
    for path in root.rglob("*.json"):
        entry = json.loads(path.read_text())
        document = entry.get("artifact")
        if isinstance(document, dict) and document.get("stage") == "map":
            del document["total_area"]
            path.write_text(json.dumps(entry))
            damaged += 1
    assert damaged == 1
    fresh = Pipeline(store=store)
    report = fresh.run("sequencer", options, map_technology=True)
    assert fresh.stage_calls["map"] == 1
    assert fresh.stage_calls["synthesize"] == 0
    assert report.mapping.total_area == expected["map"]["total_area"]


def _traced_artifact_classes() -> tuple:
    """The artifact classes the traced benchmark wraps (``perfbench/layers.py``)."""
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "_ARTIFACTS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/layers.py lists no _ARTIFACTS")


@pytest.mark.parametrize("name", _traced_artifact_classes())
def test_traced_classes_bind_their_own_serial_methods(name):
    """The traced benchmark wraps these methods through the class's own
    ``__dict__``; a method only inherited from a base would not be found."""
    import repro.api.artifacts as artifacts

    own = vars(getattr(artifacts, name))
    assert callable(own["to_json"])
    assert isinstance(own["from_json"], classmethod)


if __name__ == "__main__":
    print(_text(build_golden()))
