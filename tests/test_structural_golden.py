"""The structural backend's reports, pinned byte for byte.

``tests/data/structural_reports.json`` holds, for every registry spec (the
nine ``structural_scalable`` benchmark specs among them), the
``Report.to_json()`` of ``backend="structural", map_technology=True`` with
every key ending in ``seconds`` dropped — or, for a spec the backend
rejects, its error class and message.  Next to each report it pins the
one-token SM-components of the spec's net, in the order
:func:`repro.petri.smcover.compute_sm_components` returns them, each as its
sorted place list: that order feeds the greedy choice of
:func:`repro.petri.smcover.compute_sm_cover` and from there the circuits.

Any change to the Farkas elimination, the concurrency fixed point, the
cover-cube search or the minimizer that moves one component, one cube or
one gate shows here.

Regenerate (only when the structural reports change on purpose) with::

    PYTHONPATH=src python tests/test_structural_golden.py > tests/data/structural_reports.json
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import Pipeline
from repro.benchmarks.registry import get_benchmark, list_benchmarks
from repro.petri.smcover import compute_sm_components
from repro.synthesis.engine import SynthesisError

GOLDEN = Path(__file__).resolve().parent / "data" / "structural_reports.json"

SPECS = list_benchmarks()

#: the specs of perfbench's ``structural_scalable`` workload
SCALABLE = (
    "muller_pipeline_8",
    "muller_pipeline_16",
    "muller_pipeline_32",
    "independent_cells_20",
    "independent_cells_45",
    "philosophers_5",
    "philosophers_8",
    "glatch_5",
    "glatch_8",
)


def _drop_seconds(value):
    if isinstance(value, dict):
        return {
            key: _drop_seconds(item)
            for key, item in value.items()
            if not key.endswith("seconds")
        }
    if isinstance(value, list):
        return [_drop_seconds(item) for item in value]
    return value


def report_document(name: str) -> dict:
    """The seconds-free report of one spec, or the error it raises."""
    try:
        report = Pipeline().run(name, backend="structural", map_technology=True)
    except SynthesisError as error:
        return {"error": type(error).__name__, "message": str(error)}
    return _drop_seconds(report.to_json())


def sm_components_document(name: str) -> list[list[str]]:
    """The one-token SM-components of a spec's net, in enumeration order."""
    return [
        sorted(component.places)
        for component in compute_sm_components(get_benchmark(name).net)
    ]


def build_golden() -> dict:
    return {
        name: {
            "sm_components": sm_components_document(name),
            "report": report_document(name),
        }
        for name in SPECS
    }


def _text(document) -> str:
    return json.dumps(document, separators=(",", ":"))


def golden_text(golden: dict) -> str:
    """The golden file: one compact line per spec, so a diff names the spec."""
    lines = [f"{json.dumps(name)}:{_text(entry)}" for name, entry in golden.items()]
    return "{\n" + ",\n".join(lines) + "\n}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_registry_and_the_scalable_workload(golden):
    assert list(golden) == SPECS
    assert set(SCALABLE) <= set(golden)
    solved = [name for name, entry in golden.items() if "error" not in entry["report"]]
    assert len(solved) >= 25, solved
    assert all("error" not in golden[name]["report"] for name in SCALABLE)


@pytest.mark.parametrize("name", SPECS)
def test_structural_report_is_byte_identical(golden, name):
    assert _text(report_document(name)) == _text(golden[name]["report"])


@pytest.mark.parametrize("name", SPECS)
def test_sm_component_order_is_pinned(golden, name):
    assert sm_components_document(name) == golden[name]["sm_components"]


if __name__ == "__main__":
    print(golden_text(build_golden()))
