"""The state-based backend's reports, pinned byte for byte.

``tests/data/statebased_reports.json`` holds, for every registry spec whose
state space stays within ``ENUMERATION_LIMIT`` markings, the
``Report.to_json()`` of ``backend="statebased", verify=True,
verify_mapped=True`` with every stage's ``seconds`` zeroed — or, for a spec
the backend rejects, its error class and message.  It pins the circuits,
their literal counts and both verification verdicts, so any change to the
function sets, the minimizer or the monotonicity check that moves one cube
shows here.

Regenerate (only when the state-based reports change on purpose) with::

    PYTHONPATH=src python tests/test_statebased_golden.py > tests/data/statebased_reports.json
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import Pipeline
from repro.benchmarks.registry import get_benchmark, list_benchmarks
from repro.petri.reachability import StateSpaceLimitExceeded, count_reachable_markings
from repro.statebased.synthesis import StateBasedSynthesisError

GOLDEN = Path(__file__).resolve().parent / "data" / "statebased_reports.json"

#: specs past this marking count are not enumerated
ENUMERATION_LIMIT = 5_000


def _enumerable() -> list[str]:
    names = []
    for name in list_benchmarks():
        try:
            count_reachable_markings(get_benchmark(name).net, max_markings=ENUMERATION_LIMIT)
        except StateSpaceLimitExceeded:
            continue
        names.append(name)
    return names


def report_document(name: str) -> dict:
    """The zeroed-seconds report of one spec, or the error it raises."""
    try:
        report = Pipeline().run(name, backend="statebased", verify=True, verify_mapped=True)
    except StateBasedSynthesisError as error:
        return {"error": type(error).__name__, "message": str(error)}
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
    return report.to_json()


ENUMERABLE = _enumerable()


def build_golden() -> dict:
    return {name: report_document(name) for name in ENUMERABLE}


def _text(document) -> str:
    return json.dumps(document, indent=1)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_enumerable_registry(golden):
    assert list(golden) == ENUMERABLE
    solved = [name for name, document in golden.items() if "error" not in document]
    assert len(solved) >= 20, solved


@pytest.mark.parametrize("name", ENUMERABLE)
def test_statebased_report_is_byte_identical(golden, name):
    assert _text(report_document(name)) == _text(golden[name])


if __name__ == "__main__":
    print(_text(build_golden()))
