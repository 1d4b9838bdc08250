"""Reports do not depend on what the process computed before.

Packed cube masks take their bit positions from the process-global
interner (:mod:`repro.boolean.interning`), so two processes that meet the
signals of the ``repro gap`` specs in another order hold the same cubes
under other masks.  Every backend must still report the same: for each
backend the 13 gap specs are synthesized (and mapped) in two fresh
interpreters, one in registry order and one in reverse, and the
``Report.to_json()`` documents, with every ``*seconds`` value zeroed, must
match byte for byte.

Run by hand, the module prints one such run::

    PYTHONPATH=src python tests/test_report_determinism.py sat reverse
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import Pipeline, SynthesisOptions
from repro.experiments.optimality_gap import GAP_SPECS

ROOT = Path(__file__).resolve().parent.parent

BACKENDS = ("structural", "statebased", "sat")


def _zero_seconds(document):
    if isinstance(document, dict):
        return {
            key: 0.0 if key.endswith("seconds") else _zero_seconds(value)
            for key, value in document.items()
        }
    if isinstance(document, list):
        return [_zero_seconds(value) for value in document]
    return document


def reports(backend: str, order: str) -> dict[str, str]:
    """Zeroed-seconds report text of every gap spec, synthesized in ``order``."""
    names = list(GAP_SPECS) if order == "forward" else list(reversed(GAP_SPECS))
    pipeline = Pipeline()
    options = SynthesisOptions(assume_csc=True)
    return {
        name: json.dumps(
            _zero_seconds(
                pipeline.run(
                    name, options, backend=backend, map_technology=True
                ).to_json()
            ),
            sort_keys=True,
        )
        for name in names
    }


def _fresh_reports(backend: str, order: str) -> dict[str, str]:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run(
        [sys.executable, __file__, backend, order],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(result.stdout)


@pytest.mark.parametrize("backend", BACKENDS)
def test_forward_and_reverse_runs_report_the_same(backend):
    forward = _fresh_reports(backend, "forward")
    backward = _fresh_reports(backend, "reverse")
    assert sorted(forward) == sorted(GAP_SPECS)
    differ = [name for name in GAP_SPECS if forward[name] != backward[name]]
    assert not differ, f"{backend}: reports depend on the run order: {differ}"


if __name__ == "__main__":
    print(json.dumps(reports(sys.argv[1], sys.argv[2])))
