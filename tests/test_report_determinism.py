"""Reports do not depend on what the process computed before.

Packed cube masks take their bit positions from the process-global
interner (:mod:`repro.boolean.interning`), so two processes that meet the
signals of the ``repro gap`` specs in another order hold the same cubes
under other masks.  Every backend must still report the same: for each
backend the 13 gap specs are synthesized (and mapped) in two fresh
interpreters, one in registry order and one in reverse, and the
``Report.to_json()`` documents, with every ``*seconds`` value zeroed, must
match byte for byte.  So must a forward run in an interpreter that first
interned a seeded shuffle of the gap specs' own signal names mixed with up
to 2000 foreign names, which moves every signal's mask bit.

Nor on where a stage was resolved or how many workers ran: a warm run
that reads every synthesis from a store must report what the cold run
that wrote it computed, and ``repro gap`` must give the same rows with one
worker or two.

Run by hand, the module prints one such run::

    PYTHONPATH=src python tests/test_report_determinism.py sat reverse
    PYTHONPATH=src python tests/test_report_determinism.py sat forward 1

(the optional last argument is the seed of the names interned first).
"""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import Pipeline, SynthesisOptions
from repro.api.cli import main
from repro.benchmarks.registry import get_benchmark
from repro.boolean.interning import var_index
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


def report(backend: str, name: str, pipeline: Pipeline) -> str:
    """Zeroed-seconds report text of one mapped run of ``name``."""
    run = pipeline.run(
        name, SynthesisOptions(assume_csc=True), backend=backend, map_technology=True
    )
    return json.dumps(_zero_seconds(run.to_json()), sort_keys=True)


def intern_shuffled_names(seed: int) -> None:
    """Intern the gap specs' signal names shuffled among foreign names."""
    rng = random.Random(seed)
    names = sorted(
        {signal for name in GAP_SPECS for signal in get_benchmark(name).signal_names}
    )
    names += [f"foreign_{i}" for i in range(rng.randint(0, 2000))]
    rng.shuffle(names)
    for name in names:
        var_index(name)


def reports(backend: str, order: str, seed: int | None = None) -> dict[str, str]:
    """Zeroed-seconds report text of every gap spec, synthesized in ``order``.

    With a ``seed``, :func:`intern_shuffled_names` runs first.
    """
    if seed is not None:
        intern_shuffled_names(seed)
    names = list(GAP_SPECS) if order == "forward" else list(reversed(GAP_SPECS))
    pipeline = Pipeline()
    return {name: report(backend, name, pipeline) for name in names}


@functools.cache
def _fresh_reports(backend: str, order: str, seed: int | None = None) -> dict[str, str]:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    extra = [] if seed is None else [str(seed)]
    result = subprocess.run(
        [sys.executable, __file__, backend, order, *extra],
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


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("backend", BACKENDS)
def test_names_interned_first_do_not_change_the_reports(backend, seed):
    clean = _fresh_reports(backend, "forward")
    shifted = _fresh_reports(backend, "forward", seed)
    assert sorted(shifted) == sorted(GAP_SPECS)
    differ = [name for name in GAP_SPECS if clean[name] != shifted[name]]
    assert not differ, f"{backend}: reports depend on the interned names: {differ}"


@pytest.mark.parametrize("name", GAP_SPECS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_warm_store_run_reports_what_the_cold_run_computed(backend, name, tmp_path):
    store = tmp_path / "store"
    cold_pipeline = Pipeline(store=store)
    cold = report(backend, name, cold_pipeline)
    assert cold_pipeline.stage_calls["synthesize"] == 1
    warm_pipeline = Pipeline(store=store)
    warm = report(backend, name, warm_pipeline)
    assert warm_pipeline.stage_calls["synthesize"] == 0
    assert warm == cold, f"{backend}/{name}: stored report differs from computed"


def _gap_rows(capsys, jobs: int) -> list:
    code = main(["gap", "--no-store", "--json", "--jobs", str(jobs)])
    assert code == 0
    return _zero_seconds(json.loads(capsys.readouterr().out))


def test_gap_rows_do_not_depend_on_the_worker_count(capsys):
    one = _gap_rows(capsys, 1)
    assert [row["spec"] for row in one[:-1]] == list(GAP_SPECS)
    assert _gap_rows(capsys, 2) == one


if __name__ == "__main__":
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else None
    print(json.dumps(reports(sys.argv[1], sys.argv[2], seed)))
