"""Workload definitions and their seeded inputs.

A compute workload is a list of registry specs and the ``Pipeline.run``
options applied to each; one *pass* synthesizes every spec once, in an
order drawn from the seed, each with a fresh ``Pipeline`` so nothing is
served from a cache.  A run does a fixed number of whole passes, so the
percentiles of every run are taken over the same multiset of specs.

``serve_mixed`` is a seeded stream of requests to one ``repro serve``
process, sent in rounds: every round holds the same classes and warm specs,
and only their order and the never-seen corpus specs depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: the synthesizable classic benchmarks (every classic but latch_ctrl)
CLASSICS = (
    "completion",
    "converter_2to4",
    "dma_ctrl",
    "handshake_seq",
    "parallelizer",
    "pipeline_ctrl",
    "rw_port",
    "selector",
    "sequencer",
)


@dataclass(frozen=True)
class ComputeWorkload:
    name: str
    #: an odd number of specs puts latency_p50_ms inside one spec's
    #: cluster of times, not on the boundary between two
    specs: tuple
    options: dict
    #: the pass count of a run is its --seconds over this, fixed per run
    #: length so that it does not depend on the speed of the code measured.
    #: At the reference speed a pass takes about 1.3 s (structural), 3.6 s
    #: (state-based) and 2.0 s (exact), so a 20 s run measures 22, 29 and
    #: 24 s: the state-based workload keeps 8 passes, since its times
    #: spread most
    pass_seconds: float
    #: latency_tail_ms leaves ``tail_passes`` passes' worth of samples beyond
    #: it (at least 10), chosen so that it falls in the middle of one
    #: cluster of samples, not on the edge between two: the middle of a
    #: cluster held steadier across seeds than its edges (10-14% against
    #: 16-30%).  Structural: the median sample of muller_pipeline_32, the
    #: slowest spec.  State-based: glatch_8's samples (the slowest) plus half
    #: of the cluster of independent_cells_5, philosophers_5 and
    #: muller_pipeline_8, three specs of about the same time.  Exact:
    #: dma_ctrl's samples plus half of selector's, the second slowest
    tail_passes: float


COMPUTE = {
    "structural_scalable": ComputeWorkload(
        name="structural_scalable",
        specs=(
            "muller_pipeline_8",
            "muller_pipeline_16",
            "muller_pipeline_32",
            "independent_cells_20",
            "independent_cells_45",
            "philosophers_5",
            "philosophers_8",
            "glatch_5",
            "glatch_8",
        ),
        options={"backend": "structural", "map_technology": True},
        pass_seconds=1.2,
        tail_passes=0.5,
    ),
    "statebased_verified": ComputeWorkload(
        name="statebased_verified",
        specs=(
            "muller_pipeline_8",
            "independent_cells_5",
            "philosophers_5",
            "glatch_5",
            "glatch_8",
            "fig1",
        )
        + CLASSICS,
        options={"backend": "statebased", "verify": True, "verify_mapped": True},
        pass_seconds=2.5,
        tail_passes=2.5,
    ),
    "exact_registry": ComputeWorkload(
        name="exact_registry",
        # the 13 specs of `repro gap` (repro.experiments.optimality_gap)
        specs=CLASSICS + ("fig1", "fig6", "glatch_3", "muller_pipeline_2"),
        options={"backend": "sat", "map_technology": True},
        pass_seconds=1.6,
        tail_passes=1.5,
    ),
}

#: registry specs the exact-reach probe tries (every enumerable spec the
#: compute workloads use)
REACH_PROBE_SPECS = tuple(
    dict.fromkeys(COMPUTE["statebased_verified"].specs + COMPUTE["exact_registry"].specs)
)


def passes(workload: ComputeWorkload, seconds: float) -> int:
    return max(1, round(seconds / workload.pass_seconds))


def tail_beyond(workload: ComputeWorkload, count: int) -> int:
    """Samples a run of ``count`` passes leaves beyond latency_tail_ms."""
    return max(10, int(workload.tail_passes * count))


def pass_orders(workload: ComputeWorkload, seed: int, count: int) -> list[list[str]]:
    """The spec order of each pass, drawn from the seed."""
    rng = random.Random(f"{workload.name}|{seed}")
    return [rng.sample(workload.specs, len(workload.specs)) for _ in range(count)]


# ---------------------------------------------------------------------- #
# serve_mixed
# ---------------------------------------------------------------------- #

SERVE = "serve_mixed"

#: registry specs the server holds warm; latch_ctrl violates CSC, so its
#: correct outcome is the typed synthesis_error
WARM_SPECS = CLASSICS + ("latch_ctrl", "fig1", "fig6", "glatch_3", "muller_pipeline_4", "philosophers_3")
EXPECTED_ERRORS = {"latch_ctrl": "synthesis_error"}

#: the request options of the warm classes: the structural backend (the
#: server's default) plus technology mapping
WARM_OPTIONS = {"map_technology": True}

#: the never-seen specs are synthesized by the state-based backend, which
#: accepts exactly the specs :func:`oracle.well_formed` admits (the
#: structural flow also refuses some of them: it certifies CSC
#: conservatively)
NOVEL_OPTIONS = {"backend": "statebased", "map_technology": True}

#: a never-seen spec has at most this many reachable markings, which keeps
#: its compute time within a few milliseconds whatever the seed draws
NOVEL_MAX_MARKINGS = 48

#: requests per warm spec in each round, by class.  No traffic record
#: exists to take the mix from; it is chosen so that each class is what its
#: name says: a round starts with one memory-only ``POST /cache/clear``
#: (untimed) and then one ``after_clear`` request per warm spec, which the
#: store serves and which refill the memory cache, so every later ``name``
#: or ``inline`` request of the round is a memory hit
PER_WARM_SPEC = (("after_clear", 1), ("name", 23), ("inline", 15))

#: never-seen corpus specs per round: computed, then written to the store
NOVEL_PER_ROUND = 15

#: requests per round (600); a run sends whole rounds
SERVE_ROUND = len(WARM_SPECS) * sum(count for _, count in PER_WARM_SPEC) + NOVEL_PER_ROUND

#: requests per second on the reference box, which fixes the round count
SERVE_RATE = 360.0

#: latency_tail_ms of serve_mixed: this nearest-rank percentile of each
#: round, then the median over the rounds
SERVE_TAIL_PERCENTILE = 97.0

#: the client times a calibration slice (``calibrate.py``) before every
#: this many requests: about every 50 ms, well within the seconds for which
#: the host holds one speed
SERVE_CALIBRATE_EVERY = 20

#: server set-ups per run, for the median setup_s
SERVE_SETUPS = 3


def serve_rounds(seconds: float) -> int:
    return max(1, round(seconds * SERVE_RATE / SERVE_ROUND))


def serve_stream(seed: int, rounds: int) -> list[list[tuple[str, object]]]:
    """The request stream, by round: ``(class, warm spec | novel index)``.

    Every round opens with its ``after_clear`` block (each warm spec once)
    and goes on with the same multiset of ``name`` and ``inline`` requests
    plus its own never-seen specs; the seed draws both orders.
    """
    rng = random.Random(f"{SERVE}|{seed}")
    stream = []
    for number in range(rounds):
        block = [("after_clear", name) for name in rng.sample(WARM_SPECS, len(WARM_SPECS))]
        rest: list[tuple[str, object]] = [
            (klass, name)
            for klass, count in PER_WARM_SPEC
            if klass != "after_clear"
            for name in WARM_SPECS
            for _ in range(count)
        ]
        rest.extend(("novel", number * NOVEL_PER_ROUND + i) for i in range(NOVEL_PER_ROUND))
        rng.shuffle(rest)
        stream.append(block + rest)
    return stream


def novel_specs(seed: int, count: int) -> list:
    """``count`` never-seen corpus specs, drawn from the run's seed.

    Candidates come from ``repro.corpus`` generation; the benchmark's own
    token game (:func:`oracle.well_formed`) keeps those in the paper's
    class of specifications with at most :data:`NOVEL_MAX_MARKINGS`
    markings.  No part of the program under test takes part in the choice,
    so every chosen spec must come back as a certified circuit.
    """
    from repro.corpus.generator import generate_spec
    from oracle import well_formed

    chosen = []
    index = 0
    while len(chosen) < count:
        candidate = generate_spec(seed, index)
        index += 1
        if well_formed(candidate.spec.stg, NOVEL_MAX_MARKINGS):
            chosen.append(candidate.spec)
    return chosen
