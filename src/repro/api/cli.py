"""The ``python -m repro`` command line interface.

Drives the unified pipeline without writing Python::

    python -m repro list
    python -m repro synthesize handshake_seq --level 5 --map --verify
    python -m repro synthesize path/to/spec.g --backend statebased --json
    python -m repro verify muller_pipeline_4 --mapped
    python -m repro export sequencer --format verilog
    python -m repro export sequencer --format blif --lib two-input-only -o out.blif
    python -m repro compare sequencer --level 3
    python -m repro compare sequencer --backends statebased sat
    python -m repro synthesize converter_2to4 --backend sat --json
    python -m repro gap --spec fig6 --spec glatch_3
    python -m repro bench fig13 --json
    python -m repro cache stats
    python -m repro cache prewarm 'glatch_*' --jobs 4
    python -m repro serve --port 8765

``synthesize``/``verify``/``export``/``compare`` accept any spec source the
API accepts: a registry benchmark name or a ``.g`` file path.  ``export``
renders the mapped gate-level netlist in one of the four interchange
formats (``verilog``/``blif``/``json``/``eqn``); ``--lib`` selects a
built-in gate library or a library JSON file.

The CLI is durable by default: stage artifacts are persisted to the
content-addressed store (``~/.cache/repro``, or ``$REPRO_STORE``, or
``--store PATH``) and reused across invocations; ``--no-store`` opts out.
``repro cache`` inspects (``stats``), empties (``clear``) or fills
(``prewarm <glob>``) the store, and ``repro serve`` exposes the pipeline as
a long-lived HTTP daemon (see :mod:`repro.api.server`).

``--json`` on ``synthesize`` emits the *lossless, versioned* report document
(``Report.to_json``) — it reloads through ``Report.from_json`` identically.
Exit status is 0 on success, 1 when a check fails (verification/comparison
mismatch), and 2 on bad input (unknown spec, malformed ``.g``,
unsynthesizable STG, unknown library).
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import sys
from typing import Optional

from repro.api.backends import BACKEND_NAMES, compare
from repro.api.events import progress_printer
from repro.api.pipeline import Pipeline
from repro.api.scheduler import Job
from repro.api.spec import Spec, SpecError
from repro.api.store import get_store
from repro.gates.exporters import EXPORT_FORMATS, export_netlist
from repro.gates.ir import NetlistError
from repro.petri.reachability import StateSpaceLimitExceeded
from repro.sat.encode import SatBudgetExceeded
from repro.statebased.synthesis import StateBasedSynthesisError
from repro.synthesis.engine import SynthesisError, SynthesisOptions

#: bench targets exposed by ``python -m repro bench``
BENCH_TARGETS = ("table5", "table6", "table7", "table8", "fig13")


def _add_store_location(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=None,
        help="artifact store directory (default $REPRO_STORE or ~/.cache/repro)",
    )


def _add_store_options(parser: argparse.ArgumentParser) -> None:
    _add_store_location(parser)
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="run purely in memory (no artifacts persisted or reused)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print one progress line per resolved stage to stderr",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "deterministic fault injection, e.g. "
            "'seed=7;store.read=0.5;stage.error@synthesize=1x1' "
            "(default $REPRO_FAULTS; testing/chaos runs only)"
        ),
    )


def _add_spec_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("spec", help="benchmark name or path to a .g file")
    parser.add_argument(
        "--level",
        type=int,
        default=5,
        choices=range(1, 6),
        help="minimization level M1..M5 (default 5)",
    )
    parser.add_argument(
        "--assume-csc",
        action="store_true",
        help="accept specs whose CSC property is not certified structurally",
    )
    parser.add_argument(
        "--max-markings",
        type=int,
        default=None,
        help="bound on state-based enumeration (raises past it)",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    _add_store_options(parser)


def _pipeline_from_args(args) -> Pipeline:
    """A store-backed pipeline honouring ``--store``/``--no-store``/``--progress``."""
    if getattr(args, "no_store", False):
        store = None
    else:
        store = get_store(getattr(args, "store", None), default=True)
    on_event = progress_printer() if getattr(args, "progress", False) else None
    return Pipeline(store=store, on_event=on_event, faults=getattr(args, "faults", None))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Speed-independent circuit synthesis (Pastor et al.)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synthesize", help="synthesize a circuit from a spec")
    _add_spec_options(synth)
    synth.add_argument(
        "--backend",
        default="structural",
        choices=BACKEND_NAMES,
        help="synthesis backend (default structural)",
    )
    synth.add_argument("--map", action="store_true", help="run technology mapping")
    synth.add_argument("--verify", action="store_true", help="verify speed independence")
    synth.add_argument(
        "--verify-mapped",
        action="store_true",
        help="differentially verify the mapped gate-level netlist",
    )
    synth.add_argument(
        "--lib",
        default=None,
        help="gate library: built-in name or JSON file (default generic-cmos)",
    )
    synth.add_argument(
        "-o", "--output", default=None, help="write the report JSON to a file"
    )

    verify = sub.add_parser("verify", help="synthesize and verify a spec")
    _add_spec_options(verify)
    verify.add_argument(
        "--backend", default="structural", choices=BACKEND_NAMES
    )
    verify.add_argument(
        "--mapped",
        action="store_true",
        help="also differentially verify the mapped gate-level netlist",
    )
    verify.add_argument(
        "--lib",
        default=None,
        help="gate library for --mapped (built-in name or JSON file)",
    )

    export = sub.add_parser(
        "export", help="map a spec and export the gate-level netlist"
    )
    _add_spec_options(export)
    export.add_argument(
        "--backend", default="structural", choices=BACKEND_NAMES
    )
    export.add_argument(
        "--format",
        dest="fmt",
        default="verilog",
        choices=EXPORT_FORMATS,
        help="output format (default verilog)",
    )
    export.add_argument(
        "--lib",
        default=None,
        help="gate library: built-in name or JSON file (default generic-cmos)",
    )
    export.add_argument(
        "-o", "--output", default=None, help="write the netlist to a file"
    )

    comp = sub.add_parser(
        "compare", help="differential mode: run two backends and cross-check"
    )
    _add_spec_options(comp)
    comp.add_argument(
        "--backends",
        nargs=2,
        default=("structural", "statebased"),
        choices=BACKEND_NAMES,
        metavar=("FIRST", "SECOND"),
        help="the backend pair to cross-check (default: structural statebased)",
    )

    bench = sub.add_parser("bench", help="regenerate a table/figure of the paper")
    bench.add_argument("target", choices=BENCH_TARGETS)
    bench.add_argument("--json", action="store_true", help="emit JSON rows")

    gap = sub.add_parser(
        "gap", help="optimality-gap table: structural vs exact SAT minima"
    )
    gap.add_argument(
        "--spec",
        action="append",
        dest="specs",
        default=None,
        metavar="NAME",
        help="registry spec to include (repeatable; default: the gap registry)",
    )
    gap.add_argument("--level", type=int, default=5, help="structural level")
    gap.add_argument("--jobs", type=int, default=None, help="parallel workers")
    gap.add_argument(
        "--timeout", type=float, default=None, help="per-spec deadline in seconds"
    )
    gap.add_argument("--max-markings", type=int, default=None)
    gap.add_argument("--json", action="store_true", help="emit JSON rows")
    _add_store_location(gap)
    gap.add_argument(
        "--no-store",
        action="store_true",
        help="run purely in memory (no artifacts persisted or reused)",
    )

    cache = sub.add_parser("cache", help="inspect or manage the artifact store")
    cache.add_argument(
        "action", choices=("stats", "clear", "prewarm", "sweep"), help="what to do"
    )
    cache.add_argument(
        "pattern",
        nargs="?",
        default=None,
        help=(
            "spec-name glob: prewarm these registry benchmarks / clear only "
            "matching entries (e.g. 'glatch_*'; default: everything)"
        ),
    )
    cache.add_argument(
        "--level", type=int, default=5, choices=range(1, 6), help="prewarm level"
    )
    cache.add_argument(
        "--assume-csc",
        action="store_true",
        help="prewarm with assume_csc (matches later runs passing --assume-csc)",
    )
    cache.add_argument(
        "--backend", default="structural", choices=BACKEND_NAMES
    )
    cache.add_argument(
        "--map", action="store_true", help="also prewarm the technology-mapping stage"
    )
    cache.add_argument(
        "--verify", action="store_true", help="also prewarm the verification stage"
    )
    cache.add_argument(
        "--jobs", type=int, default=None, help="prewarm through a process pool"
    )
    cache.add_argument("--json", action="store_true", help="emit JSON instead of text")
    cache.add_argument(
        "--progress",
        action="store_true",
        help="print one progress line per prewarmed benchmark to stderr",
    )
    cache.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="stats only: query a running server's /cache/stats instead of "
        "opening the store locally",
    )
    _add_store_location(cache)

    serve = sub.add_parser(
        "serve", help="serve the pipeline as a long-lived HTTP daemon"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8765, help="0 binds an ephemeral port"
    )
    serve.add_argument("--verbose", action="store_true", help="log every request")
    serve.add_argument(
        "--no-store",
        action="store_true",
        help="serve from memory only (no disk store)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=8,
        help="locked requests in flight before shedding with 503 (default 8)",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        help="seconds an admitted request may wait for the service lock "
        "before a 504 (default: wait indefinitely)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="prefork a supervised SO_REUSEPORT fleet of N worker processes "
        "(0, the default, serves single-process in this process)",
    )
    serve.add_argument(
        "--max-requests",
        type=int,
        default=None,
        help="recycle a fleet worker after serving this many requests "
        "(default: never; fleet mode only)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds a draining worker may spend finishing in-flight "
        "requests before it is killed (fleet mode only, default 10)",
    )
    serve.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=10.0,
        help="seconds without a worker heartbeat before the supervisor "
        "declares it hung and respawns it (fleet mode only, default 10)",
    )
    serve.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="deterministic fault injection for fleet chaos runs, e.g. "
        "'seed=7;worker.kill@synthesize=0.05' (default $REPRO_FAULTS)",
    )
    serve.add_argument(
        "--obs",
        nargs="?",
        const="on",
        default=None,
        metavar="SPEC",
        help="observability: bare --obs turns tracing+metrics on, or pass a "
        "grammar like 'dir=/tmp/run;trace=off' (default $REPRO_OBS); "
        "enables GET /metrics and per-process trace sinks",
    )
    serve.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="fleet run directory for heartbeats, trace sinks and metric "
        "snapshots (default: a private tempdir; set one to use "
        "'repro top --run-dir' and 'repro trace')",
    )
    _add_store_location(serve)

    trace = sub.add_parser(
        "trace", help="inspect stitched distributed traces from a run dir"
    )
    trace.add_argument(
        "action", choices=("show", "ls"), help="show one trace / list recent traces"
    )
    trace.add_argument(
        "trace_id", nargs="?", default=None, help="trace id (show only)"
    )
    trace.add_argument(
        "--dir",
        required=True,
        metavar="DIR",
        help="run directory holding the trace-*.jsonl sinks",
    )
    trace.add_argument("--json", action="store_true", help="emit span records as JSON")

    top = sub.add_parser(
        "top", help="live terminal dashboard over /metrics or a fleet run dir"
    )
    top.add_argument(
        "--url", default=None, help="server base URL to scrape (e.g. http://127.0.0.1:8765)"
    )
    top.add_argument(
        "--run-dir", default=None, help="fleet run directory to merge snapshots from"
    )
    top.add_argument(
        "--interval", type=float, default=1.0, help="seconds between samples"
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="sample N times then exit (default: run until interrupted)",
    )
    top.add_argument(
        "--once", action="store_true", help="shorthand for --iterations 1"
    )
    top.add_argument(
        "--json", action="store_true", help="emit one JSON document per sample"
    )

    fuzz = sub.add_parser(
        "fuzz", help="generate corpus STGs and run the differential fuzzing farm"
    )
    fuzz_sub = fuzz.add_subparsers(dest="fuzz_command", required=True)

    fuzz_run = fuzz_sub.add_parser(
        "run", help="run a seeded differential campaign over generated specs"
    )
    fuzz_run.add_argument("--count", type=int, default=100, help="specs to generate")
    fuzz_run.add_argument("--seed", type=int, default=0, help="campaign seed")
    fuzz_run.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="scheduler fan-out (0/1 sequential, n>1 pool, -1 cpu count)",
    )
    fuzz_run.add_argument(
        "--time-budget",
        type=float,
        default=None,
        help="seconds; stops generating new specs past the budget",
    )
    fuzz_run.add_argument(
        "--max-markings",
        type=int,
        default=600,
        help="state-space bound per spec (exploding candidates are discarded)",
    )
    fuzz_run.add_argument(
        "--quarantine",
        default=None,
        help="directory for minimal counterexamples "
        "(default: $REPRO_CORPUS_QUARANTINE or corpus/quarantine)",
    )
    fuzz_run.add_argument(
        "--no-shrink",
        action="store_true",
        help="file failing specs as-is instead of delta-debugging them",
    )
    fuzz_run.add_argument(
        "--faults",
        default=None,
        help="fault spec (repro.api.faults grammar), e.g. 'seed=3;corpus.flip=0.5'",
    )
    fuzz_run.add_argument(
        "--progress", action="store_true", help="print per-spec progress events"
    )
    fuzz_run.add_argument("--json", action="store_true")

    fuzz_gen = fuzz_sub.add_parser(
        "gen", help="generate corpus specs without checking them"
    )
    fuzz_gen.add_argument("--count", type=int, default=10)
    fuzz_gen.add_argument("--seed", type=int, default=0)
    fuzz_gen.add_argument(
        "--max-markings", type=int, default=600, help="validity-filter bound"
    )
    fuzz_gen.add_argument(
        "-o", "--out", default=None, help="directory to write the .g files into"
    )
    fuzz_gen.add_argument("--json", action="store_true")

    fuzz_replay = fuzz_sub.add_parser(
        "replay", help="replay quarantined counterexamples against expectations"
    )
    fuzz_replay.add_argument(
        "--quarantine",
        default=None,
        help="directory to replay (default: $REPRO_CORPUS_QUARANTINE or corpus/quarantine)",
    )
    fuzz_replay.add_argument("--max-markings", type=int, default=None)
    fuzz_replay.add_argument("--json", action="store_true")

    list_parser = sub.add_parser("list", help="list registered benchmarks")
    list_parser.add_argument(
        "--json",
        action="store_true",
        help="emit name, signals, transitions, places and safety class as JSON",
    )

    return parser


def _emit(data: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(data, indent=2))
    else:
        print(text)


def _cmd_synthesize(args) -> int:
    job = Job(
        spec=Spec.load(args.spec),
        options=SynthesisOptions(level=args.level, assume_csc=args.assume_csc),
        backend=args.backend,
        map_technology=args.map,
        verify=args.verify,
        verify_mapped=args.verify_mapped,
        library=args.lib,
        max_markings=args.max_markings,
    )
    report = job.run(_pipeline_from_args(args))
    # the versioned lossless document (reloads through Report.from_json);
    # only built when something consumes it — serializing the circuit,
    # bitset rows and netlist is wasted work in plain-text mode
    document = report.to_json() if (args.json or args.output) else None
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
    _emit(document, args.json, report.describe())
    if args.verify and not report.verification.speed_independent:
        return 1
    if args.verify_mapped and not report.mapped_verification.equivalent:
        return 1
    return 0


def _cmd_verify(args) -> int:
    spec = Spec.load(args.spec)
    options = SynthesisOptions(level=args.level, assume_csc=args.assume_csc)
    pipeline = _pipeline_from_args(args)
    verification = pipeline.verify(
        spec, options, backend=args.backend, max_markings=args.max_markings
    )
    text = (
        f"{spec.name}: speed independent: {verification.speed_independent} "
        f"(checked {verification.checked_markings} markings)"
    )
    if not verification.speed_independent:
        text += (
            f"\n  functional errors: {len(verification.functional_errors)}"
            f"\n  hazard errors: {len(verification.hazard_errors)}"
        )
    data = verification.to_json()
    ok = verification.speed_independent
    if args.mapped:
        mapped = pipeline.verify_mapped(
            spec,
            options,
            backend=args.backend,
            library=args.lib,
            max_markings=args.max_markings,
        )
        text += (
            f"\n{spec.name}: mapped netlist equivalent: {mapped.equivalent} "
            f"(checked {mapped.checked_codes} state codes, "
            f"{mapped.gate_count} gates)"
        )
        data = {"verify": data, "verify_mapped": mapped.to_json()}
        ok = ok and mapped.equivalent
    _emit(data, args.json, text)
    return 0 if ok else 1


def _cmd_export(args) -> int:
    spec = Spec.load(args.spec)
    options = SynthesisOptions(level=args.level, assume_csc=args.assume_csc)
    mapping = _pipeline_from_args(args).map(
        spec,
        options,
        backend=args.backend,
        library=args.lib,
        max_markings=args.max_markings,
    )
    text = export_netlist(mapping.netlist, args.fmt)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(
            f"{spec.name}: wrote {args.fmt} netlist "
            f"({mapping.gate_count} gates, area {mapping.total_area}) "
            f"to {args.output}"
        )
    else:
        print(text, end="")
    return 0


def _cmd_compare(args) -> int:
    spec = Spec.load(args.spec)
    options = SynthesisOptions(level=args.level, assume_csc=args.assume_csc)
    backends = tuple(args.backends)
    report = compare(
        spec,
        options,
        pipeline=_pipeline_from_args(args),
        max_markings=args.max_markings,
        backends=backends,
    )
    first, second = report.backends
    width = max(len(first), len(second), len("checked markings"))
    lines = [
        f"{spec.name}: next-state functions "
        + ("MATCH" if report.matching else "MISMATCH"),
        f"  {'checked markings':{width}} : {report.checked_markings}",
        f"  {first:{width}} : {report.structural.literals} literals, "
        f"{report.structural.total_seconds:.3f}s",
        f"  {second:{width}} : {report.statebased.literals} literals, "
        f"{report.statebased.total_seconds:.3f}s",
    ]
    if report.speedup is not None:
        lines.append(f"  {second}/{first} time ratio: {report.speedup:.2f}x")
    for mismatch in report.mismatches:
        lines.append(f"  mismatch: {mismatch}")
    _emit(report.to_dict(), args.json, "\n".join(lines))
    return 0 if report.matching else 1


def _cmd_gap(args) -> int:
    from repro.experiments.optimality_gap import gap_rows
    from repro.experiments.reporting import format_table

    store = None if args.no_store else get_store(args.store, default=True)
    rows = gap_rows(
        names=args.specs,
        level=args.level,
        store=store,
        jobs=args.jobs,
        timeout=args.timeout,
        max_markings=args.max_markings,
    )
    if args.json:
        print(json.dumps(rows, indent=2, default=str))
    else:
        print(
            format_table(
                rows, title="Optimality gap — structural vs exact SAT minima"
            )
        )
    body = rows[:-1]
    solved = [r for r in body if r["status"] == "ok"]
    unsound = [r for r in solved if not r["sound"] or not r["matching"]]
    if unsound:
        print(
            "gap violation (exact > heuristic or differential mismatch): "
            + ", ".join(r["spec"] for r in unsound),
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_bench(args) -> int:
    from repro.experiments.reporting import format_table

    if args.target == "fig13":
        from repro.experiments.fig13 import fig13_rows

        rows = fig13_rows()
        title = "Fig. 13 — average area per minimization level"
    elif args.target == "table5":
        from repro.experiments.table5 import table5_rows

        rows = table5_rows()
        title = "Table V — area comparison"
    elif args.target == "table6":
        from repro.experiments.table6 import table6_rows

        rows = table6_rows()
        title = "Table VI — CPU time on large-RG STGs"
    elif args.target == "table7":
        from repro.experiments.table7 import table7_rows

        rows = table7_rows()
        title = "Table VII — CPU time on the scalable examples"
    else:
        from repro.experiments.table8 import table8_rows

        rows = table8_rows()
        title = "Table VIII — markings / nodes / cubes"
    if args.json:
        print(json.dumps(rows, indent=2, default=str))
    else:
        print(format_table(rows, title=title))
    return 0


def _cmd_cache(args) -> int:
    store = get_store(args.store, default=True)

    if args.action == "stats":
        if args.pattern is not None:
            print("error: `cache stats` takes no pattern", file=sys.stderr)
            return 2
        if args.url is not None:
            # a running server's view: its pipeline counters and its store
            # handle's session numbers
            from repro.api.client import Client

            remote = Client(args.url).cache_stats()
            stats = remote.get("store") or {}
            if not stats:
                _emit(remote, args.json, f"{args.url}: no store attached")
                return 0
            if args.json:
                print(json.dumps(remote, indent=2))
                return 0
        else:
            stats = store.stats()
            if args.json:
                print(json.dumps(stats, indent=2))
                return 0
        session = stats.get("session", {})
        print(f"store: {stats['root']} (code version {stats['code_version']})")
        print(
            f"  entries: {stats['entries']} "
            f"({stats['stale_entries']} stale), {stats['bytes']} bytes"
        )
        for stage, count in stats["per_stage"].items():
            print(f"  {stage}: {count}")
        print(
            f"  session: {session.get('hits', 0)} hits, "
            f"{session.get('misses', 0)} misses, "
            f"{session.get('writes', 0)} writes"
        )
        if (
            stats["quarantined_entries"]
            or stats["tmp_files"]
            or stats["tmp_swept"]
            or session.get("quarantined")
        ):
            print(
                f"  quarantined: {stats['quarantined_entries']} "
                f"({session.get('quarantined', 0)} this session), "
                f"orphaned tmp: {stats['tmp_files']} "
                f"(swept {stats['tmp_swept']})"
            )
        return 0

    if args.action == "sweep":
        if args.pattern is not None:
            print("error: `cache sweep` takes no pattern", file=sys.stderr)
            return 2
        swept = store.sweep()
        _emit(
            swept,
            args.json,
            f"swept {swept['tmp_removed']} orphaned temp file(s), "
            f"quarantined {swept['stale_quarantined']} damaged/stale entr(y/ies)",
        )
        return 0

    if args.action == "clear":
        # a pattern scopes the removal to matching spec names; without one
        # the whole store (including stale temp files) is emptied
        removed = store.clear(spec_pattern=args.pattern)
        scope = f" for {args.pattern!r}" if args.pattern else ""
        _emit(
            {"cleared": removed, "pattern": args.pattern},
            args.json,
            f"removed {removed} store entries{scope}",
        )
        return 0

    # prewarm: run the selected stages of every matching registry benchmark
    # through the store so later runs (CLI, experiments, server) start warm.
    from repro.api.scheduler import Scheduler, make_jobs
    from repro.benchmarks.registry import list_benchmarks

    pattern = args.pattern or "*"
    names = [name for name in list_benchmarks() if fnmatch.fnmatch(name, pattern)]
    if not names:
        print(f"error: no registry benchmark matches {pattern!r}", file=sys.stderr)
        return 2
    on_event = progress_printer() if args.progress else None
    scheduler = Scheduler(jobs=args.jobs, store=store, on_event=on_event)
    # assume_csc is part of the stage keys: prewarm with the same flag the
    # later runs will use (default off, matching a plain `repro synthesize`)
    options = SynthesisOptions(level=args.level, assume_csc=args.assume_csc)
    jobs = make_jobs(
        names,
        options,
        backend=args.backend,
        map_technology=args.map,
        verify=args.verify,
    )
    failures: list[str] = []
    succeeded = 0
    for result in scheduler.iter_results(jobs):
        if result.ok:
            succeeded += 1
        else:
            failures.append(f"{result.job.spec.name}: {result.error}")
    stats = store.stats()
    summary = {
        "prewarmed": succeeded,
        "failed": len(failures),
        "failures": failures,
        "store": {
            "root": stats["root"],
            "entries": stats["entries"],
            "bytes": stats["bytes"],
            "session": stats["session"],
        },
    }
    text = (
        f"prewarmed {succeeded}/{len(jobs)} benchmarks into {stats['root']} "
        f"({stats['entries']} entries, {stats['bytes']} bytes)"
    )
    if failures:
        text += "\n" + "\n".join(f"  failed: {line}" for line in failures)
    _emit(summary, args.json, text)
    return 0 if not failures else 1


def _cmd_serve(args) -> int:
    from repro.api.server import run_server

    store = None if args.no_store else get_store(args.store, default=True)
    if args.workers > 0:
        import os as _os

        from repro.api.fleet import FleetConfig, run_fleet

        faults = args.faults if args.faults is not None else _os.environ.get("REPRO_FAULTS")
        return run_fleet(
            FleetConfig(
                host=args.host,
                port=args.port,
                workers=args.workers,
                store=str(store.root) if store is not None else None,
                max_requests=args.max_requests,
                drain_timeout=args.drain_timeout,
                heartbeat_timeout=args.heartbeat_timeout,
                max_queue=args.max_queue,
                request_timeout=args.request_timeout,
                faults=faults,
                verbose=args.verbose,
                run_dir=args.run_dir,
                obs=args.obs,
            )
        )
    obs = args.obs
    if obs is not None and args.run_dir is not None:
        from repro.obs import Obs, get_obs

        resolved = get_obs(obs) or Obs()
        if resolved.dir is None:
            resolved = resolved.reconfigure(dir=args.run_dir, service="server")
        obs = resolved
    return run_server(
        host=args.host,
        port=args.port,
        store=store,
        verbose=args.verbose,
        max_queue=args.max_queue,
        request_timeout=args.request_timeout,
        obs=obs,
    )


def _cmd_trace(args) -> int:
    from repro.obs.trace import list_traces, load_trace, render_trace

    if args.action == "ls":
        summaries = list_traces(args.dir)
        if args.json:
            print(json.dumps(summaries, indent=2))
            return 0
        if not summaries:
            print(f"no traces under {args.dir}")
            return 0
        for summary in summaries:
            print(
                f"{summary['trace']}  {summary['spans']:3d} span(s)  "
                f"{len(summary['services'])} service(s)  "
                f"{summary['root'] or '?'}"
            )
        return 0
    if not args.trace_id:
        print("error: `trace show` needs a trace id (try `trace ls`)", file=sys.stderr)
        return 2
    records = load_trace(args.dir, args.trace_id)
    if not records:
        print(f"error: no spans for trace {args.trace_id!r} under {args.dir}",
              file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(records, indent=2))
    else:
        print(render_trace(records))
    return 0


def _cmd_top(args) -> int:
    from repro.obs.top import run_top

    iterations = 1 if args.once else args.iterations
    return run_top(
        url=args.url,
        run_dir=args.run_dir,
        interval=args.interval,
        iterations=iterations,
        json_output=args.json,
    )


def _cmd_list(args) -> int:
    from repro.benchmarks.registry import list_benchmarks

    if not getattr(args, "json", False):
        for name in list_benchmarks():
            print(name)
        return 0
    rows = []
    for name in list_benchmarks():
        stg = Spec.from_benchmark(name).stg
        marking = stg.initial_marking
        safe = all(marking.tokens(place) <= 1 for place in marking)
        rows.append(
            {
                "name": name,
                "signals": len(stg.signal_names),
                "transitions": len(stg.transitions),
                "places": len(stg.places),
                "class": "safe" if safe else "k-bounded",
            }
        )
    print(json.dumps(rows, indent=2))
    return 0


def _cmd_fuzz(args) -> int:
    from repro.corpus.campaign import CampaignConfig, run_campaign
    from repro.corpus.generator import GeneratorConfig, generate_corpus
    from repro.corpus.quarantine import CorpusQuarantine

    if args.fuzz_command == "run":
        config = CampaignConfig(
            count=args.count,
            seed=args.seed,
            jobs=args.jobs,
            max_markings=args.max_markings,
            time_budget=args.time_budget,
            faults=args.faults,
            quarantine=CorpusQuarantine(args.quarantine),
            shrink=not args.no_shrink,
        )
        on_event = progress_printer() if args.progress else None
        report = run_campaign(config, on_event=on_event)
        if args.json:
            print(json.dumps(report.to_dict(), indent=2))
        else:
            classes = ", ".join(
                f"{count} {klass}" for klass, count in sorted(report.by_class.items())
            )
            print(
                f"campaign seed={report.seed}: {report.checked}/{report.requested} "
                f"specs checked ({classes}; {report.consistent} consistent, "
                f"{report.synthesized} synthesized) in {report.total_seconds:.1f}s "
                f"({report.specs_per_second:.1f} specs/s), digest {report.digest}"
            )
            if report.budget_exhausted:
                print("time budget exhausted before the full count was generated")
            for finding in report.findings:
                tag = " [injected]" if finding.injected else ""
                where = f" -> {finding.quarantined}" if finding.quarantined else ""
                print(
                    f"FAIL {finding.spec_name} {finding.check}{tag}: "
                    f"{finding.detail}{where}"
                )
            if report.ok:
                print("no mismatches")
        return 0 if report.ok else 1

    if args.fuzz_command == "gen":
        from repro.stg.writer import write_g

        generator_config = GeneratorConfig(max_markings=args.max_markings)
        rows = []
        for corpus_spec in generate_corpus(args.count, args.seed, generator_config):
            summary = corpus_spec.summary()
            rows.append(summary)
            if args.out:
                os.makedirs(args.out, exist_ok=True)
                path = os.path.join(args.out, f"{corpus_spec.spec.name}.g")
                write_g(corpus_spec.spec.stg, path)
                summary["path"] = path
            if not args.json:
                print(
                    f"{summary['name']}: {summary['states']} states, "
                    f"{summary['class']}, consistent={summary['consistent']}, "
                    f"live={summary['live']}"
                )
        if args.json:
            print(json.dumps(rows, indent=2))
        return 0

    # replay
    quarantine = CorpusQuarantine(args.quarantine)
    results = list(quarantine.replay(max_markings=args.max_markings))
    bad = [r for r in results if not r.ok]
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "entry": r.entry.name,
                        "expected": r.expected,
                        "observed": r.observed,
                        "ok": r.ok,
                    }
                    for r in results
                ],
                indent=2,
            )
        )
    else:
        for r in results:
            verdict = "ok" if r.ok else "UNEXPECTED"
            print(f"{r.entry.name}: expected {r.expected}, observed {r.observed} [{verdict}]")
        print(f"{len(results) - len(bad)}/{len(results)} entries behave as recorded")
    return 1 if bad else 0


_COMMANDS = {
    "synthesize": _cmd_synthesize,
    "verify": _cmd_verify,
    "export": _cmd_export,
    "compare": _cmd_compare,
    "bench": _cmd_bench,
    "gap": _cmd_gap,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
    "top": _cmd_top,
    "list": _cmd_list,
    "fuzz": _cmd_fuzz,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    from repro.api.faults import InjectedFault

    try:
        return _COMMANDS[args.command](args)
    except InjectedFault as error:
        # a chaos run's unrecovered fault: its own exit code so smoke
        # scripts can tell "fault escaped" from ordinary bad input
        print(f"injected fault: {error}", file=sys.stderr)
        return 3
    except SpecError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (SynthesisError, StateBasedSynthesisError) as error:
        print(f"synthesis error: {error}", file=sys.stderr)
        return 2
    except SatBudgetExceeded as error:
        # the exact backend ran out of candidate budget: a capacity limit,
        # reported like other resource exhaustion (state-space bounds)
        print(f"sat budget exceeded: {error}", file=sys.stderr)
        return 2
    except NetlistError as error:
        print(f"netlist error: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        # unknown library name / unreadable or malformed library file
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        raise  # closed stdout (e.g. piping into head) is not a CLI error
    except OSError as error:
        # unwritable -o target and similar filesystem failures
        print(f"error: {error}", file=sys.stderr)
        return 2
    except StateSpaceLimitExceeded as error:
        print(f"state-space limit exceeded: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
