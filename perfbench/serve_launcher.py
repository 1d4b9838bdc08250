"""Runs ``repro serve`` single-process, for the serve_mixed workload.

    python3 perfbench/serve_launcher.py --store DIR --report FILE

The server itself is the CLI's ``serve`` command on an ephemeral port; it
prints its ``listening on`` line as usual.  On ``SIGUSR1`` the launcher
wraps the program's layers (see ``layers.py``) and prints ``TRACING``, so
the traced phase starts after the pre-warm.  ``SIGINT`` stops the server;
the launcher then writes its peak RSS, and the spans if it traced, to the
report file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.api.cli import main as repro_main  # noqa: E402

import layers  # noqa: E402
from spans import Recorder  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--store", required=True)
    parser.add_argument("--report", required=True)
    args = parser.parse_args()

    recorder = Recorder()
    tracing = []

    def start_tracing(signum, frame):
        if not tracing:
            layers.install(recorder, "program")
            tracing.append(True)
        print("TRACING", flush=True)

    signal.signal(signal.SIGUSR1, start_tracing)
    # SIGINT stops the server even where the parent shell ignores it
    signal.signal(signal.SIGINT, signal.default_int_handler)
    status = repro_main(["serve", "--port", "0", "--store", args.store])
    report = {
        "status": status,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": recorder.spans if tracing else [],
    }
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
