"""Supervised prefork serving fleet: the scale-out half of the daemon.

``repro serve --workers N`` no longer runs one ``ThreadingHTTPServer``; it
runs a *supervisor* process that preforks ``N`` worker processes, each a
full hardened PR 5/6 server (bounded admission, request deadlines,
structured errors) bound to the **same** port via ``SO_REUSEPORT`` — the
kernel load-balances connections across the workers, so saturation
throughput scales with cores instead of being serialized through one
service lock.  All workers share one content-addressed
:class:`~repro.api.store.ArtifactStore`, so any worker can serve any
previously computed artifact.

Supervision contract
--------------------

* **Liveness** — every worker touches a per-incarnation heartbeat file from
  its main loop; a worker whose heartbeat goes stale for longer than
  ``heartbeat_timeout`` is declared hung, SIGKILLed and respawned.
* **Respawn** — a worker that exits for any unplanned reason (crash,
  ``worker.kill`` chaos, OOM kill) is respawned immediately with an
  incremented *generation*; the supervisor logs a ``respawn`` line and
  emits a ``worker`` event.  Clients never see the crash as a failure: the
  kernel routes new connections to the surviving workers and the
  :class:`~repro.api.client.Client` retries the broken ones.
* **Recycling** — after serving ``max_requests`` locked requests a worker
  drains itself and exits with :data:`EXIT_RECYCLED`; the supervisor
  respawns it with a fresh process (bounded memory growth, the classic
  prefork hygiene).  A recycle is planned and logged as ``recycle``.
* **Graceful drain** — SIGTERM (or Ctrl-C) to the supervisor forwards
  SIGTERM to every worker; each worker stops accepting, finishes its
  in-flight requests, and exits 0.  Workers still alive after
  ``drain_timeout`` seconds are SIGKILLed.  A drained fleet loses no
  admitted request.

Stage resolution
----------------

A worker resolves a stage the way every other process does: its own
:class:`~repro.api.pipeline.Pipeline` memory, then the shared store, then
computation.  Its service lock serializes its requests, so a herd of
concurrent cold requests for one key is computed at most once per worker,
and the store's atomic writes leave one entry per key whichever worker
wrote last.

Chaos wiring
------------

The PR 6 fault sites drive the fleet deterministically: ``worker.kill``
rules (scoped by endpoint) hard-exit a worker mid-request — each worker
incarnation derives its schedule from ``(seed, worker slot, generation)``
so a fixed seed replays an identical kill schedule fleet-wide — and
``stage.delay`` stretches stage computations to widen race windows.  The
chaos acceptance bar of this PR: a seeded campaign of kills and delays
under concurrent load completes with **zero** client-visible failures.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.api.events import Event, EventCallback
from repro.api.store import ArtifactStore, TMP_SWEEP_AGE
from repro.obs import Obs, get_obs

#: planned worker exit codes the supervisor distinguishes from crashes
EXIT_DRAINED = 0
EXIT_RECYCLED = 43

#: exit code of a ``worker.kill`` chaos hit (see faults.FaultInjector)
KILL_EXIT_CODE = 13


# ---------------------------------------------------------------------- #
# Fleet configuration
# ---------------------------------------------------------------------- #


@dataclass
class FleetConfig:
    """Everything the supervisor and its workers need, JSON-serializable."""

    host: str = "127.0.0.1"
    port: int = 8765  # 0 picks an ephemeral port at supervisor start
    workers: int = 2
    store: Optional[str] = None  # store root; None serves memory-only
    max_requests: Optional[int] = None  # recycle a worker after N requests
    drain_timeout: float = 10.0
    heartbeat_interval: float = 0.5
    heartbeat_timeout: float = 10.0
    max_queue: int = 8
    request_timeout: Optional[float] = None
    faults: Optional[str] = None  # fault grammar shipped to every worker
    verbose: bool = False
    run_dir: Optional[str] = None  # heartbeat directory (default: tempdir)
    obs: Optional[str] = None  # observability grammar shipped to every worker

    def to_json(self) -> dict:
        return {
            "host": self.host,
            "port": self.port,
            "workers": self.workers,
            "store": self.store,
            "max_requests": self.max_requests,
            "drain_timeout": self.drain_timeout,
            "heartbeat_interval": self.heartbeat_interval,
            "heartbeat_timeout": self.heartbeat_timeout,
            "max_queue": self.max_queue,
            "request_timeout": self.request_timeout,
            "faults": self.faults,
            "verbose": self.verbose,
            "run_dir": self.run_dir,
            "obs": self.obs,
        }

    @classmethod
    def from_json(cls, document: dict) -> "FleetConfig":
        return cls(**{key: document[key] for key in cls().to_json() if key in document})


@dataclass
class WorkerHandle:
    """One supervised worker slot."""

    slot: int
    generation: int
    process: subprocess.Popen
    heartbeat: Path
    started: float = field(default_factory=time.time)

    @property
    def pid(self) -> int:
        return self.process.pid

    def heartbeat_age(self) -> Optional[float]:
        """Seconds since the worker last proved liveness (None: no beat yet)."""
        try:
            return max(0.0, time.time() - self.heartbeat.stat().st_mtime)
        except OSError:
            return None


# ---------------------------------------------------------------------- #
# Supervisor
# ---------------------------------------------------------------------- #


class FleetSupervisor:
    """Prefork supervisor: spawn, watch, respawn, recycle, drain.

    Use as a context manager (tests) or through :func:`run_fleet` (CLI)::

        supervisor = FleetSupervisor(FleetConfig(port=0, workers=4))
        supervisor.start()          # binds the port, spawns the workers
        ...                         # drive load at supervisor.port
        supervisor.stop()           # graceful drain

    ``poll()`` performs one supervision pass and is safe to call from a
    test loop; :meth:`run` wraps it in the blocking signal-driven loop the
    CLI uses.
    """

    def __init__(
        self,
        config: FleetConfig,
        on_event: Optional[EventCallback] = None,
        log_stream=None,
    ):
        self.config = config
        self.on_event = on_event
        self.log_stream = log_stream if log_stream is not None else sys.stderr
        self.port: Optional[int] = None
        self.workers: list[Optional[WorkerHandle]] = []
        self.respawns = 0
        self.recycles = 0
        self.hung_kills = 0
        self._stopping = False
        self._run_dir: Optional[Path] = None
        self._owns_run_dir = False
        self.obs: Optional[Obs] = None  # built at start() once run_dir exists

    # -------------------------------------------------------------- #
    # Logging / events
    # -------------------------------------------------------------- #

    def _log(self, message: str) -> None:
        print(f"repro fleet: {message}", file=self.log_stream, flush=True)

    def _emit(self, slot: int, generation: int, status: str, detail: str) -> None:
        if self.on_event is not None:
            self.on_event(
                Event(
                    kind="worker",
                    spec=f"worker[{slot}]",
                    status=status,
                    index=slot,
                    attempt=generation,
                    detail=detail,
                )
            )

    # -------------------------------------------------------------- #
    # Lifecycle
    # -------------------------------------------------------------- #

    def _resolve_port(self) -> int:
        """Pick the fleet port; ``port=0`` asks the kernel for a free one.

        The probe socket binds with ``SO_REUSEPORT`` (like the workers
        will) and is closed before any worker spawns — the supervisor
        itself must never hold a socket on the serving port, or the kernel
        would route a share of the connections into a black hole.
        """
        import socket

        if self.config.port:
            return self.config.port
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            if hasattr(socket, "SO_REUSEPORT"):
                probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            probe.bind((self.config.host, 0))
            return probe.getsockname()[1]
        finally:
            probe.close()

    def _worker_env(self) -> dict:
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parent.parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing else package_root + os.pathsep + existing
        )
        return env

    def _spawn(self, slot: int, generation: int) -> WorkerHandle:
        heartbeat = self._run_dir / f"worker-{slot}.{generation}.beat"
        worker_config = {
            **self.config.to_json(),
            "port": self.port,
            "slot": slot,
            "generation": generation,
            "heartbeat": str(heartbeat),
            # always the *resolved* run dir: workers drop their trace sinks
            # and metric snapshots here even when the supervisor made a
            # temporary one
            "run_dir": str(self._run_dir),
        }
        # -c instead of -m: the package __init__ imports this module, and
        # runpy would warn about re-executing an already-imported module.
        # A drain (SIGTERM) that arrives while the worker is still importing,
        # before worker_main installs its handler, exits it cleanly.
        process = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import signal, sys; "
                f"signal.signal(signal.SIGTERM, lambda *_: sys.exit({EXIT_DRAINED})); "
                "from repro.api.fleet import main; sys.exit(main(sys.argv[1:]))",
                "--worker",
                json.dumps(worker_config),
            ],
            env=self._worker_env(),
        )
        return WorkerHandle(
            slot=slot, generation=generation, process=process, heartbeat=heartbeat
        )

    def start(self) -> int:
        """Bind the port, sweep the store, spawn the workers; returns the port."""
        if self.config.run_dir is not None:
            self._run_dir = Path(self.config.run_dir)
            self._run_dir.mkdir(parents=True, exist_ok=True)
        else:
            self._run_dir = Path(tempfile.mkdtemp(prefix="repro-fleet-"))
            self._owns_run_dir = True
        obs = get_obs(self.config.obs)
        if obs is not None:
            self.obs = obs.reconfigure(
                dir=obs.dir or str(self._run_dir), service="supervisor"
            )
        if self.config.store is not None:
            # startup maintenance: orphaned temp files and
            # stale-code-version entries from previous fleets
            store = ArtifactStore(self.config.store)
            swept = store.sweep(tmp_older_than=TMP_SWEEP_AGE)
            if any(swept.values()):
                self._log(f"store sweep: {swept}")
        self.port = self._resolve_port()
        self.workers = [self._spawn(slot, 1) for slot in range(self.config.workers)]
        for worker in self.workers:
            self._emit(worker.slot, worker.generation, "spawn", f"pid={worker.pid}")
        if self.obs is not None:
            self.obs.fleet_workers.set(float(self.config.workers))
            self.obs.write_snapshot()
        self._log(
            f"listening on http://{self.config.host}:{self.port} "
            f"with {self.config.workers} worker(s) "
            f"(store: {self.config.store or 'disabled'})"
        )
        return self.port

    def _respawn(self, slot: int, status: str, detail: str) -> None:
        old = self.workers[slot]
        generation = (old.generation if old else 0) + 1
        try:
            if old is not None:
                old.heartbeat.unlink()
        except OSError:
            pass
        worker = self._spawn(slot, generation)
        self.workers[slot] = worker
        if status == "recycle":
            self.recycles += 1
        else:
            self.respawns += 1
        if self.obs is not None:
            self.obs.fleet_events.inc(kind=status)
            self.obs.write_snapshot()
        self._log(
            f"worker[{slot}] {status}: {detail} -> respawned as "
            f"pid={worker.pid} gen={generation}"
        )
        self._emit(slot, generation, status, detail)

    def poll(self) -> None:
        """One supervision pass: reap exits, respawn crashes, kill hung."""
        if self._stopping:
            return
        for slot, worker in enumerate(self.workers):
            if worker is None:
                continue
            code = worker.process.poll()
            if code is not None:
                if code == EXIT_RECYCLED:
                    self._respawn(slot, "recycle", f"pid={worker.pid} served its budget")
                else:
                    self._respawn(
                        slot,
                        "respawn",
                        f"pid={worker.pid} gen={worker.generation} exited with {code}",
                    )
                continue
            age = worker.heartbeat_age()
            if age is None:
                # no heartbeat yet: allow the spawn grace period
                age = time.time() - worker.started
                if age <= self.config.heartbeat_timeout:
                    continue
                reason = f"pid={worker.pid} never heartbeat in {age:.1f}s"
            elif age <= self.config.heartbeat_timeout:
                continue
            else:
                reason = f"pid={worker.pid} heartbeat stale for {age:.1f}s"
            try:
                worker.process.kill()
                worker.process.wait(timeout=10)
            except OSError:
                pass
            self._respawn(slot, "respawn", reason + " (hung, killed)")
            # counted only once the slot holds the replacement, so an
            # observer of the count never sees the killed handle
            self.hung_kills += 1
            if self.obs is not None:
                self.obs.fleet_events.inc(kind="hung_kill")

    def metrics(self) -> Optional[dict]:
        """Fleet-wide metric aggregation: merge every process's snapshot.

        Flushes the supervisor's own registry first, then merges all the
        ``metrics-*.json`` snapshot files in the run dir — every live and
        dead worker incarnation plus the supervisor itself.  Counters and
        histogram buckets add exactly; returns ``None`` with obs off.
        """
        if self.obs is None:
            return None
        from repro.obs import fleet_metrics

        self.obs.write_snapshot()
        return fleet_metrics(self._run_dir)

    def run(self, poll_interval: float = 0.2) -> int:
        """Supervise until SIGTERM/SIGINT, then drain (the CLI loop)."""
        stop = threading.Event()

        def _request_stop(signum, frame):  # noqa: ARG001 (signal signature)
            stop.set()

        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, _request_stop)
        try:
            while not stop.is_set():
                self.poll()
                stop.wait(poll_interval)
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self.stop()
        return 0

    def stop(self, drain: bool = True) -> None:
        """Stop the fleet: graceful drain (default) or immediate kill."""
        if self._stopping:
            return
        self._stopping = True
        live = [worker for worker in self.workers if worker is not None]
        if drain:
            self._log(f"drain: signalling {len(live)} worker(s)")
            for worker in live:
                try:
                    worker.process.send_signal(signal.SIGTERM)
                except OSError:
                    pass
            deadline = time.monotonic() + self.config.drain_timeout
            graceful = 0
            killed = 0
            for worker in live:
                remaining = max(0.0, deadline - time.monotonic())
                try:
                    worker.process.wait(timeout=remaining)
                    graceful += 1
                except subprocess.TimeoutExpired:
                    try:
                        worker.process.kill()
                        worker.process.wait(timeout=10)
                    except OSError:
                        pass
                    killed += 1
            self._log(f"drain complete ({graceful} graceful, {killed} killed)")
        else:
            for worker in live:
                try:
                    worker.process.kill()
                    worker.process.wait(timeout=10)
                except OSError:
                    pass
        if self.obs is not None:
            self.obs.write_snapshot()
        if self._owns_run_dir and self._run_dir is not None:
            import shutil

            shutil.rmtree(self._run_dir, ignore_errors=True)

    def __enter__(self) -> "FleetSupervisor":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# ---------------------------------------------------------------------- #
# Worker process
# ---------------------------------------------------------------------- #


def worker_main(config: dict) -> int:
    """Entry point of one fleet worker (``python -m repro.api.fleet --worker``).

    Builds the hardened server of PR 5/6 on a shared-port socket over the
    shared store, with the per-incarnation chaos schedule, then serves
    until drained (SIGTERM or the ``max_requests`` recycle budget).
    """
    from repro.api.faults import get_injector
    from repro.api.pipeline import Pipeline
    from repro.api.server import create_server

    # installed first, replacing the bootstrap's exit-on-SIGTERM: a drain
    # requested during start-up is honoured once the server runs
    drain = threading.Event()
    recycle = threading.Event()

    def _request_drain(signum, frame):  # noqa: ARG001 (signal signature)
        drain.set()

    signal.signal(signal.SIGTERM, _request_drain)

    slot = int(config.get("slot", 0))
    generation = int(config.get("generation", 1))
    worker_id = f"{slot}.{generation}"
    heartbeat = Path(config["heartbeat"])
    interval = float(config.get("heartbeat_interval", 0.5))

    obs = get_obs(config.get("obs"))
    if obs is not None:
        # every incarnation writes its own sink/snapshot files in the run
        # dir; the supervisor merges them into the fleet-wide view
        obs = obs.reconfigure(
            dir=obs.dir or config.get("run_dir"), service=f"worker{worker_id}"
        )
    store = ArtifactStore(config["store"], obs=obs) if config.get("store") else None
    injector = None
    if config.get("faults"):
        # every incarnation gets its own deterministic schedule: same seed
        # -> same fleet-wide chaos, but a respawned worker does not replay
        # its predecessor's kill decisions (which would loop forever)
        injector = get_injector(config["faults"]).scoped(f"worker{slot}g{generation}")
    pipeline = Pipeline(store=store, faults=injector, obs=obs)

    server = create_server(
        host=config.get("host", "127.0.0.1"),
        port=int(config["port"]),
        pipeline=pipeline,
        verbose=bool(config.get("verbose", False)),
        max_queue=int(config.get("max_queue", 8)),
        request_timeout=config.get("request_timeout"),
        reuse_port=True,
        worker_id=worker_id,
        max_requests=config.get("max_requests"),
        on_recycle=recycle.set,
        chaos=injector,
        obs=obs,
    )
    serve_thread = threading.Thread(target=server.serve_forever, daemon=True)
    serve_thread.start()

    # the main thread is the liveness prover: beat until drained/recycled
    heartbeat.parent.mkdir(parents=True, exist_ok=True)
    exit_code = EXIT_DRAINED
    while True:
        heartbeat.touch()
        if obs is not None:
            # the heartbeat doubles as the metrics flush: every beat
            # publishes a fresh snapshot for the supervisor to merge
            obs.write_snapshot()
        if drain.is_set():
            break
        if recycle.is_set():
            exit_code = EXIT_RECYCLED
            break
        drain.wait(interval)
    # graceful drain: stop accepting, shut the idle kept-alive connections
    # and join every in-flight request thread (server_close does both;
    # draining responses carry Connection: close)
    server.service.draining = True
    server.shutdown()
    server.server_close()
    if obs is not None:
        # final flush *after* the drain joined the in-flight requests, so
        # the snapshot on disk covers every request this incarnation served
        obs.write_snapshot()
    return exit_code


# ---------------------------------------------------------------------- #
# CLI entry points
# ---------------------------------------------------------------------- #


def run_fleet(config: FleetConfig) -> int:
    """Start a supervised fleet and block until it is stopped (CLI)."""
    supervisor = FleetSupervisor(config, log_stream=sys.stdout)
    supervisor.start()
    # the CLI smoke contract: the same greppable line the single-process
    # server prints, so tooling can parse the bound port either way
    print(
        f"repro serve: listening on http://{config.host}:{supervisor.port} "
        f"(store: {config.store or 'disabled'})",
        flush=True,
    )
    return supervisor.run()


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.api.fleet")
    parser.add_argument("--worker", default=None, help="worker-mode JSON config")
    args = parser.parse_args(argv)
    if args.worker is None:
        parser.error("this module is spawned with --worker by the supervisor; "
                     "use 'repro serve --workers N' to start a fleet")
    return worker_main(json.loads(args.worker))


if __name__ == "__main__":
    raise SystemExit(main())
