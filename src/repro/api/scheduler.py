"""Stage scheduler: many (spec × stage-bundle) jobs, optionally in parallel.

The scaling entry points used to be one hard-wired loop in
:mod:`repro.api.batch`; this module factors the machinery out into an
explicit :class:`Scheduler` that

* normalizes a batch of :class:`Job` descriptions (spec + options + which
  stages to run),
* executes them sequentially through one shared store-backed pipeline or
  fans out over a process pool,
* emits structured :class:`~repro.api.events.Event` records (``job`` kind,
  with ``index``/``total`` progress and ``attempt`` numbers),
* shares artifacts across workers through the on-disk
  :class:`~repro.api.store.ArtifactStore`, and — since PR 6 — *survives
  faults*:

  - a :class:`RetryPolicy` re-runs jobs that failed with a **retryable**
    error (IO, timeouts, :class:`~repro.api.faults.TransientError`) under
    exponential backoff with deterministic jitter; deterministic failures
    (bad specs, synthesis errors) stay fatal and are never retried;
  - per-job **deadlines** (``Job.timeout`` / ``Scheduler(timeout=...)``)
    abandon attempts that run too long in pool mode and retry them;
  - a crashed worker no longer poisons the batch: on
    ``BrokenProcessPool`` the pool is **respawned** and every unfinished
    job resubmitted; a job present at two pool crashes is re-run in an
    *isolated* single-worker pool, and if it kills that one too it is
    quarantined as a typed :class:`PoisonJobError` result while the rest
    of the batch drains normally.

Because the artifact store is content-addressed and writes are atomic,
every re-execution is idempotent: a retried or resubmitted job reuses the
stages its earlier attempt already persisted and produces bit-identical
artifacts — the chaos suite (``tests/test_faults.py``) pins this.

Two consumption styles are offered: :meth:`Scheduler.run` returns the
reports in job order (raising the first job error once queued work has been
cancelled and in-flight work drained — the harvested
:class:`JobResult` records stay inspectable on ``Scheduler.last_results``),
and :meth:`Scheduler.iter_results` yields :class:`JobResult` records in
*completion* order, each carrying either a report or the error — the
iterator API the experiments and the CLI progress view build on.

The deadline machinery earns its keep with PR 8's exact SAT backend: the
optimality-gap experiment (``repro.experiments.optimality_gap``) runs one
``Job.runner`` per registry spec, and CDCL descent is the first genuinely
open-ended work in the batch system — a spec whose search blows its
``Job.timeout`` degrades to a typed error row while the rest of the gap
table drains normally.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from repro.api.artifacts import Report
from repro.api.events import Event, EventCallback
from repro.api.faults import FaultsLike, TransientError, get_injector
from repro.api.spec import Spec, SpecLike
from repro.api.store import ArtifactStore, get_store
from repro.obs import ObsLike, get_obs, parse_header
from repro.synthesis.engine import SynthesisOptions


class JobTimeoutError(TransientError):
    """A job attempt exceeded its deadline (retryable by default)."""


class PoisonJobError(Exception):
    """A job that repeatedly crashed its worker processes.

    The scheduler quarantines such a job — its :class:`JobResult` carries
    this error — instead of letting it break the pool for the whole batch
    a third time.
    """


def _jitter_unit(seed: int, key: str, attempt: int) -> float:
    """Deterministic uniform [0, 1) from (seed, key, attempt)."""
    import hashlib

    digest = hashlib.sha256(f"{seed}|{key}|{attempt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class RetryPolicy:
    """How (and whether) failed job attempts are re-run.

    ``retryable_types`` classifies errors: an instance of any listed type
    may be retried (IO errors, timeouts, :class:`TransientError` — which
    covers injected stage faults and :class:`JobTimeoutError`); everything
    else is *fatal* and fails the job on the first attempt.  Backoff is
    exponential with **deterministic** jitter: the perturbation is a pure
    function of ``(seed, job key, attempt)``, so a chaos run replays an
    identical schedule.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25  # fraction of the delay, spread symmetrically
    seed: int = 0
    retryable_types: tuple = (OSError, TimeoutError, ConnectionError, TransientError)

    def is_retryable(self, error: BaseException) -> bool:
        return isinstance(error, self.retryable_types)

    def classify(self, error: BaseException) -> str:
        return "retryable" if self.is_retryable(error) else "fatal"

    def delay_for(self, attempt: int, key: str = "") -> float:
        """Backoff before re-running after ``attempt`` failed attempts."""
        delay = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter:
            unit = _jitter_unit(self.seed, key, attempt)
            delay *= 1.0 + self.jitter * (2.0 * unit - 1.0)
        return max(0.0, delay)


#: a policy that never retries (the pre-PR 6 behaviour)
NO_RETRY = RetryPolicy(max_attempts=1, base_delay=0.0)


@dataclass
class Job:
    """One schedulable unit: a spec plus the stage bundle to run on it."""

    spec: Spec
    options: SynthesisOptions
    backend: str = "structural"
    map_technology: bool = False
    verify: bool = False
    verify_mapped: bool = False
    library: object = None
    max_markings: Optional[int] = None
    #: per-job deadline in seconds (pool mode; overrides the scheduler's)
    timeout: Optional[float] = None
    #: dotted ``module:function`` run *instead of* ``Pipeline.run`` — the
    #: hook custom farms (the corpus differential campaign, the SAT
    #: optimality-gap experiment) use to run their own per-spec work
    #: through the scheduler's retry/timeout/pool machinery.  The function receives ``(job, pipeline, faults)`` and
    #: returns a picklable report; ``total_seconds``/``event_detail`` on the
    #: report feed the ``done`` event when present.
    runner: Optional[str] = None
    #: plain-data options for the runner (must be picklable)
    payload: dict = field(default_factory=dict)

    @classmethod
    def make(cls, spec: SpecLike, options: Optional[SynthesisOptions] = None, **kwargs) -> "Job":
        return cls(spec=Spec.load(spec), options=options or SynthesisOptions(), **kwargs)

    def run(self, pipeline, faults=None):
        """Run this job on ``pipeline``: its runner, or the pipeline's stages."""
        runner = _resolve_runner(self.runner)
        if runner is not None:
            return runner(self, pipeline, faults)
        return pipeline.run(
            self.spec,
            self.options,
            backend=self.backend,
            map_technology=self.map_technology,
            verify=self.verify,
            verify_mapped=self.verify_mapped,
            library=self.library,
            max_markings=self.max_markings,
        )


@dataclass
class JobResult:
    """The outcome of one job: a report, the error it raised, or cancelled.

    ``attempts`` counts executions (1 = first try succeeded); ``seconds``
    is wall time from first submission to completion, backoff included.
    ``cancelled`` marks a job the *consumer* abandoned (fail-fast cancelling
    queued work) — distinct from ``error``, which marks a job that ran and
    failed.
    """

    index: int
    job: Job
    report: Optional[Report] = None
    error: Optional[BaseException] = None
    attempts: int = 1
    seconds: float = 0.0
    cancelled: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and not self.cancelled


def _strip_report(report: Report) -> Report:
    """Drop the analysis-side in-memory handles before pickling.

    Only the plain-data fields and the circuit/netlist travel back from a
    pool worker; the worker's approximation objects would dominate
    the pickle payload for nothing (the artifact store already persisted
    their serial forms).
    """
    report.synthesis.refinement = None
    if report.analysis is not None:
        report.analysis.approximation = None
        report.analysis.concurrency = None
        report.analysis.sm_cover = None
    if report.refinement is not None:
        report.refinement.approximation = None
        report.refinement.analysis = None
    if report.mapping is not None:
        report.mapping.mapped = None
    return report


_RUNNERS: dict = {}  # dotted-name -> callable (per-process cache)
_POOL_OBS: dict = {}  # obs grammar text -> Obs (per-process cache)


def _pool_obs(text: Optional[str]):
    """One long-lived Obs per pool process (per config), not per job.

    A pool worker executes many jobs; its registry must accumulate across
    them so the snapshot file it writes reflects the whole process, exactly
    like a fleet worker's.
    """
    if not text:
        return None
    obs = _POOL_OBS.get(text)
    if obs is None:
        obs = get_obs(text)
        _POOL_OBS[text] = obs
    return obs


def _resolve_runner(path: Optional[str]):
    """Resolve a ``module:function`` runner reference (cached per process)."""
    if path is None:
        return None
    runner = _RUNNERS.get(path)
    if runner is None:
        import importlib

        module_name, _, attr = path.partition(":")
        if not module_name or not attr:
            raise ValueError(f"malformed runner reference {path!r} (expected module:function)")
        runner = getattr(importlib.import_module(module_name), attr)
        _RUNNERS[path] = runner
    return runner


def _done_fields(report) -> dict:
    """``seconds``/``detail`` for the ``done`` event, for any report shape."""
    fields: dict = {}
    seconds = getattr(report, "total_seconds", None)
    if seconds is not None:
        fields["seconds"] = seconds
    detail = getattr(report, "event_detail", None)
    if callable(detail):
        fields["detail"] = detail()
    else:
        literals = getattr(report, "literals", None)
        if literals is not None:
            fields["detail"] = f"{literals} literals"
    return fields


def _execute_job(
    job: Job,
    store_spec: Optional[tuple[str, str]],
    faults_text: Optional[str] = None,
    attempt: int = 1,
    obs_text: Optional[str] = None,
) -> Report:
    """Process-pool worker: one job through a fresh store-backed pipeline.

    ``store_spec`` is ``(root, code_version)`` — the worker rebuilds the
    parent's store handle exactly, so entries written on either side of the
    process boundary are mutually visible (a custom code version must not
    silently fall back to the default stamp).

    ``faults_text``/``attempt`` carry the parent's fault schedule across
    the process boundary: decisions are re-derived from the grammar text
    with the job's attempt number as the deterministic token, so "kill the
    worker on attempt 1, spare attempt 2" holds no matter which worker
    process executes which attempt.

    ``obs_text`` carries the parent's observability config the same way;
    a ``job.payload["trace"]`` header (stamped at submission) parents this
    worker's ``job:<spec>`` span under the caller's span, so a trace
    stitches across the pool boundary exactly as it does across HTTP.
    """
    from repro.api.faults import FaultInjector
    from repro.api.pipeline import Pipeline
    from repro.api.store import ArtifactStore

    injector = None
    if faults_text:
        injector = FaultInjector.parse(faults_text).bind(
            attempt, salt=job.spec.content_hash
        )
        injector.kill_worker(scope=job.spec.name, attempt=attempt)
    obs = _pool_obs(obs_text)
    store = None
    if store_spec is not None:
        store = ArtifactStore(store_spec[0], code_version=store_spec[1], faults=injector)
    pipeline = Pipeline(store=store, faults=injector, obs=obs)

    def run() -> Report:
        report = job.run(pipeline, injector)
        return report if job.runner is not None else _strip_report(report)

    if obs is None:
        return run()
    parent = parse_header(job.payload.get("trace"))
    try:
        with obs.tracer.span("job:" + job.spec.name, parent=parent, attempt=attempt):
            return run()
    finally:
        obs.write_snapshot()


class Scheduler:
    """Runs job batches sequentially or over a process pool.

    Parameters
    ----------
    jobs:
        ``None``/``0``/``1`` runs sequentially through one shared pipeline;
        ``n > 1`` fans out over a pool of ``n`` workers; ``n < 0`` uses the
        machine's CPU count.
    store:
        Optional durable artifact store (instance or path) shared by the
        sequential pipeline and by every pool worker.
    on_event:
        Callback receiving ``job`` progress events (and, in sequential mode,
        the pipeline's ``stage`` events as well).
    pipeline:
        Optional pipeline to reuse in sequential mode: its cache (and its
        own store, if any) are shared with earlier calls.  When ``store`` is
        *also* given it is attached to the reused pipeline, so the batch
        persists durably either way; the pipeline keeps its own ``on_event``
        (the scheduler's callback only receives the ``job`` events then).
    retry:
        The :class:`RetryPolicy` applied to failed attempts (default: three
        attempts for retryable errors; pass :data:`NO_RETRY` to disable).
    timeout:
        Default per-job deadline in seconds, enforced in pool mode (a job
        may override it); ``None`` disables deadlines.
    faults:
        Deterministic fault injection (:mod:`repro.api.faults`): an
        injector, a grammar string, or ``None`` to consult
        ``$REPRO_FAULTS``.  Shared with the sequential pipeline and shipped
        to every pool worker.
    obs:
        Observability config (:mod:`repro.obs`): an :class:`~repro.obs.Obs`
        instance, a grammar string, or ``None`` to consult ``$REPRO_OBS``.
        Job status counters land in its registry; in pool mode the config
        (and the caller's active trace context, if any) is shipped to every
        pool worker so job spans stitch under the submitting trace.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        store: Union[ArtifactStore, str, os.PathLike, None] = None,
        on_event: Optional[EventCallback] = None,
        pipeline=None,
        retry: Optional[RetryPolicy] = None,
        timeout: Optional[float] = None,
        faults: FaultsLike = None,
        obs: ObsLike = None,
    ):
        if jobs is not None and jobs < 0:
            jobs = os.cpu_count() or 1
        self.jobs = jobs or 1
        self.store = get_store(store)
        self.on_event = on_event
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeout = timeout
        self.faults = get_injector(faults)
        self.obs = get_obs(obs)
        self._pipeline = pipeline
        #: the JobResult records of the most recent :meth:`run`, including
        #: in-flight results harvested before a fail-fast abort
        self.last_results: list[JobResult] = []

    # ------------------------------------------------------------------ #
    # Event helpers
    # ------------------------------------------------------------------ #

    def _emit(self, result_or_job, index: int, total: int, status: str, **kwargs):
        if self.obs is not None:
            self.obs.jobs.inc(status=status)
        if self.on_event is None:
            return
        job = result_or_job
        self.on_event(
            Event(
                kind="job",
                spec=job.spec.name,
                status=status,
                index=index + 1,
                total=total,
                **kwargs,
            )
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def iter_results(
        self, jobs: Sequence[Job], stop_on_error: bool = False
    ) -> Iterator[JobResult]:
        """Yield one :class:`JobResult` per job, in completion order.

        With ``stop_on_error`` the first failed job halts *new* work: later
        sequential jobs never start; in pool mode queued submissions are
        cancelled (yielded with ``cancelled=True``) while already-running
        attempts drain and their results are still yielded.
        """
        jobs = list(jobs)
        total = len(jobs)
        if self.jobs <= 1 or total <= 1:
            yield from self._iter_sequential(jobs, total, stop_on_error)
        else:
            yield from self._iter_pool(jobs, total, stop_on_error)

    # ------------------------------------------------------------------ #
    # Sequential mode
    # ------------------------------------------------------------------ #

    def _iter_sequential(
        self, jobs: list[Job], total: int, stop_on_error: bool = False
    ) -> Iterator[JobResult]:
        from repro.api.pipeline import Pipeline

        policy = self.retry
        pipeline = self._pipeline
        if pipeline is None:
            pipeline = Pipeline(
                store=self.store, on_event=self.on_event, faults=self.faults,
                obs=self.obs,
            )
        elif self.store is not None and pipeline.store is not self.store:
            # an explicitly requested store wins over (and is attached to)
            # the reused pipeline, as the constructor docstring promises
            pipeline.store = self.store
        for index, job in enumerate(jobs):
            self._emit(job, index, total, "start")
            started = time.monotonic()
            attempts = 0
            while True:
                attempts += 1
                try:
                    report = job.run(pipeline, self.faults)
                except Exception as error:
                    if attempts < policy.max_attempts and policy.is_retryable(error):
                        delay = policy.delay_for(attempts, key=job.spec.content_hash)
                        self._emit(
                            job, index, total, "retry",
                            attempt=attempts,
                            detail=f"{type(error).__name__}: {error}",
                            seconds=delay,
                        )
                        if delay > 0:
                            time.sleep(delay)
                        continue
                    self._emit(
                        job, index, total, "error",
                        detail=str(error), attempt=attempts,
                    )
                    yield JobResult(
                        index=index, job=job, error=error,
                        attempts=attempts, seconds=time.monotonic() - started,
                    )
                    if stop_on_error:
                        return
                    break
                self._emit(
                    job, index, total, "done",
                    attempt=attempts,
                    **_done_fields(report),
                )
                yield JobResult(
                    index=index, job=job, report=report,
                    attempts=attempts, seconds=time.monotonic() - started,
                )
                break

    # ------------------------------------------------------------------ #
    # Pool mode
    # ------------------------------------------------------------------ #

    def _iter_pool(
        self, jobs: list[Job], total: int, stop_on_error: bool = False
    ) -> Iterator[JobResult]:
        from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
        from concurrent.futures import TimeoutError as FuturesTimeoutError

        policy = self.retry
        store_spec = (
            (str(self.store.root), self.store.code_version)
            if self.store is not None
            else None
        )
        faults_text = self.faults.to_text() if self.faults is not None else None
        obs_text = (
            self.obs.to_text(include_service=False) if self.obs is not None else None
        )
        if self.obs is not None:
            context = self.obs.tracer.current()
            if context is not None:
                # stamp the submitting span so pool-side job spans stitch
                # under the caller's trace across the process boundary
                for job in jobs:
                    job.payload.setdefault("trace", context.to_header())

        attempts = [0] * total
        exposures = [0] * total  # pool-crash incidents the job was part of
        started = [0.0] * total
        finished = [False] * total
        futures: dict = {}  # future -> index
        deadlines: dict = {}  # future -> monotonic deadline
        retry_queue: list[tuple[float, int]] = []  # (ready_at, index)
        halted = False

        pool = ProcessPoolExecutor(max_workers=self.jobs)

        def deadline_of(job: Job) -> Optional[float]:
            return job.timeout if job.timeout is not None else self.timeout

        def submit(index: int) -> bool:
            """Submit one attempt; False when the pool is broken."""
            attempts[index] += 1
            job = jobs[index]
            if attempts[index] == 1:
                started[index] = time.monotonic()
                self._emit(job, index, total, "start")
            try:
                future = pool.submit(
                    _execute_job, job, store_spec, faults_text, attempts[index],
                    obs_text,
                )
            except BrokenExecutor:
                attempts[index] -= 1  # the attempt never started
                return False
            futures[future] = index
            limit = deadline_of(job)
            if limit is not None:
                deadlines[future] = time.monotonic() + limit
            return True

        def make_result(index: int, **kwargs) -> JobResult:
            finished[index] = True
            return JobResult(
                index=index,
                job=jobs[index],
                attempts=attempts[index],
                seconds=time.monotonic() - started[index] if started[index] else 0.0,
                **kwargs,
            )

        def settle_failure(index: int, error: BaseException):
            """Retry a failed attempt or produce the final error result."""
            nonlocal halted
            job = jobs[index]
            if not halted and attempts[index] < policy.max_attempts and policy.is_retryable(error):
                delay = policy.delay_for(attempts[index], key=job.spec.content_hash)
                self._emit(
                    job, index, total, "retry",
                    attempt=attempts[index],
                    detail=f"{type(error).__name__}: {error}",
                    seconds=delay,
                )
                retry_queue.append((time.monotonic() + delay, index))
                return None
            self._emit(job, index, total, "error", detail=str(error), attempt=attempts[index])
            if stop_on_error:
                halted = True
            return make_result(index, error=error)

        def cancel_outstanding():
            """Fail-fast bookkeeping: queued work is *cancelled*, not failed."""
            results = []
            for future in list(futures):
                if future.cancel():
                    index = futures.pop(future)
                    deadlines.pop(future, None)
                    attempts[index] -= 1  # the cancelled attempt never ran
                    self._emit(jobs[index], index, total, "cancelled")
                    results.append(make_result(index, cancelled=True))
            for _, index in retry_queue:
                self._emit(jobs[index], index, total, "cancelled")
                results.append(make_result(index, cancelled=True))
            retry_queue.clear()
            return results

        def run_isolated(index: int):
            """Last resort for a pool-killer suspect: its own disposable pool."""
            nonlocal halted
            job = jobs[index]
            attempts[index] += 1
            solo = ProcessPoolExecutor(max_workers=1)
            try:
                future = solo.submit(
                    _execute_job, job, store_spec, faults_text, attempts[index],
                    obs_text,
                )
                try:
                    report = future.result(timeout=deadline_of(job))
                except BrokenExecutor:
                    error = PoisonJobError(
                        f"job {job.spec.name!r} crashed {exposures[index]} worker pools "
                        f"and its isolation worker; quarantined after "
                        f"{attempts[index]} attempts"
                    )
                    return settle_poison(index, error)
                except FuturesTimeoutError:
                    error = JobTimeoutError(
                        f"job {job.spec.name!r} exceeded its {deadline_of(job)}s "
                        f"deadline in isolation"
                    )
                    return settle_poison(index, error)
                except Exception as error:
                    return settle_failure(index, error)
                self._emit(
                    job, index, total, "done",
                    attempt=attempts[index],
                    **_done_fields(report),
                )
                return make_result(index, report=report)
            finally:
                solo.shutdown(wait=False)

        def settle_poison(index: int, error: BaseException):
            nonlocal halted
            self._emit(
                jobs[index], index, total, "error",
                detail=str(error), attempt=attempts[index],
            )
            if stop_on_error:
                halted = True
            return make_result(index, error=error)

        for index in range(total):
            if not submit(index):
                break  # crash recovery below picks the stragglers up

        try:
            while not all(finished):
                now = time.monotonic()
                # launch due retries (unless the consumer asked for a halt)
                if retry_queue and not halted:
                    due = [i for (t, i) in retry_queue if t <= now]
                    retry_queue = [(t, i) for (t, i) in retry_queue if t > now]
                    for index in due:
                        submit(index)
                if halted and retry_queue:
                    for result in cancel_outstanding():
                        yield result
                if not futures:
                    if not retry_queue:
                        break
                    time.sleep(max(0.0, min(t for t, _ in retry_queue) - time.monotonic()))
                    continue
                timeout = None
                ticks = [t for t, _ in retry_queue] + list(deadlines.values())
                if ticks:
                    timeout = max(0.0, min(ticks) - time.monotonic())
                done, _ = wait(set(futures), timeout=timeout, return_when=FIRST_COMPLETED)

                crashed: list[int] = []
                for future in done:
                    index = futures.pop(future)
                    deadlines.pop(future, None)
                    if future.cancelled():
                        attempts[index] -= 1
                        self._emit(jobs[index], index, total, "cancelled")
                        yield make_result(index, cancelled=True)
                        continue
                    error = future.exception()
                    if isinstance(error, BrokenExecutor):
                        crashed.append(index)
                        continue
                    if error is None:
                        report = future.result()
                        self._emit(
                            jobs[index], index, total, "done",
                            attempt=attempts[index],
                            **_done_fields(report),
                        )
                        yield make_result(index, report=report)
                        continue
                    result = settle_failure(index, error)
                    if result is not None:
                        yield result

                # deadline enforcement: abandon overdue attempts and retry
                now = time.monotonic()
                for future, limit in list(deadlines.items()):
                    if limit > now or future.done():
                        continue
                    index = futures.pop(future)
                    deadlines.pop(future)
                    future.cancel()  # only effective while still queued
                    job = jobs[index]
                    error = JobTimeoutError(
                        f"job {job.spec.name!r} exceeded its "
                        f"{deadline_of(job)}s deadline (attempt {attempts[index]})"
                    )
                    self._emit(
                        job, index, total, "timeout",
                        detail=str(error), attempt=attempts[index],
                    )
                    result = settle_failure(index, error)
                    if result is not None:
                        yield result

                if crashed or (futures and getattr(pool, "_broken", False)):
                    # a worker died: every unfinished future on this pool is
                    # dead too.  Respawn, resubmit the survivors, and run
                    # twice-exposed suspects in isolation.
                    survivors = set(crashed)
                    for future in list(futures):
                        index = futures.pop(future)
                        deadlines.pop(future, None)
                        survivors.add(index)
                    survivors.update(i for _, i in retry_queue)
                    retry_queue.clear()
                    pool.shutdown(wait=False)
                    pool = ProcessPoolExecutor(max_workers=self.jobs)
                    suspects = []
                    for index in sorted(survivors):
                        if finished[index]:
                            continue
                        exposures[index] += 1
                        if halted:
                            self._emit(jobs[index], index, total, "cancelled")
                            yield make_result(index, cancelled=True)
                        elif exposures[index] >= 2:
                            suspects.append(index)
                        else:
                            submit(index)
                    for index in suspects:
                        result = run_isolated(index)
                        if result is not None:
                            yield result
        finally:
            for future in futures:
                future.cancel()
            pool.shutdown(wait=True)

    def run(self, jobs: Sequence[Job]) -> list[Report]:
        """Execute a batch; returns reports in job order.

        Fails fast: the first failed result stops *new* work (sequential
        jobs after it never start; queued pool submissions are cancelled),
        already-running attempts drain, and the first error is re-raised.
        The harvested :class:`JobResult` records — including the in-flight
        results completed during the drain and the cancelled-by-consumer
        markers — stay inspectable on :attr:`last_results`.  Use
        :meth:`iter_results` to drain a batch despite failures.
        """
        jobs = list(jobs)
        results: list[Optional[JobResult]] = [None] * len(jobs)
        first_error: Optional[BaseException] = None
        for result in self.iter_results(jobs, stop_on_error=True):
            results[result.index] = result
            if result.error is not None and first_error is None:
                first_error = result.error
        self.last_results = [result for result in results if result is not None]
        if first_error is not None:
            raise first_error
        return [result.report for result in results if result is not None]


def make_jobs(
    specs: Iterable[SpecLike],
    options: Optional[SynthesisOptions] = None,
    **kwargs,
) -> list[Job]:
    """Build one :class:`Job` per spec with shared options/stage flags."""
    options = options or SynthesisOptions()
    template = Job(spec=None, options=options, **kwargs)  # type: ignore[arg-type]
    return [replace(template, spec=Spec.load(spec)) for spec in specs]
