"""The simulation-as-a-service daemon: orchestration and lifecycle.

:class:`SimulationService` owns the whole serving pipeline::

    HTTP -> admission (breaker, cache, token bucket, bounded queues)
         -> weighted-fair dequeue -> warm isolated worker (or a thread)
         -> journal + content-addressed cache -> status/result endpoints

With ``isolate=True`` (the default) jobs run on a
:class:`~repro.harness.pool.WorkerPool` of ``config.workers``
spawn-context processes, started by :meth:`SimulationService.start`
without holding up readiness.  Each imports the simulator once and then
runs job after job, so a cold miss costs its simulation, not an
interpreter start.  A worker writes the artifact JSON (or the ``.error``
traceback) to disk and then sends only "done" or "error" back over its
pipe; the daemon reads the result from disk, so the journal, the
artifact SHA-256 and resume are the same as for a per-job process.  A
worker is killed and replaced after a crash, a job timeout, a deadline
kill or a job that raised; shutdown kills them all.

Robustness properties, and where they live:

- **No lost or duplicated results.**  Every submission is journaled
  (write-ahead, fsynced — :class:`repro.harness.journal.Journal`) before
  it is queued, every completion is journaled with the artifact's
  SHA-256, and recovery re-enqueues exactly the submitted-but-unfinished
  jobs; finished jobs whose artifact bytes still hash correctly are
  served from disk, never re-simulated.
- **Backpressure, not collapse.**  Admission refusals are typed
  (:class:`~repro.service.admission.AdmissionRefused`) and carry a
  ``Retry-After`` derived from queue depth and the observed service
  rate; the HTTP layer turns them into 429s.
- **Deadlines end-to-end.**  A reaper expires queued jobs; the worker
  loop kills (and replaces) the worker of an in-flight job at its
  deadline; both paths journal ``job_expired``.
- **Degradation ladder.**  Consecutive worker failures walk the
  :class:`~repro.service.breaker.CircuitBreaker` through
  cache-only -> hard-reject; recovery is canary-probed.
- **Drain-then-exit.**  ``shutdown()`` stops admission, lets workers
  finish (bounded by ``drain_timeout_s``), kills and journals the rest,
  and flushes the journal; a restart with the same run directory
  resumes them.
"""

from __future__ import annotations

import asyncio
import os
import time
import traceback
from typing import Any

from repro.errors import ServiceError
from repro.faults.retry import RetryPolicy
from repro.harness.journal import JOURNAL_NAME, Journal, read_journal
from repro.harness.pool import WorkerDied, WorkerPool
from repro.harness.worker import DONE, read_artifact, run_job_inline
from repro.ioutil import sha256_file
from repro.service.admission import AdmissionRefused, FairTenantQueues
from repro.service.breaker import BreakerState, CircuitBreaker
from repro.service.config import ServiceConfig
from repro.service.jobs import PRELOAD
from repro.service.models import (
    JOB_TARGET,
    TERMINAL_PHASES,
    JobPhase,
    JobRecord,
    JobRequest,
    parse_request,
    request_from_dict,
)
from repro.telemetry.slo import DEFAULT_SLOS, DEFAULT_WINDOWS, evaluate_slos
from repro.telemetry.tracecontext import TraceContext

_POLL_S = 0.01

#: Numeric breaker-state gauge (Prometheus-friendly).
_BREAKER_LEVEL = {
    BreakerState.CLOSED: 0, BreakerState.CACHE_ONLY: 1, BreakerState.OPEN: 2,
}


class Unavailable(ServiceError):
    """The service cannot take this submission right now (HTTP 503)."""

    def __init__(self, reason: str, retry_after_s: float) -> None:
        super().__init__(f"unavailable: {reason}")
        self.reason = reason
        self.retry_after_s = retry_after_s


class SimulationService:
    """One daemon instance bound to one run directory."""

    def __init__(self, config: ServiceConfig,
                 run_dir: str | os.PathLike[str],
                 cache=None, telemetry=None) -> None:
        from repro.telemetry import Telemetry

        self.config = config
        self.run_dir = os.fspath(run_dir)
        self.artifact_dir = os.path.join(self.run_dir, "artifacts")
        self.cache = cache
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.records: dict[str, JobRecord] = {}
        self.queues = FairTenantQueues(config)
        self.breaker = CircuitBreaker(
            cache_only_after=config.breaker_cache_only_after,
            hard_open_after=config.breaker_hard_open_after,
            cooldown_s=config.breaker_cooldown_s,
        )
        self.retry = RetryPolicy(
            max_attempts=config.retry_max_attempts,
            base_backoff_s=config.retry_base_backoff_s,
            max_backoff_s=config.retry_max_backoff_s,
            jitter="decorrelated",
            jitter_seed=config.retry_jitter_seed,
        )
        self._seq = 0
        self._req_seq = 0               # trace roots for headerless requests
        self.draining = False           # admission gate (503 when True)
        self._shutdown_started = False  # shutdown() re-entrancy guard
        self.started = False
        self._journal: Journal | None = None
        self._tasks: list[asyncio.Task] = []
        self._stopped = asyncio.Event()
        #: Set when a job is queued: an idle worker loop starts it at
        #: once instead of at its next poll (with warm workers, a poll
        #: interval is a large share of a cold miss).
        self._queued = asyncio.Event()
        #: Live worker process running each in-flight job, by job id
        #: (chaos tests reach in).
        self.running_procs: dict[str, Any] = {}
        #: Jobs between dequeue and terminal phase, on either execution
        #: mode (an inline job has no process in ``running_procs``).
        self._running_jobs = 0
        self._pool: WorkerPool | None = None

    # -- metrics shorthand ---------------------------------------------

    def _count(self, name: str, **labels: Any) -> None:
        self.telemetry.counter(name, **labels).inc()

    def _set_gauges(self) -> None:
        tel = self.telemetry
        tel.gauge("service_queue_depth").set(float(self.queues.depth()))
        tel.gauge("service_running_jobs").set(float(self._running_jobs))
        tel.gauge("service_breaker_level").set(
            float(_BREAKER_LEVEL[self.breaker.state])
        )

    def refresh_slo_gauges(self) -> None:
        """Re-evaluate the declared SLOs into ``slo_*`` gauges.

        Called before every ``/metrics`` render: compliance and burn
        rates come from the same registry + event stream a scraper sees,
        so the gauges are always consistent with the raw series.
        """
        if not self.telemetry.enabled:
            return
        results = evaluate_slos(self.telemetry.registry, self.telemetry.events,
                                specs=DEFAULT_SLOS, windows=DEFAULT_WINDOWS,
                                now=time.time())
        tel = self.telemetry
        for result in results:
            name = result.spec.name
            tel.gauge("slo_target", slo=name).set(result.spec.target)
            if result.compliance is not None:
                tel.gauge("slo_compliance", slo=name).set(result.compliance)
            if result.burn is not None:
                tel.gauge("slo_burn_rate", slo=name,
                          window="run").set(result.burn)
            for window, burn in result.window_burns.items():
                if burn is not None:
                    tel.gauge("slo_burn_rate", slo=name,
                              window=window).set(burn)
            tel.gauge("slo_violated", slo=name).set(
                1.0 if result.violated else 0.0)

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Open the journal, recover prior state, launch workers+reaper."""
        os.makedirs(self.artifact_dir, exist_ok=True)
        journal_path = os.path.join(self.run_dir, JOURNAL_NAME)
        prior = read_journal(journal_path) if os.path.exists(journal_path) else []
        self._journal = Journal(journal_path)
        self._journal.record("service_start",
                             workers=self.config.workers,
                             resume=bool(prior))
        if prior:
            self._recover(prior)
        if self.config.isolate:
            self._pool = WorkerPool(
                self.config.workers, name="service",
                preload=(JOB_TARGET.partition(":")[0], *PRELOAD),
                on_spawn=lambda reason: self._count(
                    "service_worker_spawns_total", reason=reason),
            )
            self._pool.fill()
        for index in range(self.config.workers):
            self._tasks.append(
                asyncio.create_task(self._worker_loop(index),
                                    name=f"service-worker-{index}")
            )
        self._tasks.append(
            asyncio.create_task(self._reaper_loop(), name="service-reaper")
        )
        self.started = True
        self._set_gauges()

    def _recover(self, prior: list[dict[str, Any]]) -> None:
        """Rebuild state from a previous incarnation's journal.

        Submitted-but-unfinished jobs re-enter their tenant queues (in
        submission order, bypassing rate limits — they were already
        admitted once); finished jobs whose artifact still verifies are
        served from disk.  Nothing runs twice, nothing vanishes.
        """
        now = time.monotonic()
        now_unix = time.time()
        submitted: dict[str, JobRecord] = {}
        finished: set[str] = set()
        for rec in prior:
            event = rec.get("event")
            job_id = rec.get("job")
            if event == "job_submitted" and job_id:
                request = request_from_dict(rec["request"])
                record = JobRecord(job_id=job_id, request=request)
                record.trace = TraceContext.parse(rec.get("traceparent"))
                record.submitted_unix = rec.get("submitted_unix", now_unix)
                deadline_unix = rec.get("deadline_unix")
                if deadline_unix is not None:
                    record.deadline_monotonic = now + (deadline_unix - now_unix)
                submitted[job_id] = record
                number = int(job_id.rsplit("-", 1)[-1])
                self._seq = max(self._seq, number)
            elif event == "job_cached" and job_id in submitted:
                record = submitted[job_id]
                record.phase = JobPhase.DONE
                record.served_from_cache = True
                if self.cache is not None and record.request.cache_key:
                    entry = self.cache.get(record.request.cache_key)
                    if entry is not None:
                        record.result = entry.get("payload")
                finished.add(job_id)
            elif event == "job_success" and job_id in submitted:
                record = submitted[job_id]
                path = self._artifact_path(job_id)
                sha = rec.get("sha256")
                if os.path.exists(path) and sha256_file(path) == sha:
                    try:
                        record.result = read_artifact(path)
                    except Exception:
                        continue  # unreadable: stays queued, re-runs
                    record.phase = JobPhase.DONE
                    record.artifact_sha256 = sha
                    finished.add(job_id)
            elif event in ("job_failed", "job_expired", "job_cancelled") \
                    and job_id in submitted:
                phase = {"job_failed": JobPhase.FAILED,
                         "job_expired": JobPhase.EXPIRED,
                         "job_cancelled": JobPhase.CANCELLED}[event]
                submitted[job_id].phase = phase
                finished.add(job_id)
        resumed = 0
        for job_id, record in submitted.items():
            self.records[job_id] = record
            if job_id in finished:
                continue
            if record.result is not None:
                continue
            if record.expired(now):
                self._finish_expired(record, where="recovery")
                continue
            record.phase = JobPhase.QUEUED
            self.queues.requeue(record.request.tenant, job_id)
            resumed += 1
        if resumed:
            self._journal.record("service_resumed", jobs=resumed)
            self.telemetry.counter("service_resumed_jobs_total").inc(resumed)

    async def shutdown(self, *, reason: str = "shutdown") -> None:
        """Drain-then-exit: stop admission, finish work, flush, stop."""
        if self._shutdown_started:
            await self._stopped.wait()
            return
        self._shutdown_started = True
        self.draining = True
        if self._journal is not None:
            self._journal.record("service_drain", reason=reason)
        deadline = time.monotonic() + self.config.drain_timeout_s

        def outstanding() -> int:
            return self.queues.depth() + len(self.running_procs)

        while outstanding() and time.monotonic() < deadline \
                and self.breaker.state is BreakerState.CLOSED:
            await asyncio.sleep(_POLL_S)
        # Whatever survived the drain window stays journaled as
        # submitted-without-terminal-event: the resume contract.  The
        # pool closes before the tasks are cancelled, with no await in
        # between, so no task sees its killed worker as a failure.
        if self._pool is not None:
            self._pool.close()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        for record in self.records.values():
            if record.phase is JobPhase.RUNNING:
                record.phase = JobPhase.QUEUED  # will re-run on resume
        abandoned = self.queues.drain_all()
        if self._journal is not None:
            self._journal.record(
                "service_stop",
                outstanding=len(abandoned),
                done=sum(1 for r in self.records.values()
                         if r.phase is JobPhase.DONE),
            )
            self._journal.close()
            self._journal = None
        if self.config.telemetry_dir and self.telemetry.enabled:
            # Fold the per-job worker exports and the daemon's own
            # stream into run-level files: the single stitched trace.
            from repro.telemetry.merge import merge_directory

            self.refresh_slo_gauges()
            merge_directory(self.config.telemetry_dir,
                            extra=[self.telemetry])
        self.started = False
        self._stopped.set()

    # -- admission ------------------------------------------------------

    def admit(self, body: Any,
              trace: TraceContext | None = None) -> tuple[JobRecord, bool]:
        """Admit one decoded submission; returns ``(record, was_cached)``.

        Raises :class:`ServiceError` (400), :class:`AdmissionRefused`
        (429) or :class:`Unavailable` (503); the HTTP layer maps them.

        ``trace`` is the client-propagated context (the ``traceparent``
        header); without one each request roots its own trace.  Admission
        runs synchronously on the event loop, so the ``http_request``
        span safely brackets it, and the job's own trace position is
        derived under that span (see ``_admit_inner``).
        """
        t0 = time.perf_counter()
        self._req_seq += 1
        context = trace if trace is not None \
            else TraceContext.root("service-request", self._req_seq)
        try:
            with self.telemetry.span("http_request", trace=context):
                return self._admit_inner(body)
        finally:
            latency = time.perf_counter() - t0
            self.telemetry.histogram("service_admission_latency_s").observe(
                latency
            )
            self.telemetry.event("service_admission", t_unix=time.time(),
                                 latency_s=latency)
            self._set_gauges()

    def _admit_inner(self, body: Any) -> tuple[JobRecord, bool]:
        if self.draining or not self.started:
            self._count("service_rejected_total", reason="draining")
            raise Unavailable("draining", self.config.drain_timeout_s)
        request = parse_request(body, self.config)
        self._count("service_submissions_total", tenant=request.tenant)

        cached = self._try_cache(request)
        if cached is not None:
            return cached, True

        state = self.breaker.state
        if state is BreakerState.OPEN:
            self._count("service_rejected_total", reason="breaker_open")
            raise Unavailable("breaker_open",
                              max(self.breaker.cooldown_remaining_s(), 0.5))
        if state is BreakerState.CACHE_ONLY \
                and self.breaker.cooldown_remaining_s() > 0.0:
            self._count("service_rejected_total", reason="cache_only_miss")
            raise Unavailable("cache_only_miss",
                              self.breaker.cooldown_remaining_s())

        job_id = self._next_job_id()
        try:
            self.queues.admit(request.tenant, job_id)
        except AdmissionRefused as exc:
            self._count("service_shed_total", reason=exc.reason)
            raise
        self._queued.set()
        record = JobRecord(job_id=job_id, request=request)
        # Child of the open http_request span: the job's trace position.
        record.trace = self.telemetry.child_context("job", job_id)
        if request.deadline_s is not None:
            record.deadline_monotonic = time.monotonic() + request.deadline_s
        self.records[job_id] = record
        self._journal_submit(record)
        self._count("service_accepted_total", tenant=request.tenant)
        return record, False

    def _try_cache(self, request: JobRequest) -> JobRecord | None:
        """Serve an identical prior submission from the result store."""
        if self.cache is None or request.cache_key is None \
                or not self.breaker.allow_cache_serve():
            return None
        entry = self.cache.get(request.cache_key)
        if entry is None or "payload" not in entry:
            return None
        job_id = self._next_job_id()
        record = JobRecord(job_id=job_id, request=request,
                           phase=JobPhase.DONE, served_from_cache=True)
        record.trace = self.telemetry.child_context("job", job_id)
        record.result = entry["payload"]
        record.finished_unix = time.time()
        self.records[job_id] = record
        self._journal_submit(record)
        assert self._journal is not None
        self._journal.record("job_cached", job=job_id,
                             cache_key=request.cache_key)
        self._count("service_cache_hits_total", tenant=request.tenant)
        self._record_job_trace(record)
        return record

    def _journal_submit(self, record: JobRecord) -> None:
        assert self._journal is not None
        deadline_unix = None
        if record.request.deadline_s is not None:
            deadline_unix = record.submitted_unix + record.request.deadline_s
        self._journal.record(
            "job_submitted", job=record.job_id,
            tenant=record.request.tenant,
            request=record.request.as_dict(),
            submitted_unix=record.submitted_unix,
            deadline_unix=deadline_unix,
            traceparent=(record.trace.to_traceparent()
                         if record.trace is not None else None),
        )

    def _next_job_id(self) -> str:
        self._seq += 1
        return f"job-{self._seq:06d}"

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued job (running/finished jobs are left alone)."""
        record = self.records.get(job_id)
        if record is None:
            raise KeyError(job_id)
        if record.phase is JobPhase.QUEUED:
            self.queues.drain_expired(lambda item: item == job_id)
            record.phase = JobPhase.CANCELLED
            record.finished_unix = time.time()
            if self._journal is not None:
                self._journal.record("job_cancelled", job=job_id)
            self._count("service_cancelled_total")
            self._set_gauges()
        return record

    # -- health surfaces ------------------------------------------------

    def health(self) -> dict[str, Any]:
        return {
            "status": "draining" if self.draining else "ok",
            "breaker": self.breaker.state.value,
            "breaker_consecutive_failures": self.breaker.consecutive_failures,
            "queue_depth": self.queues.depth(),
            "running": self._running_jobs,
            "jobs_tracked": len(self.records),
            "workers": self.config.workers,
        }

    def ready(self) -> bool:
        """Readiness: accepting new submissions at full service."""
        return (self.started and not self.draining
                and self.breaker.state is BreakerState.CLOSED)

    # -- the worker loop ------------------------------------------------

    async def _worker_loop(self, index: int) -> None:
        while True:
            if self.queues.depth() == 0:
                self._queued.clear()
                await self._queued.wait()
                continue
            if not self.breaker.allow_execution():
                await asyncio.sleep(_POLL_S)
                continue
            job_id = self.queues.take()
            if job_id is None:
                self.breaker.release_probe()
                continue
            record = self.records[job_id]
            if record.phase is not JobPhase.QUEUED:
                self.breaker.release_probe()
                continue  # cancelled/expired while queued
            if record.expired(time.monotonic()):
                self._finish_expired(record, where="queued")
                self.breaker.release_probe()
                continue
            record.phase = JobPhase.RUNNING
            if record.started_unix is None:
                record.started_unix = time.time()
            self._running_jobs += 1
            self._set_gauges()
            try:
                await self._execute(record)
            except Exception:  # noqa: BLE001 — keep this loop serving
                # A daemon-side fault (say the cache put in
                # _finish_success raising) must not end the task: the job
                # would stay running forever and the pool run one short.
                self.breaker.release_probe()
                if record.phase not in TERMINAL_PHASES:
                    self._finish_failed(record, traceback.format_exc())
            finally:
                self._running_jobs -= 1
                self._set_gauges()

    async def _execute(self, record: JobRecord) -> None:
        """Run one job to a terminal phase, honoring retry + deadline."""
        backoff = self.retry.backoff_state(salt=record.job_id)
        started = time.perf_counter()
        while True:
            record.attempts += 1
            assert self._journal is not None
            self._journal.record("job_start", job=record.job_id,
                                 attempt=record.attempts)
            outcome, error = await self._run_attempt(record)
            if outcome == "success":
                elapsed = time.perf_counter() - started
                self._finish_success(record, elapsed)
                return
            if outcome == "expired":
                self._finish_expired(record, where="running")
                self.breaker.release_probe()
                return
            if outcome == "worker_failure":
                self.breaker.record_failure()
                self._count("service_worker_failures_total")
            else:  # clean application error: backend is healthy
                self.breaker.record_success()
            if record.attempts >= self.retry.max_attempts or self.draining \
                    or self.breaker.state is not BreakerState.CLOSED:
                self._finish_failed(record, error)
                return
            self._count("service_retries_total")
            await asyncio.sleep(backoff.next_backoff())

    def _job_kwargs(self, record: JobRecord) -> dict[str, Any]:
        """Worker kwargs for one attempt.

        Extends the *request* kwargs — never mutating them, so the
        content-addressed cache key stays a pure function of the request
        — with telemetry export and trace propagation when the service
        runs with a telemetry directory.  The traceparent travels as an
        explicit kwarg (not the env var): spawn inherits the parent's
        environment at fork time, and inline attempts run on executor
        threads where a process-global env var would race.
        """
        kwargs = dict(record.request.kwargs())
        if self.config.telemetry_dir:
            kwargs["telemetry_dir"] = self.config.telemetry_dir
            kwargs["job_name"] = record.job_id
            if record.trace is not None:
                kwargs["traceparent"] = record.trace.to_traceparent()
        return kwargs

    async def _run_attempt(self, record: JobRecord) -> tuple[str, str | None]:
        """One attempt; returns ``(outcome, error)`` with outcome in
        ``{"success", "expired", "worker_failure", "job_error"}``."""
        if not self.config.isolate:
            return await self._run_attempt_inline(record)
        assert self._pool is not None
        artifact = self._artifact_path(record.job_id)
        error_path = artifact + ".error"
        try:
            os.unlink(error_path)
        except OSError:
            pass
        worker = self._pool.acquire()
        recycle: str | None = "cancelled"  # unless the attempt ends below
        try:
            worker.send((record.job_id, JOB_TARGET, self._job_kwargs(record),
                         artifact, error_path, None))
            self.running_procs[record.job_id] = worker.proc
            self._set_gauges()
            timeout_at = time.monotonic() + self.config.job_timeout_s
            while True:
                try:
                    verdict = worker.poll()
                except WorkerDied as exc:
                    recycle = "crash"
                    return "worker_failure", str(exc)
                if verdict is not None:
                    break
                now = time.monotonic()
                if record.expired(now):
                    recycle = "deadline"
                    return "expired", None
                if now >= timeout_at:
                    recycle = "timeout"
                    return ("worker_failure",
                            f"timeout: killed after {self.config.job_timeout_s:.1f}s")
                await asyncio.sleep(_POLL_S)
            if verdict != DONE:
                recycle = "job_error"
                return ("job_error", self._read_error_file(error_path)
                        or f"worker reported {verdict!r}")
            recycle = None
            try:
                record.result = read_artifact(artifact)
            except Exception as exc:
                return "worker_failure", f"unreadable artifact: {exc}"
            record.artifact_sha256 = sha256_file(artifact)
            return "success", None
        finally:
            # Task cancellation (shutdown) lands here with the pool
            # already closed, so that recycle only kills.
            self.running_procs.pop(record.job_id, None)
            if recycle is None:
                self._pool.release(worker)
            else:
                self._pool.recycle(worker, recycle)

    async def _run_attempt_inline(self, record: JobRecord) -> tuple[str, str | None]:
        """Threaded attempt for ``isolate=False`` (no kill capability)."""
        loop = asyncio.get_running_loop()
        artifact = self._artifact_path(record.job_id)
        try:
            payload = await loop.run_in_executor(
                None, lambda: run_job_inline(
                    record.job_id, JOB_TARGET, self._job_kwargs(record),
                    artifact
                )
            )
        except Exception as exc:  # noqa: BLE001 — job error, not ours
            return "job_error", f"{type(exc).__name__}: {exc}"
        record.result = payload
        record.artifact_sha256 = sha256_file(artifact)
        return "success", None

    @staticmethod
    def _read_error_file(path: str) -> str | None:
        try:
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip() or None
        except OSError:
            return None

    # -- terminal transitions ------------------------------------------

    def _record_job_trace(self, record: JobRecord) -> None:
        """Record the job's lifecycle spans at its terminal transition.

        The span lives across ``await`` points, so it cannot be a
        ``with`` block on the tracer's LIFO stack; instead the terminal
        transition records it (and its queue-wait/execute children) at
        the job's propagated trace position via ``record_at``.  Worker
        spans parent to ``record.trace`` directly, making ``service_job``
        the stitch point between the daemon's stream and the worker's.
        Also emits the ``service_job`` event the SLO burn-rate windows
        sample.
        """
        tel = self.telemetry
        trace = record.trace
        done = record.phase is JobPhase.DONE
        t0 = record.submitted_unix
        t_run = record.started_unix
        t_end = record.finished_unix if record.finished_unix is not None \
            else (t_run if t_run is not None else t0)
        if trace is not None and tel.enabled:
            tel.record_span(
                trace, "service_job",
                wall_s=max(0.0, t_end - t0), t_unix0=t0, ok=done,
                labels={"phase": record.phase.value},
                event_extra={"job": record.job_id},
            )
            tel.record_span(
                trace.child("queue_wait"), "service_queue_wait",
                wall_s=max(0.0, (t_run if t_run is not None else t_end) - t0),
                t_unix0=t0, ok=True,
                event_extra={"job": record.job_id},
            )
            if t_run is not None:
                tel.record_span(
                    trace.child("execute"), "service_execute",
                    wall_s=max(0.0, t_end - t_run), t_unix0=t_run, ok=done,
                    event_extra={"job": record.job_id},
                )
        tel.event("service_job", job=record.job_id,
                  phase=record.phase.value, tenant=record.request.tenant,
                  cached=record.served_from_cache,
                  t_unix=t_end if record.finished_unix is not None
                  else time.time())

    def _finish_success(self, record: JobRecord, elapsed: float) -> None:
        finished_unix = time.time()
        if self.cache is not None and record.request.cache_key is not None:
            # read_artifact returned the payload; store it under the
            # same envelope shape the harness uses.  Put first: if it
            # raises, the job is journaled failed, never done-then-failed.
            self.cache.put(record.request.cache_key,
                           {"payload": record.result})
        record.phase = JobPhase.DONE
        record.finished_unix = finished_unix
        assert self._journal is not None
        self._journal.record(
            "job_success", job=record.job_id, attempt=record.attempts,
            elapsed_s=round(elapsed, 3),
            artifact=os.path.relpath(self._artifact_path(record.job_id),
                                     self.run_dir),
            sha256=record.artifact_sha256,
        )
        self.breaker.record_success()
        self.queues.observe_service_time(elapsed)
        self._count("service_jobs_done_total", tenant=record.request.tenant)
        self.telemetry.histogram("service_job_wall_s").observe(elapsed)
        self._record_job_trace(record)

    def _finish_failed(self, record: JobRecord, error: str | None) -> None:
        record.phase = JobPhase.FAILED
        record.error = error or "unknown failure"
        record.finished_unix = time.time()
        assert self._journal is not None
        self._journal.record("job_failed", job=record.job_id,
                             attempts=record.attempts,
                             error=record.error)
        self._count("service_jobs_failed_total", tenant=record.request.tenant)
        self._record_job_trace(record)

    def _finish_expired(self, record: JobRecord, where: str) -> None:
        record.phase = JobPhase.EXPIRED
        record.error = f"deadline expired ({where})"
        record.finished_unix = time.time()
        if self._journal is not None:
            self._journal.record("job_expired", job=record.job_id, where=where)
        self._count("service_jobs_expired_total", where=where)
        self._record_job_trace(record)

    # -- the reaper -----------------------------------------------------

    async def _reaper_loop(self) -> None:
        """Expire queued jobs whose deadline passed (in-flight expiry is
        enforced by the attempt poll loop)."""
        while True:
            now = time.monotonic()

            def queued_and_expired(job_id: str) -> bool:
                record = self.records.get(job_id)
                return record is not None and record.expired(now)

            for job_id in self.queues.drain_expired(queued_and_expired):
                record = self.records[job_id]
                if record.phase is JobPhase.QUEUED:
                    self._finish_expired(record, where="queued")
            self._set_gauges()
            await asyncio.sleep(5 * _POLL_S)

    # -- paths ----------------------------------------------------------

    def _artifact_path(self, job_id: str) -> str:
        return os.path.join(self.artifact_dir, f"{job_id}.json")
