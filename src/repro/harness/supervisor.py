"""The supervisor: timeouts, retries, quarantine, journal, resume.

One :class:`Supervisor` drives one *run directory*::

    <run-dir>/
      journal.jsonl        write-ahead journal (fsynced per transition)
      artifacts/<job>.json atomically-written job results
      artifacts/<job>.error last traceback of a failed attempt

Jobs run in warm spawn-context workers (:mod:`repro.harness.pool`, up
to ``parallel`` of them for one :meth:`Supervisor.run`): each imports
once and then runs job after job, a hung or crashing experiment is
killed on its deadline without taking down the supervisor, and the
worker it ran in is replaced.  With ``isolate=False`` jobs run inline
in this process — no worker at all, at the price of timeout
enforcement.

Every state transition is journaled *before* the supervisor acts on it,
and artifacts are written atomically by the worker, so a crash at any
instant — including ``SIGKILL``, which no handler can see — leaves a
run directory that ``resume=True`` can pick up: completed jobs whose
artifact bytes still hash to the journaled SHA-256 are skipped, and
only the rest re-run.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import SerializationError
from repro.harness.job import (
    SATISFIED_STATES,
    TERMINAL_STATES,
    JobOutcome,
    JobSpec,
    JobState,
    validate_dag,
)
from repro.harness.journal import JOURNAL_NAME, Journal, read_journal
from repro.harness.pool import Worker, WorkerDied, WorkerPool
from repro.harness.worker import (
    DONE,
    read_artifact,
    run_job_inline,
    write_artifact,
)
from repro.ioutil import sha256_file
from repro.telemetry.tracecontext import TraceContext, default_context

POLL_INTERVAL_S = 0.02

#: Sentinel distinguishing "no prefetched payload" from a falsy payload.
_NO_PREFETCH = object()


@dataclass(frozen=True)
class ProgressEvent:
    """Emitted after every job reaches a terminal state."""

    completed: int
    total: int
    job: str
    state: str
    elapsed_s: float
    eta_s: float | None


def stderr_progress(event: ProgressEvent) -> None:
    """Default progress sink: one line per completed job, to stderr."""
    eta = f", ~{event.eta_s:.1f}s left" if event.eta_s is not None else ""
    print(
        f"[{event.completed}/{event.total}] {event.job} {event.state} "
        f"({event.elapsed_s:.1f}s elapsed{eta})",
        file=sys.stderr, flush=True,
    )


@dataclass
class HarnessReport:
    """Per-run health counters, in the :class:`ControlHealth` spirit."""

    jobs_total: int = 0
    succeeded: int = 0
    resumed: int = 0
    cached: int = 0           # served from the content-addressed result cache
    retries: int = 0          # extra attempts beyond each job's first
    timeouts: int = 0         # attempts killed on their deadline
    quarantined: int = 0      # circuit breaker tripped: attempts exhausted
    dep_skipped: int = 0      # skipped because an upstream job failed
    interrupted: bool = False  # finalized early on SIGINT/SIGTERM
    elapsed_s: float = 0.0
    states: dict[str, str] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Every job produced (or resumed) its artifact."""
        return (not self.interrupted
                and self.quarantined == 0 and self.dep_skipped == 0)

    def summary_line(self) -> str:
        return (
            f"harness: {self.succeeded} ok, {self.resumed} resumed, "
            f"{self.cached} cached, "
            f"{self.retries} retried, {self.timeouts} timed out, "
            f"{self.quarantined} quarantined, {self.dep_skipped} dep-skipped "
            f"({self.elapsed_s:.1f}s)"
        )

    def as_lines(self) -> list[str]:
        lines = [
            f"jobs        : {self.jobs_total}",
            f"succeeded   : {self.succeeded}",
            f"resumed     : {self.resumed}",
            f"cached      : {self.cached}",
            f"retries     : {self.retries}",
            f"timeouts    : {self.timeouts}",
            f"quarantined : {self.quarantined}",
            f"dep-skipped : {self.dep_skipped}",
            f"interrupted : {self.interrupted}",
        ]
        for name, error in self.errors.items():
            first = error.strip().splitlines()[-1] if error.strip() else error
            lines.append(f"  {name}: {first}")
        return lines

    def to_markdown(self) -> str:
        lines = ["# Run health (auto-generated)", ""]
        lines += [f"    {line}" for line in self.as_lines()]
        return "\n".join(lines) + "\n"


@dataclass
class HarnessResult:
    """Everything a caller needs after :func:`run_jobs` returns."""

    report: HarnessReport
    outcomes: dict[str, JobOutcome]

    @property
    def payloads(self) -> dict[str, Any]:
        """Payloads of every job that produced (or resumed) an artifact."""
        return {
            name: outcome.payload
            for name, outcome in self.outcomes.items()
            if outcome.state in SATISFIED_STATES
        }


class _Running:
    """Bookkeeping for one job in flight on a pool worker."""

    def __init__(self, worker: Worker, started: float,
                 deadline: float | None) -> None:
        self.worker = worker
        self.started = started
        self.deadline = deadline


class Supervisor:
    def __init__(
        self,
        specs: list[JobSpec],
        run_dir: str | os.PathLike[str],
        *,
        parallel: int = 1,
        resume: bool = False,
        isolate: bool = True,
        progress: Callable[[ProgressEvent], None] | None = None,
        telemetry=None,
        cache=None,
        prefetch: Callable[[list[JobSpec]], dict[str, Any]] | None = None,
    ) -> None:
        self.specs = validate_dag(list(specs))
        self.spec_order = [s.name for s in specs]  # declaration order
        self.by_name = {s.name: s for s in self.specs}
        self.run_dir = os.fspath(run_dir)
        self.artifact_dir = os.path.join(self.run_dir, "artifacts")
        self.parallel = max(1, int(parallel))
        self.resume = resume
        self.isolate = isolate
        self.progress = progress
        self.telemetry = telemetry
        self.cache = cache
        self.prefetch = prefetch
        self._prefetched: dict[str, Any] = {}
        self._pool: WorkerPool | None = None
        # Trace root for this run: the telemetry's context when enabled,
        # else the ambient (env-propagated or fixed) one.  Per-job child
        # contexts derive from it by name alone, so serial and parallel
        # executions of the same specs stitch into identical trace trees.
        if telemetry is not None and telemetry.enabled:
            self._trace = telemetry.current_context()
        else:
            self._trace = default_context()
        self._stop_signal: int | None = None
        # Per-job backoff sequences, salted by job name so seeded
        # decorrelated-jitter policies desynchronize across jobs.
        self._backoffs: dict[str, Any] = {}

    # -- paths ---------------------------------------------------------

    def artifact_path(self, name: str) -> str:
        return os.path.join(self.artifact_dir, f"{name}.json")

    def error_path(self, name: str) -> str:
        return os.path.join(self.artifact_dir, f"{name}.error")

    # -- tracing -------------------------------------------------------

    def job_context(self, spec: JobSpec) -> TraceContext:
        """The trace position a job's worker roots its spans under."""
        if spec.traceparent is not None:
            parsed = TraceContext.parse(spec.traceparent)
            if parsed is not None:
                return parsed
        return self._trace.child("job", spec.name)

    # -- the run -------------------------------------------------------

    def run(self) -> HarnessResult:
        os.makedirs(self.artifact_dir, exist_ok=True)
        journal_path = os.path.join(self.run_dir, JOURNAL_NAME)
        prior = (read_journal(journal_path)
                 if self.resume and os.path.exists(journal_path) else [])

        outcomes = {s.name: JobOutcome(name=s.name) for s in self.specs}
        started = time.perf_counter()
        report = HarnessReport(jobs_total=len(self.specs))

        old_handlers = self._install_signal_handlers()
        try:
            with Journal(journal_path) as journal:
                journal.record(
                    "run_start",
                    jobs=[s.name for s in self.specs],
                    parallel=self.parallel,
                    resume=self.resume,
                    isolate=self.isolate,
                )
                self._resume_pass(prior, outcomes, report, journal, started)
                self._cache_pass(outcomes, report, journal, started)
                self._prefetch_pass(outcomes)
                if self.isolate:
                    self._pool = WorkerPool(self.parallel, name="harness")
                try:
                    self._schedule(outcomes, report, journal, started)
                finally:
                    if self._pool is not None:
                        self._pool.close()  # kills interrupted jobs
                        self._pool = None
                report.elapsed_s = time.perf_counter() - started
                if self._stop_signal is not None:
                    report.interrupted = True
                    journal.record("run_interrupted", signal=self._stop_signal)
                journal.record(
                    "run_end",
                    succeeded=report.succeeded,
                    resumed=report.resumed,
                    retries=report.retries,
                    timeouts=report.timeouts,
                    quarantined=report.quarantined,
                    dep_skipped=report.dep_skipped,
                    interrupted=report.interrupted,
                )
        finally:
            self._restore_signal_handlers(old_handlers)

        report.states = {
            name: outcomes[name].state.value for name in self.spec_order
        }
        report.errors = {
            name: outcomes[name].error
            for name in self.spec_order
            if outcomes[name].error
        }
        ordered = {name: outcomes[name] for name in self.spec_order}
        self._record_telemetry(report, ordered)
        return HarnessResult(report=report, outcomes=ordered)

    def _record_telemetry(self, report: HarnessReport,
                          outcomes: dict[str, JobOutcome]) -> None:
        """Mirror the run's :class:`HarnessReport` into telemetry counters.

        Job durations go into a ``wall_s``-suffixed histogram — they are
        wall-clock measurements and therefore excluded from the
        parallel-vs-serial parity contract by name.
        """
        tel = self.telemetry
        if tel is None or not tel.enabled:
            return
        for name, count in (
            ("harness_jobs_total", report.jobs_total),
            ("harness_succeeded_total", report.succeeded),
            ("harness_resumed_total", report.resumed),
            ("harness_cached_total", report.cached),
            ("harness_retries_total", report.retries),
            ("harness_timeouts_total", report.timeouts),
            ("harness_quarantined_total", report.quarantined),
            ("harness_dep_skipped_total", report.dep_skipped),
        ):
            if count:
                tel.counter(name).inc(count)
        for name, outcome in outcomes.items():
            tel.counter("harness_job_state_total",
                        state=outcome.state.value).inc()
            if outcome.elapsed_s > 0.0:
                tel.histogram("harness_job_wall_s").observe(outcome.elapsed_s)
            tel.event("harness_job", job=name, state=outcome.state.value,
                      attempts=outcome.attempts)
            # Record the job's span at its propagated trace position, so
            # spans the worker exported (rooted under this context via
            # the traceparent hand-off) stitch as this span's children.
            tel.record_span(
                self.job_context(self.by_name[name]), "harness_job",
                wall_s=outcome.elapsed_s,
                ok=outcome.state in SATISFIED_STATES,
                labels={"state": outcome.state.value},
                event_extra={"job": name},
            )

    # -- signal finalization -------------------------------------------

    def _install_signal_handlers(self) -> dict[int, Any]:
        def _note(signum: int, frame: object) -> None:
            self._stop_signal = signum

        old: dict[int, Any] = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                old[sig] = signal.signal(sig, _note)
            except ValueError:
                pass  # not the main thread; rely on SIGKILL-grade safety
        return old

    def _restore_signal_handlers(self, old: dict[int, Any]) -> None:
        for sig, handler in old.items():
            signal.signal(sig, handler)

    # -- resume --------------------------------------------------------

    def _resume_pass(self, prior: list[dict[str, Any]],
                     outcomes: dict[str, JobOutcome], report: HarnessReport,
                     journal: Journal, run_started: float) -> None:
        """Skip jobs whose journaled success still verifies on disk."""
        last_success: dict[str, dict[str, Any]] = {}
        for rec in prior:
            if rec.get("event") == "job_success" and rec.get("job") in self.by_name:
                last_success[rec["job"]] = rec
        for name, rec in last_success.items():
            path = self.artifact_path(name)
            if not os.path.exists(path):
                continue
            if sha256_file(path) != rec.get("sha256"):
                continue  # artifact changed since journaled: re-run it
            try:
                payload = read_artifact(path)
            except SerializationError:
                continue
            outcome = outcomes[name]
            outcome.state = JobState.SKIPPED_RESUMED
            outcome.payload = payload
            outcome.artifact_path = path
            outcome.artifact_sha256 = rec["sha256"]
            report.resumed += 1
            journal.record("job_skipped", job=name, reason="resumed")
            self._emit_progress(outcomes, name, run_started)

    # -- result cache --------------------------------------------------

    def _cache_pass(self, outcomes: dict[str, JobOutcome],
                    report: HarnessReport, journal: Journal,
                    run_started: float) -> None:
        """Serve still-pending keyed jobs from the result cache.

        Runs after the resume pass (a verified on-disk artifact wins —
        it belongs to *this* run directory) and before scheduling.  Each
        hit is journaled as ``job_skipped reason=cache`` with its key,
        so ``--resume`` of an interrupted run and any later audit can
        see exactly which points were never simulated.
        """
        if self.cache is None:
            return
        for spec in self.specs:
            outcome = outcomes[spec.name]
            if spec.cache_key is None or outcome.state is not JobState.PENDING:
                continue
            entry = self.cache.get(spec.cache_key)
            if entry is None or "payload" not in entry:
                continue
            outcome.state = JobState.SKIPPED_CACHED
            outcome.payload = entry["payload"]
            report.cached += 1
            journal.record("job_skipped", job=spec.name, reason="cache",
                           cache_key=spec.cache_key)
            self._emit_progress(outcomes, spec.name, run_started)

    # -- prefetch ------------------------------------------------------

    def _prefetch_pass(self, outcomes: dict[str, JobOutcome]) -> None:
        """Precompute pending inline jobs' payloads in one batched call.

        Runs after resume and cache passes, so the hook only sees jobs
        that will actually execute.  It may serve any subset of them
        (unserved jobs run their target normally); each served job still
        flows through the ordinary inline attempt — ``job_start`` /
        ``job_success`` journaling, artifact write, cache put, progress —
        so the batch computation is invisible to the run directory.
        Isolated runs never prefetch: the caller asked for jobs to run
        in worker processes (crash containment, timeouts, signals).
        """
        if self.prefetch is None or self.isolate:
            return
        pending = [s for s in self.specs
                   if outcomes[s.name].state is JobState.PENDING]
        if not pending:
            return
        try:
            self._prefetched = dict(self.prefetch(pending) or {})
        except Exception:  # noqa: BLE001 — fall back to per-job execution
            self._prefetched = {}

    # -- scheduling ----------------------------------------------------

    def _schedule(self, outcomes: dict[str, JobOutcome], report: HarnessReport,
                  journal: Journal, run_started: float) -> None:
        attempts: dict[str, int] = {s.name: 0 for s in self.specs}
        ready_at: dict[str, float] = {s.name: 0.0 for s in self.specs}
        running: dict[str, _Running] = {}

        def unfinished() -> list[JobSpec]:
            return [s for s in self.specs
                    if outcomes[s.name].state not in TERMINAL_STATES]

        while unfinished() and self._stop_signal is None:
            self._skip_broken_dependents(outcomes, report, journal, run_started)
            self._launch_ready(outcomes, attempts, ready_at, running,
                               journal, report, run_started)
            if not running and not unfinished():
                break
            if running:
                time.sleep(POLL_INTERVAL_S)
                self._poll_running(outcomes, attempts, ready_at, running,
                                   journal, report, run_started)
            elif unfinished():
                # Everything launchable is backing off; sleep to the
                # earliest retry slot instead of spinning.
                pending = [ready_at[s.name] for s in unfinished()
                           if outcomes[s.name].state is JobState.PENDING]
                if pending:
                    time.sleep(
                        max(POLL_INTERVAL_S,
                            min(pending) - time.monotonic())
                    )

        if self._stop_signal is not None:
            for name in running:
                outcomes[name].error = f"interrupted by signal {self._stop_signal}"

    def _skip_broken_dependents(self, outcomes: dict[str, JobOutcome],
                                report: HarnessReport, journal: Journal,
                                run_started: float) -> None:
        for spec in self.specs:
            outcome = outcomes[spec.name]
            if outcome.state is not JobState.PENDING:
                continue
            broken = [
                dep for dep in spec.depends_on
                if outcomes[dep].state in TERMINAL_STATES
                and outcomes[dep].state not in SATISFIED_STATES
            ]
            if broken:
                outcome.state = JobState.SKIPPED_DEPENDENCY
                outcome.error = f"upstream failed: {', '.join(broken)}"
                report.dep_skipped += 1
                journal.record("job_skipped", job=spec.name,
                               reason="dependency", upstream=broken)
                self._emit_progress(outcomes, spec.name, run_started)

    def _launch_ready(self, outcomes: dict[str, JobOutcome],
                      attempts: dict[str, int], ready_at: dict[str, float],
                      running: dict[str, _Running], journal: Journal,
                      report: HarnessReport, run_started: float) -> None:
        for spec in self.specs:
            if self._stop_signal is not None:
                return
            if len(running) >= self.parallel and self.isolate:
                return
            outcome = outcomes[spec.name]
            if outcome.state is not JobState.PENDING or spec.name in running:
                continue
            if not all(outcomes[d].state in SATISFIED_STATES
                       for d in spec.depends_on):
                continue
            if time.monotonic() < ready_at[spec.name]:
                continue
            attempts[spec.name] += 1
            outcome.attempts = attempts[spec.name]
            journal.record("job_start", job=spec.name,
                           attempt=attempts[spec.name])
            self._clear_error_file(spec.name)
            if self.isolate:
                self._dispatch(spec, running)
            else:
                self._run_inline(spec, outcomes, attempts, ready_at,
                                 journal, report, run_started)

    def _clear_error_file(self, name: str) -> None:
        try:
            os.unlink(self.error_path(name))
        except OSError:
            pass

    def _dispatch(self, spec: JobSpec, running: dict[str, _Running]) -> None:
        assert self._pool is not None
        worker = self._pool.acquire()
        worker.send((spec.name, spec.target, spec.kwargs,
                     self.artifact_path(spec.name), self.error_path(spec.name),
                     self.job_context(spec).to_traceparent()))
        now = time.monotonic()
        deadline = None if spec.timeout_s is None else now + spec.timeout_s
        running[spec.name] = _Running(worker, now, deadline)

    def _run_inline(self, spec: JobSpec, outcomes: dict[str, JobOutcome],
                    attempts: dict[str, int], ready_at: dict[str, float],
                    journal: Journal, report: HarnessReport,
                    run_started: float) -> None:
        started = time.monotonic()
        try:
            payload = self._prefetched.pop(spec.name, _NO_PREFETCH)
            if payload is not _NO_PREFETCH:
                write_artifact(self.artifact_path(spec.name), spec.name,
                               spec.target, payload)
            else:
                payload = run_job_inline(
                    spec.name, spec.target, spec.kwargs,
                    self.artifact_path(spec.name),
                    self.job_context(spec).to_traceparent())
        except Exception as exc:  # noqa: BLE001 — quarantine, don't crash
            self._attempt_failed(
                spec, f"{type(exc).__name__}: {exc}", outcomes, attempts,
                ready_at, journal, report, run_started,
                elapsed=time.monotonic() - started,
            )
            return
        self._attempt_succeeded(spec, payload, outcomes, attempts, journal,
                                report, run_started,
                                elapsed=time.monotonic() - started)

    def _poll_running(self, outcomes: dict[str, JobOutcome],
                      attempts: dict[str, int], ready_at: dict[str, float],
                      running: dict[str, _Running], journal: Journal,
                      report: HarnessReport, run_started: float) -> None:
        assert self._pool is not None
        now = time.monotonic()
        for name in list(running):
            slot = running[name]
            spec = self.by_name[name]
            try:
                verdict = slot.worker.poll()
            except WorkerDied as exc:
                del running[name]
                self._pool.recycle(slot.worker, "crash")
                self._attempt_failed(
                    spec, self._read_error_file(name) or str(exc), outcomes,
                    attempts, ready_at, journal, report, run_started,
                    elapsed=time.monotonic() - slot.started,
                )
                continue
            if verdict is None:
                if slot.deadline is not None and now > slot.deadline:
                    del running[name]
                    self._pool.recycle(slot.worker, "timeout")
                    report.timeouts += 1
                    self._attempt_failed(
                        spec,
                        f"timeout: killed after {spec.timeout_s:.1f}s",
                        outcomes, attempts, ready_at, journal, report,
                        run_started, elapsed=now - slot.started,
                    )
                continue
            del running[name]
            elapsed = time.monotonic() - slot.started
            if verdict != DONE:
                self._pool.recycle(slot.worker, "job_error")
                error = (self._read_error_file(name)
                         or f"worker reported {verdict!r}")
                self._attempt_failed(spec, error, outcomes, attempts,
                                     ready_at, journal, report, run_started,
                                     elapsed=elapsed)
                continue
            self._pool.release(slot.worker)
            try:
                payload = read_artifact(self.artifact_path(name))
            except (OSError, SerializationError) as exc:
                self._attempt_failed(spec, f"unreadable artifact: {exc}",
                                     outcomes, attempts, ready_at,
                                     journal, report, run_started,
                                     elapsed=elapsed)
                continue
            self._attempt_succeeded(spec, payload, outcomes, attempts,
                                    journal, report, run_started,
                                    elapsed=elapsed)

    def _read_error_file(self, name: str) -> str | None:
        try:
            with open(self.error_path(name), encoding="utf-8") as handle:
                return handle.read().strip() or None
        except OSError:
            return None

    # -- attempt outcomes ----------------------------------------------

    def _attempt_succeeded(self, spec: JobSpec, payload: Any,
                           outcomes: dict[str, JobOutcome],
                           attempts: dict[str, int], journal: Journal,
                           report: HarnessReport, run_started: float,
                           elapsed: float) -> None:
        outcome = outcomes[spec.name]
        path = self.artifact_path(spec.name)
        sha = sha256_file(path)
        outcome.state = JobState.SUCCEEDED
        outcome.payload = payload
        outcome.elapsed_s = elapsed
        outcome.artifact_path = path
        outcome.artifact_sha256 = sha
        report.succeeded += 1
        journal.record("job_success", job=spec.name,
                       attempt=attempts[spec.name],
                       elapsed_s=round(elapsed, 3),
                       artifact=os.path.relpath(path, self.run_dir),
                       sha256=sha)
        if self.cache is not None and spec.cache_key is not None:
            self.cache.put(spec.cache_key, {"payload": payload})
        self._emit_progress(outcomes, spec.name, run_started)

    def _attempt_failed(self, spec: JobSpec, error: str,
                        outcomes: dict[str, JobOutcome],
                        attempts: dict[str, int], ready_at: dict[str, float],
                        journal: Journal, report: HarnessReport,
                        run_started: float, elapsed: float) -> None:
        outcome = outcomes[spec.name]
        outcome.error = error
        outcome.elapsed_s += elapsed
        used = attempts[spec.name]
        if used < spec.retry.max_attempts:
            if spec.name not in self._backoffs:
                self._backoffs[spec.name] = spec.retry.backoff_state(
                    salt=spec.name
                )
            backoff = self._backoffs[spec.name].next_backoff()
            report.retries += 1
            ready_at[spec.name] = time.monotonic() + backoff
            journal.record("job_retry", job=spec.name, attempt=used,
                           backoff_s=round(backoff, 3), error=error)
            if not self.isolate and backoff > 0.0:
                time.sleep(backoff)
        else:
            outcome.state = JobState.QUARANTINED
            report.quarantined += 1
            journal.record("job_quarantined", job=spec.name,
                           attempts=used, error=error)
            self._emit_progress(outcomes, spec.name, run_started)

    # -- progress ------------------------------------------------------

    def _emit_progress(self, outcomes: dict[str, JobOutcome], name: str,
                       run_started: float) -> None:
        if self.progress is None:
            return
        completed = sum(1 for o in outcomes.values()
                        if o.state in TERMINAL_STATES)
        total = len(outcomes)
        elapsed = time.perf_counter() - run_started
        eta = (elapsed / completed * (total - completed)
               if completed else None)
        self.progress(ProgressEvent(
            completed=completed, total=total, job=name,
            state=outcomes[name].state.value,
            elapsed_s=elapsed, eta_s=eta,
        ))


def run_jobs(
    specs: list[JobSpec],
    run_dir: str | os.PathLike[str],
    *,
    parallel: int = 1,
    resume: bool = False,
    isolate: bool = True,
    progress: Callable[[ProgressEvent], None] | None = None,
    telemetry=None,
    cache=None,
    prefetch: Callable[[list[JobSpec]], dict[str, Any]] | None = None,
) -> HarnessResult:
    """Run a job DAG under supervision; see :class:`Supervisor`."""
    supervisor = Supervisor(specs, run_dir, parallel=parallel, resume=resume,
                            isolate=isolate, progress=progress,
                            telemetry=telemetry, cache=cache,
                            prefetch=prefetch)
    return supervisor.run()
