"""Supervised job-execution harness.

The inner control loop (``repro.core``) is hardened against device
faults; this package hardens the *outer* evaluation layer against the
harness' own failure modes — a hung experiment, a crashing worker, a
``kill -9`` mid-suite.  It runs a DAG of named jobs with:

- per-job wall-clock **timeouts** and **retry with backoff** (reusing
  :class:`repro.faults.retry.RetryPolicy`), plus a **circuit breaker**
  that quarantines a repeatedly-failing job instead of sinking the run;
- **process isolation** via warm spawn-context worker processes
  (:mod:`repro.harness.pool`: import once, run many jobs, replaced
  after any failure), with optional parallel fan-out across
  independent jobs;
- a **write-ahead journal** (``journal.jsonl``, one fsynced record per
  state transition) and **atomic artifact writes**, so any interrupt
  leaves a consistent on-disk state;
- **resume**: replay the journal, skip jobs whose completed artifacts
  verify by content hash, re-run only the rest.

See ``docs/architecture.md`` ("The supervised suite harness") for the
job lifecycle state machine and the journal format.
"""

from repro.harness.job import JobOutcome, JobSpec, JobState, validate_dag
from repro.harness.journal import Journal, read_journal
from repro.harness.supervisor import (
    HarnessReport,
    HarnessResult,
    ProgressEvent,
    run_jobs,
    stderr_progress,
)
from repro.harness.worker import read_artifact, resolve_target

__all__ = [
    "JobSpec",
    "JobState",
    "JobOutcome",
    "validate_dag",
    "Journal",
    "read_journal",
    "HarnessReport",
    "HarnessResult",
    "ProgressEvent",
    "run_jobs",
    "stderr_progress",
    "read_artifact",
    "resolve_target",
]
