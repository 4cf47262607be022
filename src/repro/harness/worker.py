"""Job execution: the warm worker's job runner and the inline path.

The supervisor never pickles closures across the process boundary; a job
is a dotted ``module:function`` target plus JSON kwargs, resolved here.
Results travel through the filesystem, not the pipe: :func:`run_job`
atomically writes the artifact JSON, or on failure writes the traceback
to a sidecar ``<artifact>.error`` file, and only then returns the
one-word verdict (:data:`DONE` or :data:`ERROR`) that a
:mod:`repro.harness.pool` worker sends back to its parent.  The parent
reads the artifact or the traceback back from disk for the journal, so
a crashing job never scrambles the parent, and artifact bytes (and
their journaled SHA-256) are the same whichever process wrote them.

Trace propagation: the supervisor derives a deterministic child
:class:`~repro.telemetry.tracecontext.TraceContext` per job and ships
its ``traceparent`` string with the job.  It is installed in
:data:`~repro.telemetry.tracecontext.TRACEPARENT_ENV` around the job
target only — in the *worker* for isolated jobs, briefly in the
supervisor's process for inline ones — so any ``Telemetry()`` the
target constructs roots its spans under the harness job's span and the
merged streams stitch into one tree, and a warm worker carries no trace
state from one job into the next.
"""

from __future__ import annotations

import importlib
import traceback
from typing import Any, Callable

from repro.errors import HarnessError, SerializationError
from repro.ioutil import atomic_write_json, atomic_write_text
from repro.telemetry.tracecontext import TraceContext, propagation_env

ARTIFACT_SCHEMA = 1

#: Verdicts :func:`run_job` returns: the artifact, or the ``.error``
#: sidecar, is already on disk when either is sent.
DONE = "done"
ERROR = "error"


def resolve_target(target: str) -> Callable[..., Any]:
    """``"package.module:function"`` -> the callable."""
    module_name, _, func_name = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise HarnessError(f"cannot import job target module {module_name!r}: {exc}")
    fn = getattr(module, func_name, None)
    if not callable(fn):
        raise HarnessError(
            f"job target {target!r} does not name a callable"
        )
    return fn


def write_artifact(path: str, name: str, target: str, payload: Any) -> None:
    """Atomically persist a job's result (sorted keys: stable bytes)."""
    atomic_write_json(path, {
        "schema": ARTIFACT_SCHEMA,
        "job": name,
        "target": target,
        "payload": payload,
    })


def read_artifact(path: str) -> Any:
    """Load a job artifact and return its payload."""
    import json

    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise SerializationError(
            f"{path}: corrupt or truncated artifact JSON ({exc})"
        ) from exc
    if data.get("schema") != ARTIFACT_SCHEMA:
        raise SerializationError(
            f"{path}: unsupported artifact schema {data.get('schema')!r}"
        )
    return data["payload"]


def run_job_inline(name: str, target: str, kwargs: dict[str, Any],
                   artifact_path: str, traceparent: str | None = None) -> Any:
    """Execute a job in this process and persist its artifact."""
    fn = resolve_target(target)
    with propagation_env(TraceContext.parse(traceparent)):
        payload = fn(**kwargs)
    write_artifact(artifact_path, name, target, payload)
    return payload


def run_job(name: str, target: str, kwargs: dict[str, Any],
            artifact_path: str, error_path: str,
            traceparent: str | None = None) -> str:
    """Run one job in a pool worker; returns :data:`DONE` or :data:`ERROR`.

    Never raises: a job that raises (``SystemExit`` and
    ``KeyboardInterrupt`` included) leaves its traceback in
    ``error_path`` and yields :data:`ERROR`, after which the parent
    recycles this worker rather than trust its state.
    """
    try:
        run_job_inline(name, target, kwargs, artifact_path, traceparent)
    except BaseException:
        atomic_write_text(error_path, traceback.format_exc())
        return ERROR
    return DONE
