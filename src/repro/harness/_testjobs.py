"""Deterministic job targets for exercising the harness in tests.

These live in the package (not under ``tests/``) because spawned
workers import targets by dotted name, and ``tests`` is not guaranteed
to be importable from a fresh interpreter.  Cross-attempt state (for
"fail twice then succeed" shapes) goes through a caller-provided counter
file, since an isolated attempt may run in another process (a failed
one always does: its worker is replaced).
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any

#: Environment variable naming the gate file of :func:`gated_simulation`.
GATE_ENV = "GREENGPU_TEST_GATE"

#: A gated job gives up (raises) after this long with its gate shut.
GATE_TIMEOUT_S = 120.0


def _bump_counter(state_path: str) -> int:
    """Increment (and return) a per-job attempt counter on disk."""
    count = 0
    if os.path.exists(state_path):
        with open(state_path, encoding="utf-8") as handle:
            count = int(handle.read().strip() or 0)
    count += 1
    # Attempts are strictly sequential per job, so a plain write is safe.
    with open(state_path, "w", encoding="utf-8") as handle:
        handle.write(str(count))
    return count


def ok(value: int = 1) -> dict[str, Any]:
    return {"value": value}


def boom(message: str = "boom") -> dict[str, Any]:
    raise RuntimeError(message)


def sleep_then_ok(seconds: float = 60.0, value: int = 2) -> dict[str, Any]:
    time.sleep(seconds)
    return {"value": value}


def flaky(state_path: str, fail_times: int = 1, value: int = 7) -> dict[str, Any]:
    """Raise on the first ``fail_times`` attempts, then succeed."""
    attempt = _bump_counter(state_path)
    if attempt <= fail_times:
        raise RuntimeError(f"flaky failure on attempt {attempt}")
    return {"value": value, "attempt": attempt}


def hang_then_ok(state_path: str, seconds: float = 60.0,
                 value: int = 3) -> dict[str, Any]:
    """Hang (to trip the timeout) on the first attempt, then succeed."""
    attempt = _bump_counter(state_path)
    if attempt <= 1:
        time.sleep(seconds)
    return {"value": value, "attempt": attempt}


def pid() -> dict[str, Any]:
    """Report the process the job ran in."""
    return {"pid": os.getpid()}


def misbehave_once(state_path: str, how: str) -> dict[str, Any]:
    """First attempt: record this pid, then ``crash`` (SIGKILL itself),
    ``hang`` or ``raise``.  Later attempts return both pids."""
    if not os.path.exists(state_path):
        with open(state_path, "w", encoding="utf-8") as handle:
            handle.write(str(os.getpid()))
        if how == "crash":
            os.kill(os.getpid(), signal.SIGKILL)
        elif how == "hang":
            time.sleep(60.0)
        raise RuntimeError(f"misbehaving once ({how})")
    with open(state_path, encoding="utf-8") as handle:
        first = int(handle.read())
    return {"pid": os.getpid(), "first_pid": first}


def gated_simulation(**kwargs: Any) -> dict[str, Any]:
    """:func:`repro.service.jobs.run_simulation` behind a gate file.

    Takes ``run_simulation``'s kwargs.  With ``$GREENGPU_TEST_GATE``
    set, each call first appends its pid to ``<gate>.started``, then
    blocks until the gate file exists.  The gate's text decides what
    passes: ``once`` lets exactly one job through (that job takes the
    gate away), ``raise`` makes jobs raise instead of simulating, and
    anything else lets every job through.  Service tests point the
    daemon at this target so that kills, timeouts and deadlines land on
    a job that is provably mid-flight, however fast workers and engine
    are.
    """
    from repro.service.jobs import run_simulation

    gate = os.environ.get(GATE_ENV)
    if gate:
        with open(gate + ".started", "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        give_up = time.monotonic() + GATE_TIMEOUT_S
        while True:
            try:
                with open(gate, encoding="utf-8") as handle:
                    text = handle.read().strip()
                if text != "once":
                    break
                os.rename(gate, f"{gate}.taken")  # only one job wins this
                break
            except FileNotFoundError:
                pass  # shut, or another job took the single pass
            if time.monotonic() > give_up:
                raise TimeoutError(f"gate {gate} stayed shut")
            time.sleep(0.005)
        if text == "raise":
            raise RuntimeError("gate says raise")
    return run_simulation(**kwargs)
