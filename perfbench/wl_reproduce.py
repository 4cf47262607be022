"""``reproduce``: the paper user's command, ``python -m repro.cli reproduce``
(all eight artifacts), as a fresh subprocess with an empty cache.

Closed loop, one caller, back to back.  The scalar engine and interpreter
start-up do the work; the batch engine barely runs (fig2 only) and there
is no spawn or HTTP.  The seed selects nothing: the paper fixes the
artifact set.  Each pass is split into phases by the arrival times of
its per-artifact progress lines; the pass time reported is the sum of
the phases' lower deciles (``measure.phase_sum``).  Correctness: exit
code 0, one progress line per artifact, and stdout byte-identical to the
digest recorded in ``expected.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import time

from measure import (
    Outcome,
    Workspace,
    children_peak_rss_mb,
    fresh_import_s,
    lower_decile,
    median,
    phase_sum,
    pin_to_one_cpu,
    timed,
)

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "expected.json"), encoding="utf-8") as _handle:
    EXPECTED_SHA256 = json.load(_handle)["reproduce_stdout_sha256"]


def _cli(ws: Workspace, argv: list[str]) -> subprocess.CompletedProcess:
    """One fresh CLI process with a private, empty cache."""
    return subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                          env=ws.child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=150)


def _phased_cli(ws: Workspace, argv: list[str]) -> tuple[list[float], int,
                                                          bytes]:
    """One fresh CLI process, timed in phases from outside.

    ``reproduce`` prints one progress line to stderr as each artifact
    finishes (stderr is line-buffered), so the times at which the lines
    arrive split the pass into start-up plus first artifact, each later
    artifact, and exit.  Returns ``(phase seconds, exit code, stdout)``;
    the phases sum to the pass's wall time.
    """
    stdout_path = os.path.join(ws.fresh_dir("stdout"), "stdout")
    with open(stdout_path, "wb") as stdout:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "repro.cli", *argv],
                                env=ws.child_env(), stdout=stdout,
                                stderr=subprocess.PIPE)
        marks = [t0]
        watchdog = threading.Timer(150, proc.kill)
        watchdog.start()
        try:
            for _ in proc.stderr:
                marks.append(time.perf_counter())
            code = proc.wait()
        finally:
            watchdog.cancel()
            proc.stderr.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        marks.append(time.perf_counter())
    with open(stdout_path, "rb") as handle:
        data = handle.read()
    return [b - a for a, b in zip(marks, marks[1:])], code, data


def _digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def run(inputs: dict, seconds: float, trace: bool, ws: Workspace) -> Outcome:
    out = Outcome()
    argv = inputs["argv"]
    pin_to_one_cpu()
    numpy_s, import_s = fresh_import_s(ws, ["repro.cli"])
    if trace:
        return _traced(out, argv, ws, numpy_s, import_s)

    walls, versions = [], []
    phases: list[list[float]] = []
    t_end = time.perf_counter() + seconds
    while True:
        for _ in range(2):
            wall, proc = timed(_cli, ws, ["--version"])
            versions.append(wall)
            out.attempted += 1
            out.check(proc.returncode == 0
                      and proc.stdout.startswith(b"greengpu "),
                      f"--version exited {proc.returncode}")
        split, code, stdout = _phased_cli(ws, argv)
        wall = sum(split)
        walls.append(wall)
        digest = _digest(stdout)
        out.attempted += 1
        ok = (code == 0 and digest == EXPECTED_SHA256
              and len(split) == len(inputs["artifacts"]) + 1)
        out.check(ok, f"reproduce exited {code} after {len(split) - 1} "
                      f"progress lines, stdout sha256 {digest[:12]} "
                      f"(expected {EXPECTED_SHA256[:12]})")
        if ok:
            if not phases:
                phases = [[] for _ in split]
            for samples, value in zip(phases, split):
                samples.append(value)
        if time.perf_counter() + wall > t_end:
            break

    reproduce_s = phase_sum(phases) if phases else median(walls)
    out.metrics = {
        "setup_s": import_s,
        "peak_rss_mb": children_peak_rss_mb(),
        "primary_s": reproduce_s,
        "secondary_ms": 1000.0 * lower_decile(versions),
    }
    out.note("setup_s", import_s, "s", 5,
             "median fresh-interpreter import of repro.cli")
    out.note("cli_startup_s", lower_decile(versions), "s", len(versions),
             "lower decile")
    out.note("cli_startup_p50_s", median(versions), "s", len(versions))
    out.note("reproduce_s", reproduce_s, "s", len(walls),
             f"sum of the lower deciles of {len(phases)} phases")
    out.note("reproduce_p50_s", median(walls), "s", len(walls),
             "whole passes")
    out.note("peak_rss_mb", out.metrics["peak_rss_mb"], "MB",
             base="largest child process")
    return out


def _traced(out: Outcome, argv: list[str], ws: Workspace, numpy_s: float,
            import_s: float) -> Outcome:
    """The CLI entry in-process, once untraced and once traced."""
    import repro.cli
    import repro.harness.suite_jobs  # noqa: F401  (artifact modules)
    from tracer import traced_run

    def op() -> str:
        os.environ["GREENGPU_CACHE_DIR"] = ws.fresh_dir("cache")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = repro.cli.main(argv)
        return f"{code}:{_digest(stdout.getvalue().encode('utf-8'))}"

    metrics, untraced, traced = traced_run(
        out, op, "cli.main", os.path.join(ws.out, "spans-reproduce.npz"),
        {"cli.import_s": import_s, "cli.import_numpy_s": numpy_s})
    for label, result in (("untraced", untraced), ("traced", traced)):
        out.attempted += 1
        out.check(result == f"0:{EXPECTED_SHA256}",
                  f"{label} in-process reproduce gave {result[:14]}")
    out.metrics = metrics
    return out
