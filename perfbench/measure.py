"""Shared plumbing: the metric tables, statistics, a hermetic workspace,
fresh-interpreter timing and peak-RSS readers."""

from __future__ import annotations

import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from statistics import median

#: End-to-end metrics (``--trace 0``).  Every workload reports all of
#: them; ``primary``/``secondary`` are the workload's main operation and
#: its lightest user-visible operation (see README.md for each mapping
#: and the statistic each workload reports).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "primary_s": "s",
    "secondary_ms": "ms",
}

#: Per-layer metrics (``--trace 1``).  Every workload reports all of them;
#: a layer its path never reaches reads 0.  ``*_s`` span metrics are self
#: time: the span's duration minus its wrapped children's.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    **{f"experiments.{name}_s": "s" for name in (
        "fig1", "fig2", "table2", "fig5", "fig6", "fig7", "fig8",
        "headline")},
    "harness.supervisor_self_s": "s",
    "harness.journal_records": "count",
    "harness.journal_record_s": "s",
    "runtime.run_workload_calls": "count",
    "runtime.run_workload_s": "s",
    "runtime.run_many_s": "s",
    "runtime.engine.batch": "count",
    "runtime.engine.cache": "count",
    "runtime.engine.scalar": "count",
    "runtime.engine.scalar.faults": "count",
    "runtime.engine.scalar.singleton": "count",
    "runtime.engine.scalar.fleet-custom-system": "count",
    "runtime.engine.scalar.other": "count",
    "runtime.scalar_fallback_frac": "ratio",
    "sim.step_calls": "count",
    "sim.step_s": "s",
    "sim.clock_advance_s": "s",
    "sim.run_batch_calls": "count",
    "sim.run_batch_s": "s",
    "sim.batch_width_mean": "lanes",
    "sim.trace_records": "count",
    "sim.trace_record_s": "s",
    "sim.host_s_per_sim_s": "s/s",
    "core.ondemand_steps": "count",
    "core.ondemand_s": "s",
    "core.wma_steps": "count",
    "core.wma_s": "s",
    "core.division_updates": "count",
    "core.division_s": "s",
    "monitors.queries": "count",
    "monitors.query_s": "s",
    "cache.gets": "count",
    "cache.get_s": "s",
    "cache.hit_ratio": "ratio",
    "cache.puts": "count",
    "cache.put_s": "s",
    "service.submit_rtt_p50_ms": "ms",
    "service.submit_rtt_p99_ms": "ms",
    "service.admission_p99_ms": "ms",
    "service.job_wall_p50_s": "s",
    "service.queue_wait_p50_s": "s",
    "service.miss_p90_s": "s",
    "service.hit_p99_ms": "ms",
    "service.shed": "count",
    "service.retries": "count",
    "service.worker_failures": "count",
    "service.polls": "count",
    "service.gen_lag_p99_ms": "ms",
    "service.backlog_growing": "flag",
    "fleet.plan_s": "s",
    "fleet.allocate_calls": "count",
    "fleet.allocate_s": "s",
    "fleet.node_run_s": "s",
    "fleet.violation_ticks": "count",
    "bench.untraced_s": "s",
    "bench.traced_s": "s",
    "bench.tracing_overhead_frac": "ratio",
    "bench.spans": "count",
}

#: Service latency limits, timed from each request's due time.
MISS_LIMIT_S = 1.0
HIT_LIMIT_MS = 50.0


@dataclass
class Outcome:
    """What one run measured: metric values, printable report lines,
    and the attempted/failed operation counts."""

    metrics: dict[str, float] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def note(self, name: str, value: float, unit: str, n: int | None = None,
             base: str | None = None) -> None:
        """Add one human-readable report line."""
        extra = []
        if n is not None:
            extra.append(f"n={n}")
        if base:
            extra.append(base)
        suffix = f"  ({', '.join(extra)})" if extra else ""
        self.lines.append(f"  {name:<36} {value:>14.6g} {unit}{suffix}")

    def check(self, ok: bool, what: str) -> None:
        """Record one correctness check; a failed one fails an operation."""
        if not ok:
            self.failed += 1
            self.lines.append(f"  CHECK FAILED: {what}")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def lower_decile(values: list[float]) -> float:
    """The 10th percentile (nearest rank) of repeated timings of one
    operation.

    A shared host only ever adds time: it runs the same work at its full
    speed part of the time and up to 2x slower the rest, in periods of
    seconds to many minutes.  The median of short timings flips with the
    share of the run spent slow, and long timings average that share in.
    The lower decile of many short timings reads the fastest state the
    run saw, and any change to the program's own cost moves it.
    """
    return percentile(values, 10)


def phase_sum(phases: list[list[float]]) -> float:
    """Sum over an operation's phases of each phase's lower decile.

    ``phases[k]`` holds phase ``k``'s timings, one per repetition of the
    operation.  Splitting a long operation into phases gives short
    timings, so :func:`lower_decile` can pick the fast state of each.
    """
    return sum(lower_decile(samples) for samples in phases)


class Workspace:
    """Per-run scratch tree inside the checkout, removed on close.

    Every cache, run directory and temp file of the program lands here,
    so a developer's warm ``~/.cache/greengpu`` can never serve a cold
    workload and nothing is written outside the checkout.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.src = os.path.join(root, "src")
        base = os.path.join(root, ".perfbench")
        os.makedirs(base, exist_ok=True)
        self.out = base
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=base)
        self._seq = 0
        tempfile.tempdir = self.tmp
        os.environ["TMPDIR"] = self.tmp
        os.environ["GREENGPU_CACHE_DIR"] = self.fresh_dir("cache")

    def fresh_dir(self, name: str) -> str:
        self._seq += 1
        path = os.path.join(self.tmp, f"{name}-{self._seq}")
        os.makedirs(path)
        return path

    def child_env(self, cache_dir: str | None = None) -> dict[str, str]:
        """Environment of a program subprocess: this checkout's sources,
        a private cache and temp dir."""
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src
        env["GREENGPU_CACHE_DIR"] = cache_dir or self.fresh_dir("cache")
        env["TMPDIR"] = self.tmp
        env.pop("GREENGPU_TRACEPARENT", None)
        return env

    def close(self) -> None:
        tempfile.tempdir = None
        shutil.rmtree(self.tmp, ignore_errors=True)


_IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "for name in sys.argv[1:]:\n"
    "    __import__(name)\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t0)\n"
)


def fresh_import_s(ws: Workspace, modules: list[str],
                   repeats: int = 5) -> tuple[float, float]:
    """Median ``(numpy import, total import)`` wall seconds of ``modules``
    in a fresh interpreter, over ``repeats`` interpreters."""
    numpy_s, total_s = [], []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, *modules],
            env=ws.child_env(), capture_output=True, text=True, timeout=60,
            check=True,
        ).stdout.split()
        numpy_s.append(float(out[0]))
        total_s.append(float(out[1]))
    return median(numpy_s), median(total_s)


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


def pin_to_one_cpu() -> None:
    """Pin this process, and the children it starts, to one CPU.

    For single-threaded workloads only: it removes migrations between the
    host's CPUs from the measurement.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak RSS among waited-for children."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak RSS (VmHWM) of a live process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
