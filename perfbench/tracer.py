"""In-memory span recorder wrapped around calls into the program's layers.

The wrappers live here, in the benchmark, not in the program: ``install``
replaces public methods and functions (``HeteroSystem.step``,
``OndemandGovernor.step``, ``ResultCache.get``, ``run_workload`` ...) with
recording shims and ``uninstall`` puts the originals back.  The batch
engine calls the same ``core``/``trace`` methods per lane, so one set of
wrappers covers both engines.

A span is four flat array entries (name id, parent index, start, end),
cheap enough for the ~10^6 spans of a traced ``reproduce`` pass; the
spans are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from measure import PER_LAYER, timed


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def active(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the current stack."""
        nid = self._ids.get(name)
        return nid is not None and any(
            self.name_of[i] == nid for i in self._stack[1:])

    def wrap(self, name: str, fn, on_result=None):
        """A recording shim around ``fn``; ``on_result(args, kwargs,
        result, seconds)`` observes each successful return."""
        nid = self._name_id(name)
        name_of, parent, start, end = (self.name_of, self.parent,
                                       self.start, self.end)
        stack = self._stack
        clock = time.perf_counter

        if on_result is None:
            def traced(*args, **kwargs):
                idx = len(name_of)
                name_of.append(nid)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(idx)
                start.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    stack.pop()
        else:
            def traced(*args, **kwargs):
                idx = len(name_of)
                name_of.append(nid)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(idx)
                start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    stack.pop()
                on_result(args, kwargs, result, end[idx] - start[idx])
                return result

        return functools.wraps(fn)(traced)

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = len(self.name_of)
        self.name_of.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def patch_method(self, owner: type, attr: str, name: str,
                     on_result=None) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def patch_function(self, original, name: str, on_result=None) -> None:
        """Replace ``original`` in every loaded program module that bound
        it by name (``from x import f`` copies the reference)."""
        traced = self.wrap(name, original, on_result)
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def per_name(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, total seconds, self seconds)``."""
        n = len(self.name_of)
        if n == 0:
            return {}
        names = np.array(self.name_of, dtype=np.int64)
        parents = np.array(self.parent, dtype=np.int64)
        dur = (np.array(self.end, dtype=np.float64)
               - np.array(self.start, dtype=np.float64))
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        selft = np.bincount(names, weights=own, minlength=k)
        return {name: (int(calls[i]), float(total[i]), float(selft[i]))
                for i, name in enumerate(self.names) if calls[i]}

    def write(self, path: str) -> None:
        """Spans as ``.npz``: the name table plus one column per field."""
        np.savez(path, names=np.array(self.names),
                 name=np.array(self.name_of, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int32),
                 start=np.array(self.start, dtype=np.float64),
                 end=np.array(self.end, dtype=np.float64))


class Ledger:
    """Counts the wrappers observe in return values: engine tags, batch
    widths, simulated seconds, cache hits and per-artifact wall time."""

    def __init__(self) -> None:
        self.engines: Counter = Counter()
        self.batch_widths: list[int] = []
        self.sim_s = 0.0
        self.cache_hits = 0
        self.artifact_s: Counter = Counter()


def install(tracer: Tracer, ledger: Ledger) -> None:
    """Wrap the public calls into each program layer."""
    from repro.cache.store import ResultCache
    from repro.core.division import WorkloadDivider
    from repro.core.ondemand import OndemandGovernor
    from repro.core.wma import WmaFrequencyScaler
    from repro.fleet import allocators
    from repro.fleet.coordinator import PowerCapCoordinator
    from repro.fleet.node import FleetNode
    from repro.harness import suite_jobs, supervisor
    from repro.harness.journal import Journal
    from repro.monitors.cpustat import CpuStat
    from repro.monitors.nvsmi import NvidiaSmi
    from repro.runtime import batch_executor, executor
    from repro.sim import batch
    from repro.sim.engine import SimClock
    from repro.sim.platform import HeteroSystem
    from repro.sim.trace import TraceRecorder

    def on_run_workload(args, kwargs, result, seconds):
        if not tracer.active("runtime.run_many"):
            ledger.engines[result.engine] += 1
        if result.engine != "cache":
            ledger.sim_s += result.total_s

    def on_run_many(args, kwargs, results, seconds):
        ledger.engines.update(r.engine for r in results)

    def on_run_batch(args, kwargs, results, seconds):
        ledger.batch_widths.append(len(results))
        ledger.sim_s += sum(r.total_s for r in results)

    def on_node_run(args, kwargs, result, seconds):
        ledger.engines[batch_executor.FLEET_SCALAR_REASON] += 1
        ledger.sim_s += result.busy_end_s

    def on_cache_get(args, kwargs, payload, seconds):
        ledger.cache_hits += payload is not None

    def on_artifact(args, kwargs, result, seconds):
        ledger.artifact_s[kwargs.get("name", args[0] if args else "")] += \
            seconds

    tracer.patch_function(supervisor.run_jobs, "harness.run_jobs")
    tracer.patch_method(Journal, "record", "harness.journal_record")
    tracer.patch_function(suite_jobs.run_artifact_module,
                          "experiments.artifact", on_artifact)
    tracer.patch_function(executor.run_workload, "runtime.run_workload",
                          on_run_workload)
    tracer.patch_method(batch_executor.BatchExecutor, "run_many",
                        "runtime.run_many", on_run_many)
    tracer.patch_method(HeteroSystem, "step", "sim.step")
    tracer.patch_method(SimClock, "advance_to", "sim.clock_advance")
    tracer.patch_function(batch.run_batch, "sim.run_batch", on_run_batch)
    tracer.patch_method(TraceRecorder, "record", "sim.trace_record")
    tracer.patch_method(TraceRecorder, "record_many", "sim.trace_record_many")
    tracer.patch_method(OndemandGovernor, "step", "core.ondemand")
    tracer.patch_method(WmaFrequencyScaler, "step", "core.wma")
    tracer.patch_method(WorkloadDivider, "update", "core.division")
    tracer.patch_method(NvidiaSmi, "query", "monitors.nvsmi_query")
    tracer.patch_method(CpuStat, "query", "monitors.cpustat_query")
    tracer.patch_method(ResultCache, "get", "cache.get", on_cache_get)
    tracer.patch_method(ResultCache, "put", "cache.put")
    tracer.patch_method(PowerCapCoordinator, "plan", "fleet.plan")
    for cls in (allocators.UniformCapAllocator,
                allocators.ProportionalShareAllocator,
                allocators.EfficiencyWeightedAllocator):
        tracer.patch_method(cls, "allocate", "fleet.allocate")
    tracer.patch_method(FleetNode, "run", "fleet.node_run", on_node_run)


def layer_metrics(per_name: dict[str, tuple[int, float, float]],
                  ledger: Ledger, host_s: float) -> dict[str, float]:
    """The span-derived per-layer metrics (see ``measure.PER_LAYER``)."""
    from repro.runtime.batch_executor import FLEET_SCALAR_REASON

    def calls(*names: str) -> int:
        return sum(per_name.get(n, (0, 0.0, 0.0))[0] for n in names)

    def self_s(*names: str) -> float:
        return sum(per_name.get(n, (0, 0.0, 0.0))[2] for n in names)

    engines = ledger.engines
    known = ("batch", "cache", "scalar", "scalar:faults", "scalar:singleton",
             FLEET_SCALAR_REASON)
    fallbacks = sum(v for k, v in engines.items() if k.startswith("scalar:"))
    dispatched = sum(engines.values())
    gets = calls("cache.get")
    out = {
        "harness.supervisor_self_s": self_s("harness.run_jobs"),
        "harness.journal_records": calls("harness.journal_record"),
        "harness.journal_record_s": self_s("harness.journal_record"),
        "runtime.run_workload_calls": calls("runtime.run_workload"),
        "runtime.run_workload_s": self_s("runtime.run_workload"),
        "runtime.run_many_s": self_s("runtime.run_many"),
        "runtime.engine.batch": engines["batch"],
        "runtime.engine.cache": engines["cache"],
        "runtime.engine.scalar": engines["scalar"],
        "runtime.engine.scalar.faults": engines["scalar:faults"],
        "runtime.engine.scalar.singleton": engines["scalar:singleton"],
        "runtime.engine.scalar.fleet-custom-system": engines[FLEET_SCALAR_REASON],
        "runtime.engine.scalar.other": sum(
            v for k, v in engines.items() if k not in known),
        "runtime.scalar_fallback_frac": (fallbacks / dispatched
                                         if dispatched else 0.0),
        "sim.step_calls": calls("sim.step"),
        "sim.step_s": self_s("sim.step"),
        "sim.clock_advance_s": self_s("sim.clock_advance"),
        "sim.run_batch_calls": calls("sim.run_batch"),
        "sim.run_batch_s": self_s("sim.run_batch"),
        "sim.batch_width_mean": (sum(ledger.batch_widths)
                                 / len(ledger.batch_widths)
                                 if ledger.batch_widths else 0.0),
        "sim.trace_records": calls("sim.trace_record",
                                   "sim.trace_record_many"),
        "sim.trace_record_s": self_s("sim.trace_record",
                                     "sim.trace_record_many"),
        "sim.host_s_per_sim_s": (host_s / ledger.sim_s
                                 if ledger.sim_s else 0.0),
        "core.ondemand_steps": calls("core.ondemand"),
        "core.ondemand_s": self_s("core.ondemand"),
        "core.wma_steps": calls("core.wma"),
        "core.wma_s": self_s("core.wma"),
        "core.division_updates": calls("core.division"),
        "core.division_s": self_s("core.division"),
        "monitors.queries": calls("monitors.nvsmi_query",
                                  "monitors.cpustat_query"),
        "monitors.query_s": self_s("monitors.nvsmi_query",
                                   "monitors.cpustat_query"),
        "cache.gets": gets,
        "cache.get_s": self_s("cache.get"),
        "cache.hit_ratio": ledger.cache_hits / gets if gets else 0.0,
        "cache.puts": calls("cache.put"),
        "cache.put_s": self_s("cache.put"),
        "fleet.plan_s": self_s("fleet.plan"),
        "fleet.allocate_calls": calls("fleet.allocate"),
        "fleet.allocate_s": self_s("fleet.allocate"),
        "fleet.node_run_s": self_s("fleet.node_run"),
        "bench.spans": sum(c for c, _, _ in per_name.values()),
    }
    for name, seconds in ledger.artifact_s.items():
        out[f"experiments.{name}_s"] = seconds
    return out


def layer_self_times(per_name: dict[str, tuple[int, float, float]]
                     ) -> Counter:
    """Self seconds summed per layer (the span name's first component)."""
    out: Counter = Counter()
    for name, (_, _, self_s) in per_name.items():
        out[name.split(".", 1)[0]] += self_s
    return out


def traced_run(out, op, root: str, spans_path: str,
               extra: dict[str, float]) -> tuple[dict, object, object]:
    """Run ``op`` once untraced, then once under the wrappers.

    Returns the per-layer metrics (``extra`` merged in) and both results;
    adds the ledger lines to ``out`` and writes the spans to
    ``spans_path``.
    """
    untraced_s, untraced = timed(op)
    tracer, ledger = Tracer(), Ledger()
    install(tracer, ledger)
    try:
        with tracer.span(root):
            traced = op()
    finally:
        tracer.uninstall()
    per_name = tracer.per_name()
    traced_s = per_name[root][1]
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(layer_metrics(per_name, ledger, untraced_s))
    metrics["bench.untraced_s"] = untraced_s
    metrics["bench.traced_s"] = traced_s
    metrics["bench.tracing_overhead_frac"] = traced_s / untraced_s - 1.0
    metrics.update(extra)
    tracer.write(spans_path)

    out.lines.append(f"  ledger: self time per layer of one traced op "
                     f"({traced_s:.3f} s, {metrics['bench.spans']:.0f} spans)")
    for layer, seconds in sorted(layer_self_times(per_name).items(),
                                 key=lambda item: -item[1]):
        out.lines.append(f"    {layer:<12} {seconds:10.4f} s  "
                         f"{100.0 * seconds / traced_s:5.1f}%")
    out.lines.append("  spans: name, calls, total s, self s")
    for name, (calls, total, own) in sorted(per_name.items()):
        out.lines.append(f"    {name:<28} {calls:>9} {total:10.4f} "
                         f"{own:10.4f}")
    bases = {
        "runtime.scalar_fallback_frac":
            f"of {sum(ledger.engines.values())} dispatched runs",
        "cache.hit_ratio": f"of {metrics['cache.gets']:.0f} gets",
        "sim.batch_width_mean":
            f"over {len(ledger.batch_widths)} run_batch calls",
        "sim.host_s_per_sim_s":
            f"untraced {untraced_s:.3f} host s / {ledger.sim_s:.1f} "
            "simulated s",
        "bench.tracing_overhead_frac":
            f"traced {traced_s:.3f} s vs untraced {untraced_s:.3f} s",
    }
    for name, unit in PER_LAYER.items():
        value = metrics[name]
        if name in bases:
            out.note(name, value, unit, base=bases[name])
        elif unit == "s" and value and not name.startswith("bench."):
            out.note(name, value, unit,
                     base=f"{100.0 * value / traced_s:.1f}% of traced op")
        elif value:
            out.note(name, value, unit)
    return metrics, untraced, traced
