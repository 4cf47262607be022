"""``policy_grid``: a sensitivity campaign through one in-process
``BatchExecutor.run_many`` over a cold cache.

Lanes are all nine Table II workloads x four seeded GreenGPU config
draws (``phi``, ``beta``, ``alpha_core``) at time scale 0.05; one seeded
lane per workload carries a light fault plan and falls back to the scalar
engine.  The batch engine and the per-lane control tier do the work, and
the cache is write-only (every lane misses, then stores).  The grid is
sized to about a second so that a run times it often enough for a lower
decile.  The secondary operation is one lone run per workload at the
paper's defaults through ``run_many`` (the scalar singleton path), each
timed on its own, so a batch-only gain that slows single runs shows.

Correctness: a seeded sample of lanes is ``result_to_dict``-identical to
a scalar ``run_workload``, and every repetition gives the same results.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

from measure import (
    Outcome,
    Workspace,
    fresh_import_s,
    lower_decile,
    median,
    phase_sum,
    pin_to_one_cpu,
    self_peak_rss_mb,
    timed,
)

MODULES = ["repro.runtime.batch_executor", "repro.core.policies",
           "repro.experiments.common", "repro.faults.injector",
           "repro.cache"]


def build_requests(inputs: dict, lanes: list[dict]) -> list:
    from repro.core.policies import GreenGpuPolicy
    from repro.experiments.common import (
        scaled_config,
        scaled_options,
        scaled_workload,
    )
    from repro.faults.injector import fault_profile
    from repro.runtime.batch_executor import RunRequest

    scale = inputs["time_scale"]
    requests = []
    for lane in lanes:
        policy = GreenGpuPolicy(config=scaled_config(scale, **lane["config"]))
        if lane["fault_seed"] is not None:
            policy = policy.with_faults(
                fault_profile("light", seed=lane["fault_seed"]))
        requests.append(RunRequest(
            workload=scaled_workload(lane["workload"], scale),
            policy=policy, n_iterations=inputs["iterations"],
            options=scaled_options(scale)))
    return requests


def run(inputs: dict, seconds: float, trace: bool, ws: Workspace) -> Outcome:
    from repro.cache import ResultCache
    from repro.runtime.batch_executor import BatchExecutor

    out = Outcome()
    pin_to_one_cpu()
    numpy_s, import_s = fresh_import_s(ws, MODULES)
    build_s = median([timed(build_requests, inputs, inputs["lanes"])[0]
                      for _ in range(5)])
    n_lanes = len(inputs["lanes"])
    n_lone = len(inputs["lone"])

    def grid(requests: list) -> list:
        executor = BatchExecutor(cache=ResultCache(ws.fresh_dir("cache")))
        return executor.run_many(requests)

    def lone_lanes(requests: list) -> tuple[list[float], list]:
        """The lone runs, each timed on its own, over a cold cache."""
        executor = BatchExecutor(cache=ResultCache(ws.fresh_dir("cache")))
        walls, results = [], []
        for request in requests:
            wall, result = timed(executor.run_many, [request])
            walls.append(wall)
            results.append(result[0])
        return walls, results

    runs = []
    if trace:
        from tracer import traced_run

        def op() -> tuple[list, list]:
            return (grid(build_requests(inputs, inputs["lanes"])),
                    lone_lanes(build_requests(inputs,
                                                    inputs["lone"]))[1])

        metrics, untraced, traced = traced_run(
            out, op, "bench.op", os.path.join(ws.out, "spans-policy_grid.npz"),
            {"cli.import_s": import_s, "cli.import_numpy_s": numpy_s})
        runs = [_summary(inputs, grid_results, lone_results, first)
                for first, (grid_results, lone_results)
                in ((True, untraced), (False, traced))]
    else:
        grid_s, lone_walls = [], []
        lone_s: list[list[float]] = [[] for _ in range(n_lone)]
        t_end = time.perf_counter() + seconds
        while True:
            requests = build_requests(inputs, inputs["lanes"])
            lone = build_requests(inputs, inputs["lone"])
            wall, results = timed(grid, requests)
            split, lone_results = lone_lanes(lone)
            wall_lone = sum(split)
            grid_s.append(wall)
            lone_walls.append(wall_lone)
            for samples, value in zip(lone_s, split):
                samples.append(value)
            runs.append(_summary(inputs, results, lone_results, not runs))
            del results, lone_results
            if time.perf_counter() + wall + wall_lone > t_end:
                break
        metrics = {
            "setup_s": import_s + build_s,
            "peak_rss_mb": self_peak_rss_mb(),
            "primary_s": lower_decile(grid_s),
            "secondary_ms": 1000.0 * phase_sum(lone_s),
        }
        faulted = sum(lane["fault_seed"] is not None
                      for lane in inputs["lanes"])
        out.note("setup_s", metrics["setup_s"], "s", 5,
                 f"import {import_s:.3f} s + request build {build_s:.4f} s")
        out.note("grid_lanes_per_s", n_lanes / metrics["primary_s"],
                 "lanes/s", len(grid_s), f"{n_lanes} lanes, {faulted} faulted")
        out.note("grid_s", metrics["primary_s"], "s", len(grid_s),
                 "lower decile")
        out.note("grid_p50_s", median(grid_s), "s", len(grid_s))
        out.note("lone_runs_s", metrics["secondary_ms"] / 1000.0, "s",
                 len(lone_walls), f"{n_lone} singleton runs at the paper's "
                 "defaults, sum of each run's lower decile")
        out.note("lone_runs_p50_s", median(lone_walls), "s", len(lone_walls),
                 "whole passes")
        out.note("peak_rss_mb", metrics["peak_rss_mb"], "MB",
                 base="this process")
    _check(out, inputs, runs)
    out.metrics = metrics
    return out


def _summary(inputs: dict, results: list, lone_results: list,
             first: bool) -> dict:
    """Outside the timed window: what the checks compare of one
    repetition.  Digests instead of results keep peak memory from growing
    with the number of repetitions; only the first repetition keeps the
    sampled lanes whole, for the comparison with the scalar engine."""
    from repro.analysis.serialize import result_to_dict

    def digest(data) -> str:
        if not isinstance(data, dict):
            data = result_to_dict(data)
        return hashlib.sha256(json.dumps(data, sort_keys=True)
                              .encode()).hexdigest()

    checked = {i: result_to_dict(results[i]) for i in inputs["check_lanes"]}
    return {"lanes": len(results),
            "grid": {i: digest(r) for i, r in checked.items()},
            "lone": [digest(r) for r in lone_results],
            "checked": checked if first else None}


def _check(out: Outcome, inputs: dict, runs: list) -> None:
    """Outside the timed window: compare against scalar and across runs."""
    from repro.analysis.serialize import result_to_dict
    from repro.runtime.executor import run_workload

    requests = build_requests(inputs, inputs["lanes"])
    first = runs[0]
    for run in runs:
        out.attempted += run["lanes"] + len(run["lone"])
        out.check(run["grid"] == first["grid"],
                  "grid results differ between repetitions")
        out.check(run["lone"] == first["lone"],
                  "lone-run results differ between repetitions")
    first_dicts = first["checked"]
    for i in inputs["check_lanes"]:
        out.attempted += 1
        request = requests[i]
        scalar = run_workload(request.workload, request.policy,
                              request.n_iterations, options=request.options)
        out.check(result_to_dict(scalar) == first_dicts[i],
                  f"lane {i} ({inputs['lanes'][i]['workload']}) differs "
                  "from scalar run_workload")
