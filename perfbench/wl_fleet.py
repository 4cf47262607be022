"""``fleet_diurnal``: ``run_fleet(make_scenario("diurnal", n_nodes, seed,
budget_frac=0.35), "efficiency-weighted")`` in-process.

The only workload that reaches the ``fleet`` layer (coordinator,
allocators, cap ceilings), and the only one stepping the scalar engine on
caller-built systems (``scalar:fleet-custom-system``).  Planning is a few
percent of the run, so the secondary operation times the coordinator's
plan alone: node-stepping gains and planning gains show apart.

Correctness: zero cap-violation ticks, per-tick caps that sum to no more
than the budget, and the same fleet energy on every repetition.
"""

from __future__ import annotations

import os
import time

from measure import (
    Outcome,
    Workspace,
    fresh_import_s,
    lower_decile,
    median,
    pin_to_one_cpu,
    self_peak_rss_mb,
    timed,
)

MODULES = ["repro.fleet.sim", "repro.fleet.scenario"]
#: Plans timed (each on its own) per fleet run.
PLANS_PER_RUN = 10
BUDGET_EPS_W = 1e-6


def build(inputs: dict):
    """The scenario and a ready-to-run fleet simulation of it."""
    from repro.fleet.scenario import make_scenario
    from repro.fleet.sim import FleetSim

    scenario = make_scenario(inputs["scenario"], inputs["n_nodes"],
                             inputs["seed"],
                             budget_frac=inputs["budget_frac"])
    return scenario, FleetSim(scenario, inputs["allocator"])


def run(inputs: dict, seconds: float, trace: bool, ws: Workspace) -> Outcome:
    from repro.fleet.allocators import get_allocator
    from repro.fleet.coordinator import PowerCapCoordinator

    out = Outcome()
    pin_to_one_cpu()
    numpy_s, import_s = fresh_import_s(ws, MODULES)
    build_s = median([timed(build, inputs)[0] for _ in range(5)])
    n_nodes = inputs["n_nodes"]

    def fleet():
        return build(inputs)[1].run()

    def plan(scenario) -> float:
        """Seconds of one coordinator plan over a freshly built scenario."""
        coordinator = PowerCapCoordinator(scenario,
                                          get_allocator(inputs["allocator"]))
        return timed(coordinator.plan)[0]

    energies: list[float] = []

    def check(result) -> None:
        """Outside the timed window, as each repetition ends; results are
        not kept, so peak memory does not grow with the repetitions."""
        out.attempted += n_nodes
        out.check(result.violation_ticks == 0,
                  f"{result.violation_ticks} cap-violation ticks")
        # The coordinator's conservation contract allows float rounding
        # of the cap sum up to BUDGET_EPS_W (tests/properties/
        # test_prop_fleet_budget.py).
        over = [s for s in result.plan_stats
                if s["total_cap_w"] > s["budget_w"] + BUDGET_EPS_W]
        out.check(not over, f"{len(over)} ticks with caps over budget")
        energies.append(result.energy_j)
        out.check(result.energy_j == energies[0],
                  "fleet energy differs between repetitions")

    if trace:
        from tracer import traced_run

        metrics, untraced, traced = traced_run(
            out, fleet, "bench.op",
            os.path.join(ws.out, "spans-fleet_diurnal.npz"),
            {"cli.import_s": import_s, "cli.import_numpy_s": numpy_s})
        check(untraced)
        check(traced)
        metrics["fleet.violation_ticks"] = traced.violation_ticks
    else:
        fleet_s, plan_s = [], []
        t_end = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            for _ in range(PLANS_PER_RUN):
                plan_s.append(plan(build(inputs)[0]))
            wall, result = timed(fleet)
            fleet_s.append(wall)
            check(result)
            del result
            now = time.perf_counter()
            if now + (now - t0) > t_end:  # the next repetition won't fit
                break
        metrics = {
            "setup_s": import_s + build_s,
            "peak_rss_mb": self_peak_rss_mb(),
            "primary_s": lower_decile(fleet_s),
            "secondary_ms": 1000.0 * lower_decile(plan_s),
        }
        out.note("setup_s", metrics["setup_s"], "s", 5,
                 f"import {import_s:.3f} s + scenario build {build_s:.4f} s")
        out.note("fleet_nodes_per_s", n_nodes / metrics["primary_s"],
                 "nodes/s", len(fleet_s), f"{n_nodes} nodes")
        out.note("fleet_run_s", metrics["primary_s"], "s", len(fleet_s),
                 "lower decile")
        out.note("fleet_run_p50_s", median(fleet_s), "s", len(fleet_s))
        out.note("fleet_plan_s", metrics["secondary_ms"] / 1000.0, "s",
                 len(plan_s), "lower decile")
        out.note("fleet_plan_p50_s", median(plan_s), "s", len(plan_s))
        out.note("peak_rss_mb", metrics["peak_rss_mb"], "MB",
                 base="this process")

    out.metrics = metrics
    return out
