"""Tests of the benchmark itself: seeded inputs, metric tables, tracer.

Run with ``python3 -m pytest -q perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from inputs import make_inputs  # noqa: E402
from measure import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    lower_decile,
    percentile,
    phase_sum,
)
from run import WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _dump(data: dict) -> str:
    return json.dumps(data, sort_keys=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    assert _dump(make_inputs(workload, 7, 20)) == \
        _dump(make_inputs(workload, 7, 20))


@pytest.mark.parametrize("workload",
                         ["policy_grid", "service_open", "fleet_diurnal"])
def test_seed_changes_inputs(workload):
    assert _dump(make_inputs(workload, 1, 20)) != \
        _dump(make_inputs(workload, 2, 20))


def test_grid_faults_a_quarter_of_the_lanes():
    lanes = make_inputs("policy_grid", 3, 20)["lanes"]
    assert len(lanes) == 36
    assert sum(lane["fault_seed"] is not None for lane in lanes) == 9


def test_service_misses_are_unique_and_hits_repeat_warm_keys():
    inputs = make_inputs("service_open", 5, 20)
    warm = {_dump(job) for job in inputs["warm"]}
    misses = [_dump(a["job"]) for a in inputs["arrivals"]
              if a["kind"] == "miss"]
    hits = [_dump(a["job"]) for a in inputs["arrivals"] if a["kind"] == "hit"]
    assert misses and hits
    assert len(set(misses)) == len(misses)
    assert not set(misses) & warm
    assert set(hits) <= warm
    due = [a["due_s"] for a in inputs["arrivals"]]
    assert due == sorted(due) and due[-1] < 20


@pytest.mark.parametrize("table", [END_TO_END, PER_LAYER])
def test_every_metric_has_a_valid_name_and_a_unit(table):
    for name, unit in table.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)


def test_benchmark_json_matches_the_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    # policy_grid runs by hand but is not gated (see README.md).
    assert [w["name"] for w in spec["workloads"]] == \
        [w for w in WORKLOADS if w != "policy_grid"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert max(spec["end_to_end"], key=lambda m: m["bound"])["name"] \
        == "setup_s"


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([3.0], 90) == 3.0


def test_phase_sum_adds_each_phases_lower_decile():
    assert lower_decile([4.0, 1.0, 3.0, 2.0]) == 1.0
    assert lower_decile(list(range(1, 101))) == 10
    # A slow repetition lands in a different phase each time; each
    # phase's lower decile still reads the fast state.
    phases = [[1.0, 1.0, 1.0, 1.5], [2.0, 3.0, 2.0, 2.0], [0.5, 0.5, 0.9, 0.5]]
    assert phase_sum(phases) == 3.5


class _Box:
    def outer(self):
        time.sleep(0.02)
        self.inner()
        return "done"

    def inner(self):
        time.sleep(0.03)


def test_tracer_self_time_and_uninstall():
    original_outer = _Box.__dict__["outer"]
    tracer = Tracer()
    tracer.patch_method(_Box, "outer", "a.outer")
    tracer.patch_method(_Box, "inner", "b.inner")
    try:
        with tracer.span("bench.op"):
            assert _Box().outer() == "done"
    finally:
        tracer.uninstall()
    assert _Box.__dict__["outer"] is original_outer
    per = tracer.per_name()
    calls, total, own = per["a.outer"]
    assert calls == 1
    assert own == pytest.approx(total - per["b.inner"][1])
    assert 0.015 < own < total
    assert per["bench.op"][2] < 0.01
