"""GreenGPU reproduction benchmark: four user-path workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload policy_grid --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
prints the per-layer ledger of a traced run.  Report lines come first;
the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

#: ``policy_grid`` is not in BENCHMARK.json: four workloads left runs too
#: short to ride out the host's slow periods (see README.md), and the
#: other three still reach every layer.  It stays runnable by hand.
WORKLOADS = ("reproduce", "policy_grid", "service_open", "fleet_diurnal")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no program sources under {src}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import importlib

    from inputs import make_inputs
    from measure import END_TO_END, PER_LAYER, Workspace

    import repro
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"error: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2

    module = importlib.import_module({
        "reproduce": "wl_reproduce",
        "policy_grid": "wl_grid",
        "service_open": "wl_service",
        "fleet_diurnal": "wl_fleet",
    }[args.workload])
    inputs = make_inputs(args.workload, args.seed, args.seconds)
    ws = Workspace(root)
    t0 = time.perf_counter()
    try:
        outcome = module.run(inputs, args.seconds, bool(args.trace), ws)
    finally:
        ws.close()
    wall = time.perf_counter() - t0

    table = PER_LAYER if args.trace else END_TO_END
    if set(outcome.metrics) != set(table):
        raise RuntimeError(f"metric set mismatch: "
                           f"{sorted(set(outcome.metrics) ^ set(table))}")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  wall {wall:.1f} s")
    for line in outcome.lines:
        print(line)
    print(f"  failed_frac {outcome.failed / max(outcome.attempted, 1):.4f} "
          f"({outcome.failed} of {outcome.attempted} operations)")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(outcome.metrics[name]),
                           "unit": unit}
                    for name, unit in table.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
