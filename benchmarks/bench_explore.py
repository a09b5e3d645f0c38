"""Explore-loop performance: analytical triage vs. brute-force DES.

Times ``doram explore`` on the smoke grid against the counterfactual
full sweep of the same grid and records the trajectory in
``BENCH_explore.json`` (``tools/bench_trajectory.py``'s ``explore``
workload schema):

* **explore** -- anchors + calibrated triage + selective simulation;
  asserted to stay inside the DES budget (``budget_frac`` of the
  grid);
* **brute force** -- every grid point simulated, the cost explore
  avoids; the ratio is *reported*, not asserted, because it scales
  with how much of the grid the frontier band covers.

Frontier correctness (explore's surface == the brute-force Pareto
front under affine truth) is enforced by
``tests/analysis/test_explore.py``; this file only measures.
"""

import os
import sys
import time

from conftest import bench_trace_length

from repro.analysis.explore import (
    DEFAULT_BENCH_PATH,
    bench_record,
    build_grid,
    explore,
    metrics_from_payload,
    pareto_indices,
)
from repro.analysis.sweep import ResultStore, run_sweep

_TOOLS = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "tools")
)
if _TOOLS not in sys.path:
    sys.path.insert(0, _TOOLS)

import bench_trajectory  # noqa: E402  (path shim above)

TRACE_LENGTH = bench_trace_length() // 10

#: Re-measuring an identity (label+workload+config) is refused by the
#: trajectory schema, so CI must append under its own label.
LABEL = os.environ.get("DORAM_BENCH_LABEL", "bench")


def test_explore_vs_brute_force(benchmark, tmp_path):
    grid = build_grid("smoke", TRACE_LENGTH)
    store = ResultStore(str(tmp_path / "store"))

    started = time.monotonic()
    result = benchmark.pedantic(
        lambda: explore(grid, store=store, workers=1, budget_frac=0.5,
                        seed=1),
        rounds=1, iterations=1,
    )
    explore_wall = time.monotonic() - started
    assert result.simulated <= result.budget
    print(f"explore    {result.grid_points:3d} points, "
          f"{result.simulated} simulated "
          f"({result.sim_fraction:.0%}; skipped "
          f"{result.des_points_skipped_frac:.0%}) in {result.rounds} "
          f"round(s), wall={explore_wall:.2f}s")

    started = time.monotonic()
    brute = run_sweep(grid, workers=1, store=None)
    brute_wall = time.monotonic() - started
    assert not brute.failed
    front = pareto_indices([
        metrics_from_payload(brute.payloads[p]) for p in grid
    ])
    print(f"brute      {brute.total:3d} points simulated, "
          f"frontier={len(front)}, wall={brute_wall:.2f}s")
    if explore_wall > 0:
        print(f"saving     {brute_wall / explore_wall:.2f}x "
              f"(informal; tracks the skipped fraction)")

    record = bench_record(result, LABEL, "smoke", TRACE_LENGTH,
                          explore_wall)
    record["brute_wall_s"] = round(brute_wall, 3)
    bench_trajectory.append(record, path=DEFAULT_BENCH_PATH)
