"""Compiled-evaluation-plan benchmark: plan vs walk, per rung and end to end.

The evaluation plans (see ``repro.core.evalplan``) compile the polynomial
system pair into a static schedule -- shared power tables, deduplicated
Speelpenning supports, a fused sparse homotopy blend -- executed per batch.
This benchmark reports

* multiprecision operation counts per batched homotopy evaluation, walk vs
  plan, on the 16-path escalation workload (computed from the compiled
  schedule; the acceptance floor is a >= 1.5x multiplication reduction);
* wall-clock ``evaluate_batch`` throughput, plan vs walk, at d/dd/qd across
  batch sizes (both paths are bit-for-bit identical, so the ratio is pure
  schedule cost);
* end-to-end qd ``BatchTracker`` wall seconds with the homotopy on the plan
  tape and on the walk (``BatchHomotopy.use_plan``);
* steady-state numpy allocations per batched evaluation, walk vs tape;
* per registry scenario, the plan's multiplication saving and whether the
  tape reproduces the walk bit for bit.

Run as a script (``python benchmarks/bench_eval_plan.py [--json PATH]``) or
through pytest (``pytest benchmarks/bench_eval_plan.py -s``).
"""

from __future__ import annotations

import argparse
import json

from repro.bench.eval_plan import (
    eval_plan_report,
    op_count_report,
    run_allocation_bench,
    run_eval_plan_bench,
    run_plan_tracker_bench,
    run_scenario_eval_plan_bench,
)
from repro.bench.reporting import format_table

EVAL_BATCHES = (16, 64)


def sweep(eval_batches=EVAL_BATCHES):
    op_counts = op_count_report()
    eval_rows = run_eval_plan_bench(batch_sizes=eval_batches)
    tracker_rows = run_plan_tracker_bench()
    allocations = run_allocation_bench()
    return op_counts, eval_rows, tracker_rows, allocations


def test_plan_multiplication_reduction():
    """The compiled plan must keep its >= 1.5x multiplication reduction."""
    report = op_count_report()
    assert report["multiplication_saving_factor"] >= 1.5


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the report as JSON to PATH")
    json_path = parser.parse_args().json

    op_counts, eval_rows, tracker_rows, allocations = sweep()
    print("op counts per batched homotopy evaluation (escalation workload):")
    print(f"  walk: {op_counts['walk']}")
    print(f"  plan: {op_counts['plan']}")
    print(f"  -> {op_counts['multiplication_saving_factor']:.2f}x fewer "
          f"multiplications")
    print(format_table([r.as_dict() for r in eval_rows],
                       title="plan vs walk evaluate_batch throughput"))
    print(format_table([r.as_dict() for r in tracker_rows],
                       title="qd BatchTracker wall, plan vs walk (dim 3)"))
    print("allocations per batched evaluation: " +
          ", ".join(f"{mode}={count:.0f}"
                    for mode, count in allocations.items()))
    report = eval_plan_report(op_counts, eval_rows, tracker_rows,
                              allocations)
    # The registry matrix: per-scenario plan savings plus bit-for-bit
    # identity of the tape and the walk on every shape.
    report["scenarios"] = run_scenario_eval_plan_bench()
    print(format_table(
        [{"scenario": name,
          "mul_save": e["multiplication_saving_factor"],
          "plan=walk": e["plan_walk_identical"]}
         for name, e in report["scenarios"].items()],
        title="scenario matrix (dd, plan differential)"))
    if "qd_tracker_wall_speedup" in report:
        print(f"-> qd tracker wall speedup with plans: "
              f"{report['qd_tracker_wall_speedup']:.2f}x")
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"wrote {json_path}")
