"""Acceptance tests for the compiled evaluation plans: the sharing wins
cannot silently regress.

The fast tier works on compile-time operation counts (deterministic, no
timing): the plan must never schedule more backend ops than the walk path,
and must win >= 1.3x multiplications on the shared-support escalation
workload (the checked-in ``BENCH_eval_plan.json`` records 1.83x).  The slow
tier measures actual ``evaluate_batch`` wall clock at the qd rung, where
each saved multiprecision op is the most expensive.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.eval_plan import (
    ArenaTrackerRow,
    EvalPlanRow,
    PlanTrackerRow,
    eval_plan_report,
    op_count_report,
    run_allocation_bench,
    run_arena_tracker_bench,
    run_eval_plan_bench,
)
from repro.core.evalplan import EvaluationPlan, HomotopyPlan
from repro.multiprec.numeric import QUAD_DOUBLE
from repro.polynomials.monomial import Monomial
from repro.polynomials.polynomial import Polynomial
from repro.polynomials.system import PolynomialSystem
from repro.tracking.start_systems import total_degree_start_system


def random_dense_system(seed: int, dimension: int = 4,
                        terms: int = 5) -> PolynomialSystem:
    rng = np.random.default_rng(seed)
    polys = []
    for _ in range(dimension):
        poly_terms = []
        for _ in range(terms):
            k = int(rng.integers(1, dimension + 1))
            positions = tuple(sorted(rng.choice(dimension, size=k,
                                                replace=False).tolist()))
            exponents = tuple(int(e) for e in rng.integers(1, 4, size=k))
            poly_terms.append((complex(rng.normal(), rng.normal()),
                               Monomial(positions, exponents)))
        polys.append(Polynomial(poly_terms))
    return PolynomialSystem(polys, dimension=dimension)


class TestPlanOpFloor:
    def test_plan_never_schedules_more_ops_than_walk(self):
        """Across varied systems the plan is at worst op-neutral."""
        for seed in range(8):
            target = random_dense_system(seed)
            plan = EvaluationPlan(target)
            assert plan.op_counts.multiplications <= plan.walk_counts.multiplications, \
                f"seed {seed}: plan schedules more multiplications than the walk"
            assert plan.op_counts.additions <= plan.walk_counts.additions
            hplan = HomotopyPlan(total_degree_start_system(target), target)
            assert hplan.op_counts.multiplications <= hplan.walk_counts.multiplications
            assert hplan.op_counts.additions <= hplan.walk_counts.additions

    def test_shared_support_workload_saves_at_least_1_3x(self):
        """The escalation workload (shared start/target monomials) must
        keep a >= 1.3x multiplication reduction."""
        report = op_count_report(dimension=4)
        assert report["multiplication_saving_factor"] >= 1.3, report

    def test_escalation_workload_meets_acceptance_floor(self):
        """The headline acceptance number: >= 1.5x fewer multiprecision
        multiplications per batched homotopy evaluation on the 16-path
        workload."""
        report = op_count_report(dimension=4)
        assert report["multiplication_saving_factor"] >= 1.5, report
        assert report["workload"]["paths"] == 16


class TestReportShape:
    def test_report_assembles_wall_speedup(self):
        op_counts = op_count_report(dimension=3)
        eval_rows = [EvalPlanRow(context="qd", batch=16,
                                 plan_evals_per_second=20.0,
                                 walk_evals_per_second=10.0)]
        tracker_rows = [
            PlanTrackerRow(context="qd", batch_size=8, use_plans=True,
                           paths_tracked=8, paths_converged=8,
                           wall_seconds=2.0),
            PlanTrackerRow(context="qd", batch_size=8, use_plans=False,
                           paths_tracked=8, paths_converged=8,
                           wall_seconds=3.0),
        ]
        report = eval_plan_report(op_counts, eval_rows, tracker_rows)
        assert report["qd_tracker_wall_speedup"] == pytest.approx(1.5)
        assert report["evaluation"][0]["speedup"] == pytest.approx(2.0)
        assert report["op_counts"]["plan"]["multiplications"] > 0

    def test_report_assembles_arena_section(self):
        op_counts = op_count_report(dimension=3)
        arena_rows = [
            ArenaTrackerRow(context="qd", batch_size=8, use_arenas=True,
                            paths_tracked=8, paths_converged=8,
                            wall_seconds=2.0, arena_hits=100,
                            executions=100),
            ArenaTrackerRow(context="qd", batch_size=8, use_arenas=False,
                            paths_tracked=8, paths_converged=8,
                            wall_seconds=3.0),
        ]
        allocations = {"walk": 1700.0, "plans": 750.0, "plans_arenas": 100.0}
        report = eval_plan_report(op_counts, [], [], arena_rows, allocations)
        arena = report["arena"]
        assert arena["qd_tracker_wall_speedup_vs_plans"] == pytest.approx(1.5)
        assert arena["allocations_per_evaluation"]["plans_arenas"] == 100.0
        assert arena["tracker"][0]["executions"] == 100


class TestCheckedInReport:
    def test_checked_in_arena_speedup_meets_acceptance_floor(self):
        """The regenerated ``BENCH_eval_plan.json`` must record the arena
        A/B acceptance number: >= 1.15x further qd tracker wall over the
        plans-on baseline, plus the allocation drop walk -> plans ->
        plans+arenas."""
        import json
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "BENCH_eval_plan.json"
        report = json.loads(path.read_text(encoding="utf-8"))
        arena = report["arena"]
        assert arena["qd_tracker_wall_speedup_vs_plans"] >= 1.15
        allocs = arena["allocations_per_evaluation"]
        assert allocs["plans_arenas"] < allocs["plans"] < allocs["walk"]


class TestAllocationDrop:
    def test_arena_path_allocates_less_than_plan_path(self):
        """Steady-state allocations per batched evaluation must drop going
        walk -> plans -> plans+arenas (the point of the arena refactor)."""
        counts = run_allocation_bench(evaluations=4)
        assert counts["plans_arenas"] < counts["plans"] < counts["walk"], counts
        # The arena path retires the bulk of the per-evaluation churn, not
        # a token amount (checked-in report records ~7x vs plans).
        assert counts["plans_arenas"] <= 0.5 * counts["plans"], counts


@pytest.mark.slow
class TestMeasuredSpeedup:
    def test_qd_evaluation_throughput_wins(self):
        """The plan path must beat the walk on qd evaluate_batch wall clock
        (the checked-in report records ~1.7x; 1.15x is the alarm floor)."""
        rows = run_eval_plan_bench(batch_sizes=(64,),
                                   contexts=(QUAD_DOUBLE,),
                                   repeats=7)
        assert rows[0].speedup >= 1.15, \
            f"qd plan evaluate_batch speedup only {rows[0].speedup:.2f}x"

    def test_qd_arena_tracker_wall_wins(self):
        """Arenas on must beat the allocating plan path end to end on the
        qd tracker.  The acceptance floor (1.15x) is asserted against the
        checked-in report (see ``TestCheckedInReport`` and
        ``tools/check_bench.py``), where the single-run measurement is not
        noise-compressed; the live re-measurement here uses a softer alarm
        floor because repeated interleaved runs warm the allocator and
        squeeze the allocating arm's disadvantage."""
        rows = run_arena_tracker_bench(repeats=3)
        on = next(r for r in rows if r.use_arenas)
        off = next(r for r in rows if not r.use_arenas)
        speedup = off.wall_seconds / on.wall_seconds
        assert speedup >= 1.05, \
            f"qd arena tracker speedup only {speedup:.2f}x"
