"""The acceptance criteria of the escalation pipeline, as fast tier-1 tests:
paths that genuinely fail at plain double are recovered by the wider rung,
escalation economises the precision-sensitive work relative to the
*measured* widest-only baseline, and warm restarts strictly beat cold
re-tracking on the escalated rung."""

from __future__ import annotations

import pytest

from repro.bench import run_escalation_bench
from repro.bench.batch_tracking import cyclic_quadratic_system
from repro.multiprec import DOUBLE, DOUBLE_DOUBLE
from repro.tracking import EscalationPolicy, TrackerOptions, solve_system


class TestEscalationBench:
    @pytest.fixture(scope="class")
    def summary(self):
        return run_escalation_bench(dimension=4, ladder=(DOUBLE, DOUBLE_DOUBLE),
                                    end_tolerance=5e-17)

    def test_some_paths_escalate_and_all_converge(self, summary):
        assert summary.paths_total == 16
        assert summary.recovered_by_escalation >= 1
        assert summary.paths_converged == summary.paths_total

    def test_rungs_report_shrinking_residue(self, summary):
        assert [row.context for row in summary.rows] == ["d", "dd"]
        d_row, dd_row = summary.rows
        assert d_row.paths_attempted == 16
        assert dd_row.paths_attempted == 16 - d_row.paths_converged
        assert dd_row.recovered == dd_row.paths_converged

    def test_rungs_count_what_the_solver_reports(self, summary):
        # The bench walks the solver's ladder: on its own system and ladder
        # every per-rung count is the SolveReport's.
        report = solve_system(
            cyclic_quadratic_system(4),
            options=TrackerOptions(end_tolerance=5e-17, end_iterations=12),
            escalation=EscalationPolicy(ladder=(DOUBLE, DOUBLE_DOUBLE)))
        assert [row.context for row in summary.rows] == report.contexts_used
        for level, row in enumerate(summary.rows):
            name = row.context
            assert (row.paths_attempted, row.paths_converged, row.resumed,
                    row.restarted) == \
                (report.paths_by_context[name],
                 report.converged_by_context[name],
                 report.resumed_by_context[name],
                 report.restarted_by_context[name])
            assert row.recovered == \
                (report.converged_by_context[name] if level else 0)
        assert summary.recovered_by_escalation == \
            report.recovered_by_escalation
        assert summary.paths_converged == report.paths_converged

    def test_arithmetic_saving_over_all_widest(self, summary):
        # Paths converged at d never pay the ~8x double-double factor.
        assert summary.arithmetic_saving_factor > 1.1
        # The launch-overhead-dominated totals stay comparable (quality-up:
        # once batched, the wide arithmetic is nearly wall-clock free).
        assert 0.4 < summary.saving_factor < 1.5

    def test_rows_price_with_the_rungs_overhead(self, summary):
        d_row, dd_row = summary.rows
        assert d_row.overhead_factor == 1.0
        assert dd_row.overhead_factor == 8.0
        # Arithmetic seconds per lane evaluation are ~8x dearer at dd.
        d_cost = d_row.arithmetic_seconds / d_row.lane_evaluations
        dd_cost = dd_row.arithmetic_seconds / dd_row.lane_evaluations
        assert dd_cost / d_cost == pytest.approx(8.0, rel=0.5)

    def test_widest_only_baseline_is_measured(self, summary):
        # The baseline is an actual dd run over every path: it converges the
        # full workload, took real wall-clock, and its evaluation log is its
        # own (not the d profile re-priced).
        assert summary.widest_only_converged == summary.paths_total
        assert summary.widest_only_wall_seconds > 0.0
        assert summary.widest_only_lane_evaluations > 0
        d_row = summary.rows[0]
        assert summary.widest_only_lane_evaluations != d_row.lane_evaluations

    def test_warm_restart_strictly_beats_cold_retracking(self, summary):
        # Same first rung, same residue: the only difference is whether the
        # dd rung resumes from checkpoints or replays from t = 0.
        assert summary.escalated_device_seconds < summary.cold_device_seconds
        assert summary.escalated_lane_evaluations < summary.cold_lane_evaluations
        assert summary.escalated_arithmetic_seconds < summary.cold_arithmetic_seconds
        assert summary.warm_restart_saving_factor > 1.0

    def test_warm_rung_resumes_at_the_endgame(self, summary):
        dd_row = summary.rows[1]
        assert dd_row.resumed == dd_row.paths_attempted
        assert dd_row.restarted == 0
        assert dd_row.mean_resume_t == pytest.approx(1.0)
        # Endgame-only replay: an order of magnitude fewer lane evaluations
        # than the d rung spent tracking the same failed paths to t = 1.
        assert dd_row.lane_evaluations * 10 < summary.rows[0].lane_evaluations

    def test_as_dict_carries_the_comparison_entries(self, summary):
        payload = summary.as_dict()
        assert payload["widest_only"]["measured"] is True
        warm_cold = payload["warm_vs_cold"]
        assert warm_cold["warm_device_s"] < warm_cold["cold_device_s"]
        assert warm_cold["warm_lane_evals"] < warm_cold["cold_lane_evals"]
        assert warm_cold["warm_restart_saving_factor"] > 1.0
