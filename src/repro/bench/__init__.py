"""Benchmark support: workload definitions, the measurement harness and
plain-text reporting used by the scripts under ``benchmarks/`` and by the
examples that reproduce the paper's tables."""

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "BatchTrackingRow": "batch_tracking",
    "EVALUATIONS_PER_RUN": "workloads",
    "FAMILIES": "scenarios",
    "PaperRow": "workloads",
    "QDArithRow": "qd_arith",
    "QDTrackerRow": "qd_arith",
    "SCENARIOS": "scenarios",
    "Scenario": "scenarios",
    "ScenarioFamily": "scenarios",
    "bench_scenarios": "scenarios",
    "cyclic_quadratic_system": "batch_tracking",
    "get_scenario": "scenarios",
    "iter_scenarios": "scenarios",
    "matrix_scenarios": "scenarios",
    "qd_arith_report": "qd_arith",
    "run_batch_tracking_bench": "batch_tracking",
    "run_qd_arith_bench": "qd_arith",
    "run_qd_tracker_bench": "qd_arith",
    "run_scenario_batch_tracking_bench": "batch_tracking",
    "run_scenario_escalation_bench": "escalation",
    "run_scenario_eval_plan_bench": "eval_plan",
    "run_family_serving_bench": "start_strategies",
    "run_robustness_bench": "shard",
    "run_scenario_shard_bench": "shard",
    "scenario_names": "scenarios",
    "tier1_scenarios": "scenarios",
    "EscalationRow": "escalation",
    "EscalationSummary": "escalation",
    "run_escalation_bench": "escalation",
    "RowResult": "harness",
    "ShardRow": "shard",
    "ShardSummary": "shard",
    "run_shard_bench": "shard",
    "run_start_strategy_bench": "start_strategies",
    "TABLE1_ROWS": "workloads",
    "TABLE1_WORKLOADS": "workloads",
    "TABLE2_ROWS": "workloads",
    "TABLE2_WORKLOADS": "workloads",
    "Workload": "workloads",
    "format_breakdown": "reporting",
    "format_paper_rows": "reporting",
    "format_table": "reporting",
    "run_table": "harness",
    "run_workload": "harness",
    "speedup_curve": "harness",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
