"""Acceptance tests for the compiled dd/qd arithmetic bench.

Tier-1 checks only deterministic properties: the report's shape and the
checked-in ``BENCH_qd_arith.json`` (per-op rows at every batch size, taken
with the kernels loaded).  The speedup floors over those checked-in numbers
are enforced by ``tools/check_bench.py``; no test here asserts a live
timing ratio.  The slow tier re-runs the end-to-end qd tracker at batch 64
and checks the >= 2x wall-clock win over the checked-in
``BENCH_batch_tracking.json`` baseline.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.qd_arith import (
    ARITH_BATCHES,
    QDArithRow,
    QDTrackerRow,
    baseline_qd_wall_paths_per_second,
    qd_arith_report,
    run_qd_arith_bench,
    run_qd_tracker_bench,
)

REPORT = Path(__file__).resolve().parents[2] / "BENCH_qd_arith.json"


class TestLiveRows:
    def test_rows_report_consistent_units(self):
        rows = run_qd_arith_bench(batch_sizes=(8,), ops=("qd_mul", "cdd_mul"),
                                  repeats=1)
        assert [(row.op, row.batch) for row in rows] == [("qd_mul", 8),
                                                          ("cdd_mul", 8)]
        for row in rows:
            assert row.compiled_ns_per_element > 0
            assert row.reference_ns_per_element > 0


class TestReportShape:
    def test_report_includes_baseline_comparison(self, tmp_path):
        baseline = tmp_path / "BENCH_batch_tracking.json"
        baseline.write_text(
            '{"qd": {"rows": [{"paths": 8, "wall_s": 10.0}]}}',
            encoding="utf-8")
        arith = [QDArithRow(op="qd_mul", batch=64,
                            compiled_ns_per_element=1.0,
                            reference_ns_per_element=2.0)]
        tracker = [QDTrackerRow(batch_size=64, paths_tracked=64,
                                paths_converged=64, lane_evaluations=1000,
                                wall_seconds=4.0)]
        report = qd_arith_report(arith, tracker, baseline_path=str(baseline))
        assert report["per_op"][0]["speedup"] == 2.0
        assert report["baseline_qd_paths_per_s_wall"] == 0.8
        assert report["wall_speedup_vs_baseline_at_batch_64"] == 20.0
        assert isinstance(report["kernels_loaded"], bool)

    def test_missing_baseline_degrades_gracefully(self, tmp_path):
        report = qd_arith_report([], [], baseline_path=str(tmp_path / "nope.json"))
        assert "baseline_qd_paths_per_s_wall" not in report
        assert report["per_op"] == [] and report["tracker"] == []


class TestCheckedInReport:
    def test_rows_cover_every_op_at_every_batch_with_kernels(self):
        report = json.loads(REPORT.read_text(encoding="utf-8"))
        assert report["kernels_loaded"] is True
        cells = {(row["op"], row["batch"]) for row in report["per_op"]}
        ops = {op for op, _ in cells}
        assert {"qd_add", "qd_mul", "qd_div", "cqd_mul", "dd_mul"} <= ops
        assert cells == {(op, batch) for op in ops for batch in ARITH_BATCHES}


@pytest.mark.slow
def test_qd_tracker_wall_speedup_at_batch_64():
    baseline = baseline_qd_wall_paths_per_second()
    assert baseline is not None, "BENCH_batch_tracking.json qd rows missing"
    rows = run_qd_tracker_bench(batch_sizes=(64,))
    row = rows[0]
    assert row.paths_converged == row.paths_tracked
    win = row.paths_per_second / baseline
    assert win >= 2.0, f"qd wall throughput win only {win:.2f}x at batch 64"
