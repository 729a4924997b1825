"""Acceptance tests for the start-strategy and family-serving bench.

The fast tier re-runs the sweep on the two cheapest diagonal scenarios and
one small family batch, asserting the answer-preservation verdicts and the
triangular path saving live; the checked-in ``BENCH_start.json`` must
record the gated acceptance numbers (also enforced by
``tools/check_bench.py`` under ``make test-all``).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench import run_family_serving_bench, run_start_strategy_bench
from repro.bench.scenarios import get_scenario

REPORT = Path(__file__).resolve().parents[2] / "BENCH_start.json"


class TestLiveSweep:
    def test_strategies_agree_and_triangular_saves_paths(self):
        matrix = run_start_strategy_bench(
            scenarios=[get_scenario("random-sparse-3"),
                       get_scenario("triangular-3")])
        assert all(entry["identical"] for entry in matrix.values())
        sparse = matrix["random-sparse-3"]
        assert sparse["diagonal_paths"] == sparse["bezout_number"]
        triangular = matrix["triangular-3"]
        assert triangular["diagonal_paths"] == 4
        assert triangular["bezout_number"] == 12
        assert triangular["path_saving_factor"] == 3.0
        assert triangular["solutions"] == triangular["known_root_count"]

    def test_family_serving_beats_cold_and_preserves_roots(self):
        family = run_family_serving_bench(queries=2)
        assert family["identical"]
        assert family["cold_solves"] == 1
        assert family["warm_serves"] == 2
        # No live timing ratio: the >= 2x warm-vs-cold gate is asserted on
        # the checked-in report (below and in tools/check_bench.py).


class TestCheckedInReport:
    def test_checked_in_report_records_the_gated_numbers(self):
        report = json.loads(REPORT.read_text(encoding="utf-8"))
        family = report["family_serving"]
        assert family["warm_vs_cold_speedup"] >= 2.0
        assert family["identical"] is True
        scenarios = report["scenarios"]
        assert all(entry["identical"] is True
                   for entry in scenarios.values())
        assert all(entry["diagonal_paths"] <= entry["bezout_number"]
                   for entry in scenarios.values())
        assert any(entry["diagonal_paths"] < entry["bezout_number"]
                   for entry in scenarios.values())
