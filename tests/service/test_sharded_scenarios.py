"""Sharded-vs-single differential over registry scenarios.

The existing sharded suite (``test_sharded.py``) proves bit-for-bit
identity on the cyclic escalation workload; this module points the same
contract at *non-cyclic* registry families -- the katsura convolution
system (irregular shape, even path count split across shards) and noon-2,
whose paths at infinity must stay off the next rung, in tier-1, and the
rest of the tier-1 registry under ``-m scenario_matrix``.  Identity means
the full solution key: points, residuals and multiplicities, compared
exactly, plus the per-context path accounting.
"""

from __future__ import annotations

import pytest

from repro.bench.scenarios import get_scenario, tier1_scenarios
from repro.multiprec import DOUBLE, DOUBLE_DOUBLE
from repro.service import solve_system_sharded
from repro.tracking import EscalationPolicy, TrackerOptions, solve_system

ESCALATION_OPTS = TrackerOptions(end_tolerance=5e-17, end_iterations=12)
ESCALATION_POLICY = EscalationPolicy(ladder=(DOUBLE, DOUBLE_DOUBLE))


def solution_key(report):
    """The bit-for-bit identity key of a report's distinct solutions."""
    return [(tuple(s.point), s.residual, s.multiplicity)
            for s in report.solutions]


class TestShardedKatsuraScenario:
    """Tier-1: the sharded service on a non-cyclic registry scenario."""

    def test_katsura_matches_single_process_bit_for_bit(self):
        scenario = get_scenario("katsura-3")
        system = scenario.build_system()
        reference = solve_system(system, options=ESCALATION_OPTS,
                                 escalation=ESCALATION_POLICY)
        report = solve_system_sharded(system, shards=2,
                                      options=ESCALATION_OPTS,
                                      escalation=ESCALATION_POLICY)
        assert len(reference.solutions) == scenario.known_root_count
        assert solution_key(report) == solution_key(reference)
        assert report.paths_tracked == scenario.bezout_number
        assert report.paths_by_context == reference.paths_by_context
        assert report.converged_by_context == reference.converged_by_context
        assert report.worker_retries == 0


class TestShardedNoonScenario:
    """Tier-1: paths at infinity take the same route sharded and in
    process.  The sharded rung hands the ladder rebuilt portable results,
    so the at-infinity verdict must survive that trip to keep the
    divergent lanes off the dd rung."""

    def test_noon_paths_at_infinity_match_single_process(self):
        scenario = get_scenario("noon-2")
        system = scenario.build_system()
        reference = solve_system(system, options=ESCALATION_OPTS,
                                 escalation=ESCALATION_POLICY)
        report = solve_system_sharded(system, shards=2,
                                      options=ESCALATION_OPTS,
                                      escalation=ESCALATION_POLICY)
        assert len(reference.solutions) == scenario.known_root_count
        assert reference.paths_at_infinity == 4
        assert reference.paths_by_context == {"d": 9, "dd": 3}
        assert solution_key(report) == solution_key(reference)
        assert report.paths_by_context == reference.paths_by_context
        assert report.converged_by_context == reference.converged_by_context
        assert report.paths_at_infinity == reference.paths_at_infinity
        assert [f.failure_reason for f in report.failures] == \
            [f.failure_reason for f in reference.failures]
        assert report.worker_retries == 0


@pytest.mark.slow
@pytest.mark.scenario_matrix
class TestShardedScenarioMatrix:
    """Every tier-1 registry scenario through the sharded service."""

    @pytest.mark.parametrize("scenario", tier1_scenarios(),
                             ids=lambda s: s.name)
    def test_sharded_matches_single_process(self, scenario):
        system = scenario.build_system()
        reference = solve_system(system, options=ESCALATION_OPTS,
                                 escalation=ESCALATION_POLICY)
        report = solve_system_sharded(system, shards=2,
                                      options=ESCALATION_OPTS,
                                      escalation=ESCALATION_POLICY)
        assert len(reference.solutions) == scenario.known_root_count
        assert solution_key(report) == solution_key(reference)
        assert report.paths_by_context == reference.paths_by_context
