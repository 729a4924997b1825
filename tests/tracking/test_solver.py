"""Tests for the blackbox homotopy-continuation solver."""

from __future__ import annotations

import cmath
import re

import pytest

from repro.multiprec import DOUBLE, DOUBLE_DOUBLE
from repro.polynomials import Monomial, Polynomial, PolynomialSystem
from repro.tracking import PathResult, TrackerOptions, solve_system
from repro.tracking.solver import _deduplicate


def decoupled_quadratics(values=(2.0, 3.0)):
    """f_i = x_i^2 - a_i with 2^n known solutions."""
    polys = []
    for i, a in enumerate(values):
        polys.append(Polynomial([
            (1 + 0j, Monomial((i,), (2,))),
            (-a + 0j, Monomial((), ())),
        ]))
    return PolynomialSystem(polys)


def circle_and_line():
    """x^2 + y^2 = 2 and x = y: exactly two solutions (1,1) and (-1,-1)."""
    p1 = Polynomial([
        (1 + 0j, Monomial((0,), (2,))),
        (1 + 0j, Monomial((1,), (2,))),
        (-2 + 0j, Monomial((), ())),
    ])
    p2 = Polynomial([
        (1 + 0j, Monomial((0,), (1,))),
        (-1 + 0j, Monomial((1,), (1,))),
    ])
    return PolynomialSystem([p1, p2])


class TestDecoupledQuadratics:
    def test_finds_all_four_solutions(self):
        report = solve_system(decoupled_quadratics())
        assert report.bezout_number == 4
        assert report.paths_tracked == 4
        assert report.paths_converged == 4
        assert report.success_rate == 1.0
        assert len(report.solutions) == 4
        for solution in report.solutions:
            x, y = solution.as_complex()
            assert abs(x * x - 2.0) < 1e-7
            assert abs(y * y - 3.0) < 1e-7
            assert solution.residual < 1e-8

    def test_all_sign_combinations_present(self):
        report = solve_system(decoupled_quadratics())
        signs = set()
        for solution in report.solutions:
            x, y = solution.as_complex()
            signs.add((round(x.real / abs(x)), round(y.real / abs(y))))
        assert len(signs) == 4

    def test_max_paths_subsamples(self):
        report = solve_system(decoupled_quadratics(), max_paths=2, seed=3)
        assert report.paths_tracked == 2
        assert len(report.solutions) <= 2

    def test_failures_are_reported_not_raised(self):
        # An absurdly tight step budget forces failures.
        options = TrackerOptions(initial_step=1e-5, max_step=1e-5, max_steps=3)
        report = solve_system(decoupled_quadratics(), options=options)
        assert report.paths_converged < report.paths_tracked
        assert len(report.failures) == report.paths_tracked - report.paths_converged
        assert report.success_rate < 1.0


class TestCircleAndLine:
    def test_both_isolated_solutions_found(self):
        """The quadric/line intersection has Bezout number 2 (degrees 2 and 1)
        and exactly the two isolated solutions (1, 1) and (-1, -1)."""
        report = solve_system(circle_and_line())
        assert report.bezout_number == 2
        assert report.paths_converged == 2
        assert len(report.solutions) == 2
        endpoints = sorted(round(s.as_complex()[0].real, 6) for s in report.solutions)
        assert endpoints == [-1.0, 1.0]
        for s in report.solutions:
            x, y = s.as_complex()
            assert abs(x - y) < 1e-8

    def test_multiplicities_accumulate(self):
        report = solve_system(circle_and_line())
        total_multiplicity = sum(s.multiplicity for s in report.solutions)
        assert total_multiplicity == report.paths_converged


class TestDeduplication:
    def make_result(self, point, residual=1e-12):
        return PathResult(success=True, solution=list(point), residual=residual,
                          steps_accepted=1, steps_rejected=0, newton_iterations=1)

    def test_nearby_endpoints_merge_with_multiplicity(self):
        results = [
            self.make_result([1.0 + 0j, 2.0 + 0j], residual=1e-12),
            self.make_result([1.0 + 1e-9j, 2.0 + 0j], residual=1e-14),
            self.make_result([-1.0 + 0j, 2.0 + 0j], residual=1e-13),
        ]
        merged = _deduplicate(results, DOUBLE, tolerance=1e-6)
        assert len(merged) == 2
        clustered = next(s for s in merged if abs(s.as_complex()[0] - 1.0) < 1e-6)
        assert clustered.multiplicity == 2
        assert clustered.residual == 1e-14   # keeps the best residual
        isolated = next(s for s in merged if abs(s.as_complex()[0] + 1.0) < 1e-6)
        assert isolated.multiplicity == 1

    def test_distinct_endpoints_stay_distinct(self):
        results = [self.make_result([float(i) + 0j]) for i in range(5)]
        merged = _deduplicate(results, DOUBLE, tolerance=1e-8)
        assert len(merged) == 5

    def test_relative_tolerance_scales_with_magnitude(self):
        results = [
            self.make_result([1e6 + 0j]),
            self.make_result([1e6 * (1 + 1e-8) + 0j]),
        ]
        merged = _deduplicate(results, DOUBLE, tolerance=1e-6)
        assert len(merged) == 1


class TestDeduplicationTolerance:
    """A tolerance that is not finite and positive is refused before any
    path is tracked: the de-duplication that reads it runs only after
    every path is."""

    @pytest.mark.parametrize("tolerance", [0.0, -1e-6, float("nan"),
                                           float("inf")])
    def test_refused_before_tracking(self, monkeypatch, tolerance):
        from repro.errors import ConfigurationError
        from repro.tracking.batch_tracker import BatchTracker

        def build(self, *args, **kwargs):
            raise AssertionError("a tracker was built")

        monkeypatch.setattr(BatchTracker, "__init__", build)
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"got {tolerance!r}")):
            solve_system(decoupled_quadratics(),
                         deduplication_tolerance=tolerance)


class TestBackends:
    def test_double_double_context(self):
        report = solve_system(decoupled_quadratics((2.0,)), context=DOUBLE_DOUBLE,
                              options=TrackerOptions(end_tolerance=1e-25,
                                                     end_iterations=20))
        assert report.paths_converged == 2
        for solution in report.solutions:
            assert solution.residual < 1e-25


class TestDeduplicationScales:
    """The bucketed clustering: coincident endpoints are one dict probe
    each, not a scan over every previously found solution."""

    def make_result(self, point, residual=1e-12):
        return PathResult(success=True, solution=list(point), residual=residual,
                          steps_accepted=1, steps_rejected=0, newton_iterations=1)

    def test_200_coincident_endpoints_collapse_to_one(self):
        import numpy as np

        rng = np.random.default_rng(0)
        base = [1.25 + 0.5j, -0.75 + 2.0j]
        results = []
        for _ in range(250):
            jitter = (rng.normal(size=2) + 1j * rng.normal(size=2)) * 1e-9
            results.append(self.make_result([b + j for b, j in zip(base, jitter)]))
        merged = _deduplicate(results, DOUBLE, tolerance=1e-6)
        assert len(merged) == 1
        assert merged[0].multiplicity == 250

    def test_mixed_clusters_and_singletons(self):
        results = []
        for i in range(100):
            results.append(self.make_result([1.0 + 0j, 2.0 + 0j]))      # cluster A
            results.append(self.make_result([-1.0 + 0j, 2.0 + 0j]))     # cluster B
        for i in range(20):
            results.append(self.make_result([float(10 + i) + 0j, 0j]))  # singletons
        merged = _deduplicate(results, DOUBLE, tolerance=1e-8)
        assert len(merged) == 22
        multiplicities = sorted(s.multiplicity for s in merged)
        assert multiplicities[-2:] == [100, 100]

    def test_dedup_scan_is_bucket_local(self):
        """Monkeypatch-free scaling probe: with B distinct buckets the inner
        tolerance scan must not grow with the number of *clusters*, which the
        old O(paths^2) global scan did.  Validated behaviourally: widely
        separated endpoints stay distinct and coincident ones still merge."""
        results = [self.make_result([complex(i, -i)]) for i in range(300)]
        results += [self.make_result([complex(7, -7)])] * 5
        merged = _deduplicate(results, DOUBLE, tolerance=1e-9)
        assert len(merged) == 300
        seven = next(s for s in merged if abs(s.as_complex()[0] - (7 - 7j)) < 1e-6)
        assert seven.multiplicity == 6


class TestEscalation:
    def test_policy_validates_order_and_nonempty(self):
        from repro.errors import ConfigurationError
        from repro.multiprec import QUAD_DOUBLE
        from repro.tracking import EscalationPolicy

        with pytest.raises(ConfigurationError):
            EscalationPolicy(ladder=())
        with pytest.raises(ConfigurationError):
            EscalationPolicy(ladder=(QUAD_DOUBLE, DOUBLE))
        policy = EscalationPolicy()
        assert [c.name for c in policy.ladder] == ["d", "dd", "qd"]
        assert policy.start_context.name == "d"

    def test_policy_refuses_a_repeated_context(self):
        """Each rung's accounting is keyed by its context name, so a second
        d rung would overwrite the first one's path and convergence
        counts; every way of building a policy refuses such a ladder."""
        import dataclasses

        from repro.errors import ConfigurationError
        from repro.tracking import EscalationPolicy

        with pytest.raises(ConfigurationError, match="repeats context 'd'"):
            EscalationPolicy(ladder=(DOUBLE, DOUBLE, DOUBLE_DOUBLE))
        with pytest.raises(ConfigurationError, match="repeats context 'dd'"):
            EscalationPolicy(ladder=(DOUBLE, DOUBLE_DOUBLE, DOUBLE_DOUBLE))
        with pytest.raises(ConfigurationError, match="repeats context 'd'"):
            EscalationPolicy.from_speedup(
                1.0, ladder=(DOUBLE, DOUBLE, DOUBLE_DOUBLE))
        with pytest.raises(ConfigurationError, match="repeats context 'd'"):
            dataclasses.replace(EscalationPolicy(),
                                ladder=(DOUBLE, DOUBLE, DOUBLE_DOUBLE))

    def test_from_speedup_consults_quality_up(self):
        from repro.tracking import EscalationPolicy

        assert [c.name for c in EscalationPolicy.from_speedup(1.0).ladder] == \
            ["d", "dd", "qd"]
        assert [c.name for c in EscalationPolicy.from_speedup(10.0).ladder] == \
            ["dd", "qd"]
        assert [c.name for c in EscalationPolicy.from_speedup(50.0).ladder] == \
            ["qd"]

    def test_escalation_recovers_paths_that_fail_at_plain_double(self):
        """Acceptance criterion: a Bezout >= 16 system with an end tolerance
        below the double roundoff floor -- paths genuinely fail at d and are
        recovered by the dd rung."""
        from repro.bench.batch_tracking import cyclic_quadratic_system
        from repro.tracking import EscalationPolicy
        from repro.multiprec import DOUBLE_DOUBLE

        system = cyclic_quadratic_system(4)
        options = TrackerOptions(end_tolerance=1e-17, end_iterations=12)
        policy = EscalationPolicy(ladder=(DOUBLE, DOUBLE_DOUBLE))
        report = solve_system(system, options=options, escalation=policy)

        assert report.bezout_number == 16
        assert report.paths_tracked == 16
        assert report.recovered_by_escalation >= 1
        assert report.paths_converged == 16
        assert not report.failures
        assert report.contexts_used == ["d", "dd"]
        assert report.paths_by_context["d"] == 16
        # Only the d failures were re-tracked at dd...
        assert report.paths_by_context["dd"] == \
            16 - report.converged_by_context["d"]
        # ... and everything the dd rung attempted converged.
        assert report.converged_by_context["dd"] == report.paths_by_context["dd"]
        # Escalated endpoints certify the tight tolerance.
        assert all(s.residual <= 1e-15 for s in report.solutions)

    def test_without_escalation_those_paths_fail(self):
        from repro.bench.batch_tracking import cyclic_quadratic_system

        system = cyclic_quadratic_system(4)
        options = TrackerOptions(end_tolerance=1e-17, end_iterations=12)
        report = solve_system(system, options=options)
        assert report.paths_converged < report.paths_tracked
        assert report.failures
        assert report.recovered_by_escalation == 0

    def test_single_rung_ladder_equals_plain_context(self):
        from repro.tracking import EscalationPolicy

        plain = solve_system(decoupled_quadratics())
        ladder = solve_system(decoupled_quadratics(),
                              escalation=EscalationPolicy(ladder=(DOUBLE,)))
        assert plain.paths_converged == ladder.paths_converged == 4
        assert ladder.paths_by_context == {"d": 4}
        assert ladder.recovered_by_escalation == 0


class TestWarmRestartEscalation:
    """The escalated rung resumes failed paths from their checkpoints."""

    def test_warm_restart_is_the_default_and_resumes_the_residue(self):
        from repro.bench.batch_tracking import cyclic_quadratic_system
        from repro.tracking import EscalationPolicy

        system = cyclic_quadratic_system(4)
        options = TrackerOptions(end_tolerance=1e-17, end_iterations=12)
        warm = solve_system(system, options=options,
                            escalation=EscalationPolicy(
                                ladder=(DOUBLE, DOUBLE_DOUBLE)))
        assert warm.paths_converged == 16
        assert warm.resumed_by_context["d"] == 0
        assert warm.restarted_by_context["d"] == 16
        # Every escalated path continued mid-track...
        assert warm.resumed_by_context["dd"] == warm.paths_by_context["dd"]
        assert warm.restarted_by_context["dd"] == 0
        # ... from the very end of the path: the d failures are endgames.
        resume_ts = warm.resume_t_by_context["dd"]
        assert len(resume_ts) == warm.paths_by_context["dd"]
        assert all(0.0 < t <= 1.0 for t in resume_ts)
        assert all(t == 1.0 for t in resume_ts)


class TestBatchedRoute:
    def test_default_factory_goes_through_batch_tracker(self):
        report = solve_system(decoupled_quadratics(), batch_size=2)
        assert report.paths_converged == 4
        assert len(report.solutions) == 4


class TestLadderRouting:
    """Every rung tracks through the batched engine: a rung whose context
    has no batch backend is refused before any path is tracked,
    and a clean escalated solve records no degradation."""

    def test_solver_refuses_backendless_rung_before_tracking(self,
                                                            monkeypatch):
        import dataclasses

        from repro.errors import ConfigurationError
        from repro.tracking import EscalationPolicy
        from repro.tracking.batch_tracker import BatchTracker

        def track_batches(self, *args, **kwargs):
            raise AssertionError("a path was tracked")

        monkeypatch.setattr(BatchTracker, "track_batches", track_batches)
        orphan = dataclasses.replace(DOUBLE_DOUBLE, name="dd-no-backend")
        with pytest.raises(ConfigurationError,
                           match="'dd-no-backend'; available"):
            solve_system(decoupled_quadratics(values=(2.0,)),
                         escalation=EscalationPolicy(ladder=(DOUBLE, orphan)))

    def test_solver_refuses_backendless_context_before_tracking(self,
                                                               monkeypatch):
        """Without escalation the one working context is the whole ladder,
        and it is checked before a tracker is even built."""
        import dataclasses

        from repro.errors import ConfigurationError
        from repro.tracking.batch_tracker import BatchTracker

        def build(self, *args, **kwargs):
            raise AssertionError("a tracker was built")

        monkeypatch.setattr(BatchTracker, "__init__", build)
        orphan = dataclasses.replace(DOUBLE_DOUBLE, name="dd-no-backend")
        with pytest.raises(ConfigurationError,
                           match="'dd-no-backend'; available"):
            solve_system(decoupled_quadratics(), context=orphan)

    def test_clean_escalated_solve_reports_no_degradations(self):
        from repro.bench.batch_tracking import cyclic_quadratic_system
        from repro.tracking import EscalationPolicy

        report = solve_system(
            cyclic_quadratic_system(4),
            options=TrackerOptions(end_tolerance=5e-17, end_iterations=12),
            escalation=EscalationPolicy(ladder=(DOUBLE, DOUBLE_DOUBLE)))
        assert report.degradations == []
        assert report.shards == 1  # single-process defaults
        assert report.worker_retries == 0
        assert report.resumed_after_crash == 0
