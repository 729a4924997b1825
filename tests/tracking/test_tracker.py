"""Tests for the predictor-corrector path tracker."""

from __future__ import annotations

import cmath

import pytest

from repro.core import CPUReferenceEvaluator
from repro.multiprec import DOUBLE, DOUBLE_DOUBLE
from repro.polynomials import Monomial, Polynomial, PolynomialSystem
from repro.tracking import (
    Homotopy,
    PathTracker,
    SecantPredictor,
    TangentPredictor,
    TrackerOptions,
    start_solutions,
    total_degree_start_system,
)


def decoupled_quadratic_system():
    """f_i = x_i^2 - a_i with known solutions: easy, well-separated paths."""
    targets = [2.0, 3.0]
    polys = []
    for i, a in enumerate(targets):
        polys.append(Polynomial([
            (1 + 0j, Monomial((i,), (2,))),
            (-a + 0j, Monomial((), ())),
        ]))
    return PolynomialSystem(polys), targets


def make_homotopy(system, context=DOUBLE):
    start = total_degree_start_system(system)
    return Homotopy(CPUReferenceEvaluator(start, context=context),
                    CPUReferenceEvaluator(system, context=context),
                    context=context), start


class TestPredictors:
    def test_secant_predictor_needs_history(self):
        predictor = SecantPredictor()
        prediction = predictor.predict(None, [1 + 0j, 2 + 0j], 0.1, 0.05)
        assert prediction == [1 + 0j, 2 + 0j]

    def test_secant_predictor_extrapolates_linearly(self):
        predictor = SecantPredictor()
        predictor.remember([0j, 0j], 0.0)
        prediction = predictor.predict(None, [1 + 0j, 2 + 0j], 0.1, 0.05)
        # Half the previous step forward: adds 50% of the last increment.
        assert prediction[0] == pytest.approx(1.5 + 0j)
        assert prediction[1] == pytest.approx(3.0 + 0j)

    def test_secant_reset(self):
        predictor = SecantPredictor()
        predictor.remember([1 + 0j], 0.2)
        predictor.reset()
        assert predictor.predict(None, [5 + 0j], 0.4, 0.1) == [5 + 0j]

    def test_tangent_predictor_follows_the_path(self):
        system, _ = decoupled_quadratic_system()
        homotopy, _ = make_homotopy(system)
        predictor = TangentPredictor()
        # At t=0 on the path starting at (1, 1).
        point = [1 + 0j, 1 + 0j]
        prediction = predictor.predict(homotopy, point, 0.0, 0.05)
        assert len(prediction) == 2
        # The prediction should move the point (nonzero tangent) but only a
        # little for a small step.
        assert prediction != point
        assert abs(prediction[0] - point[0]) < 0.2


class TestTracking:
    def test_tracks_all_paths_of_decoupled_system(self):
        system, targets = decoupled_quadratic_system()
        homotopy, start = make_homotopy(system)
        tracker = PathTracker(homotopy)
        results = tracker.track_many(list(start_solutions(system)))
        assert len(results) == 4
        assert all(r.success for r in results)
        # Every found solution satisfies x_i^2 = a_i.
        for r in results:
            for i, a in enumerate(targets):
                assert abs(r.solution[i] ** 2 - a) < 1e-8
        # All four sign combinations are found.
        signs = {(round(r.solution[0].real / abs(r.solution[0])),
                  round(r.solution[1].real / abs(r.solution[1]))) for r in results}
        assert len(signs) == 4

    def test_path_metadata(self):
        system, _ = decoupled_quadratic_system()
        homotopy, _ = make_homotopy(system)
        tracker = PathTracker(homotopy)
        result = tracker.track([1 + 0j, 1 + 0j])
        assert result.success
        assert result.steps_accepted > 0
        assert result.newton_iterations > 0
        assert result.residual < 1e-10
        assert result.path[-1].t == pytest.approx(1.0)
        assert all(0 < p.t <= 1.0 for p in result.path)

    def test_tangent_predictor_option(self):
        system, targets = decoupled_quadratic_system()
        homotopy, _ = make_homotopy(system)
        tracker = PathTracker(homotopy, options=TrackerOptions(predictor="tangent"))
        result = tracker.track([1 + 0j, 1 + 0j])
        assert result.success
        assert abs(result.solution[0] ** 2 - targets[0]) < 1e-8

    def test_bad_start_point_reports_failure(self):
        system, _ = decoupled_quadratic_system()
        homotopy, _ = make_homotopy(system)
        tracker = PathTracker(homotopy)
        # The origin makes the start-system Jacobian (2 x_i on the diagonal)
        # singular, so the initial corrector cannot succeed; the tracker must
        # report a clean failure rather than raising.
        result = tracker.track([0j, 0j])
        assert not result.success
        assert result.failure_reason == "start point does not satisfy the start system"

    def test_far_away_start_point_is_pulled_back(self):
        """A wrong but well-conditioned start point is simply corrected onto
        the nearest start-system solution and then tracked successfully."""
        system, targets = decoupled_quadratic_system()
        homotopy, _ = make_homotopy(system)
        result = PathTracker(homotopy).track([5 + 0j, -7 + 0j])
        assert result.success
        assert abs(result.solution[0] ** 2 - targets[0]) < 1e-8

    def test_max_steps_failure(self):
        system, _ = decoupled_quadratic_system()
        homotopy, _ = make_homotopy(system)
        options = TrackerOptions(initial_step=1e-4, max_step=1e-4, max_steps=5)
        tracker = PathTracker(homotopy, options=options)
        result = tracker.track([1 + 0j, 1 + 0j])
        assert not result.success
        assert result.failure_reason == "maximum number of steps exceeded"

    def test_double_double_tracking_reaches_tighter_residuals(self):
        system, targets = decoupled_quadratic_system()
        ctx = DOUBLE_DOUBLE
        homotopy, _ = make_homotopy(system, context=ctx)
        options = TrackerOptions(end_tolerance=1e-25, corrector_tolerance=1e-12,
                                 end_iterations=20)
        tracker = PathTracker(homotopy, context=ctx, options=options)
        result = tracker.track([1 + 0j, 1 + 0j])
        assert result.success
        assert result.residual < 1e-25
        assert abs(ctx.to_complex(result.solution[0]) - cmath.sqrt(targets[0])) < 1e-12


class TestTrackerOptionsRefuseWhatNoTrackerRuns:
    """Both engines share :class:`TrackerOptions`, which refuses at
    construction, naming the field, every value no tracker can run with:
    an unknown predictor used to track silently with the secant one, a
    bad initial step failed in the first round, and a zero corrector
    budget or a growing "reduction" returned no solution and no error."""

    @pytest.mark.parametrize("field, value", [
        ("predictor", "bogus"), ("predictor", "Tangent"), ("predictor", None),
        ("initial_step", float("nan")), ("initial_step", -0.1),
        ("initial_step", 0.0), ("initial_step", float("inf")),
        ("min_step", 0.0), ("min_step", float("nan")),
        ("max_step", -1.0), ("max_step", float("inf")),
        ("corrector_tolerance", 0.0), ("corrector_tolerance", float("nan")),
        ("end_tolerance", -1e-12), ("end_tolerance", float("inf")),
        ("step_expansion", 0.5), ("step_expansion", float("inf")),
        ("step_expansion", float("nan")),
        ("step_reduction", 1.5), ("step_reduction", 1.0),
        ("step_reduction", 0.0), ("step_reduction", float("nan")),
        ("corrector_iterations", 0), ("end_iterations", 0),
        ("end_iterations", -3), ("max_steps", -1),
        ("initial_step", "0.1"), ("max_steps", None),
    ])
    def test_a_value_no_tracker_runs_with_raises(self, field, value):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match=field):
            TrackerOptions(**{field: value})

    @pytest.mark.parametrize("kwargs", [
        dict(max_steps=0),                       # corrects the starts only
        dict(max_step=0.002),                    # initial_step > max_step
        dict(step_expansion=1.0),
        dict(predictor="tangent", end_tolerance=1e-80,
             corrector_tolerance=1e-300, corrector_iterations=1,
             end_iterations=1, step_reduction=0.999),
    ], ids=["no-rounds", "initial-above-max", "no-growth", "edges"])
    def test_edge_values_stay_allowed(self, kwargs):
        options = TrackerOptions(**kwargs)
        for name, value in kwargs.items():
            assert getattr(options, name) == value

    def test_replace_checks_too(self):
        import dataclasses

        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="predictor"):
            dataclasses.replace(TrackerOptions(), predictor="newton")

    def test_the_fields_stay_eleven(self):
        import dataclasses

        assert len(dataclasses.fields(TrackerOptions)) == 11

    def test_max_steps_zero_tracks_no_round(self):
        system, _ = decoupled_quadratic_system()
        homotopy, _ = make_homotopy(system)
        result = PathTracker(homotopy, options=TrackerOptions(
            max_steps=0)).track([1 + 0j, 1 + 0j])
        assert not result.success
        assert result.failure_reason == "maximum number of steps exceeded"
