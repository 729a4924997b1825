"""Tests for the convex linear homotopy with the gamma trick."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.core import CPUReferenceEvaluator, HomotopyPlan
from repro.multiprec import DOUBLE_DOUBLE
from repro.polynomials import Monomial, Polynomial, PolynomialSystem
from repro.tracking import Homotopy, total_degree_start_system
from repro.tracking.homotopy import BatchHomotopy, BatchHomotopyEvaluation
from repro.tracking.newton import BatchNewtonCorrector


def target_system():
    p1 = Polynomial([
        (1 + 0j, Monomial((0,), (2,))),
        (1 + 0j, Monomial((1,), (1,))),
        (-3 + 0j, Monomial((), ())),
    ])
    p2 = Polynomial([
        (1 + 0j, Monomial((0, 1), (1, 2))),
        (-1 + 0j, Monomial((), ())),
    ])
    return PolynomialSystem([p1, p2])


@pytest.fixture
def homotopy():
    target = target_system()
    start = total_degree_start_system(target)
    return Homotopy(CPUReferenceEvaluator(start), CPUReferenceEvaluator(target),
                    gamma=complex(0.6, 0.8))


class TestEndpoints:
    def test_at_t_zero_matches_gamma_times_start(self, homotopy):
        point = [0.5 + 0.5j, -0.25 + 1j]
        start_values = CPUReferenceEvaluator(
            total_degree_start_system(target_system())).evaluate(point).values
        h = homotopy.evaluate_at(point, 0.0)
        for hv, gv in zip(h.values, start_values):
            assert hv == pytest.approx(complex(0.6, 0.8) * gv, rel=1e-12)

    def test_at_t_one_matches_target(self, homotopy):
        point = [0.5 + 0.5j, -0.25 + 1j]
        target_values = CPUReferenceEvaluator(target_system()).evaluate(point).values
        h = homotopy.evaluate_at(point, 1.0)
        for hv, fv in zip(h.values, target_values):
            assert hv == pytest.approx(fv, rel=1e-12)

    def test_intermediate_t_is_convex_combination(self, homotopy):
        point = [0.3 - 0.2j, 0.7 + 0.1j]
        t = 0.375
        g = CPUReferenceEvaluator(total_degree_start_system(target_system())).evaluate(point)
        f = CPUReferenceEvaluator(target_system()).evaluate(point)
        h = homotopy.evaluate_at(point, t)
        for hv, gv, fv in zip(h.values, g.values, f.values):
            assert hv == pytest.approx(complex(0.6, 0.8) * (1 - t) * gv + t * fv, rel=1e-12)

    def test_jacobian_combination(self, homotopy):
        point = [0.3 - 0.2j, 0.7 + 0.1j]
        t = 0.25
        g = CPUReferenceEvaluator(total_degree_start_system(target_system())).evaluate(point)
        f = CPUReferenceEvaluator(target_system()).evaluate(point)
        h = homotopy.evaluate_at(point, t)
        for i in range(2):
            for j in range(2):
                expected = complex(0.6, 0.8) * (1 - t) * g.jacobian[i][j] + t * f.jacobian[i][j]
                assert h.jacobian[i][j] == pytest.approx(expected, rel=1e-12)

    def test_t_derivative(self, homotopy):
        point = [0.2 + 0.4j, -0.6 + 0.3j]
        g = CPUReferenceEvaluator(total_degree_start_system(target_system())).evaluate(point)
        f = CPUReferenceEvaluator(target_system()).evaluate(point)
        h = homotopy.evaluate_at(point, 0.5)
        for dv, gv, fv in zip(h.t_derivative, g.values, f.values):
            assert dv == pytest.approx(fv - complex(0.6, 0.8) * gv, rel=1e-12)

    def test_t_derivative_matches_finite_difference(self, homotopy):
        point = [0.2 + 0.4j, -0.6 + 0.3j]
        t, dt = 0.4, 1e-7
        h0 = homotopy.evaluate_at(point, t)
        h1 = homotopy.evaluate_at(point, t + dt)
        for dv, v0, v1 in zip(h0.t_derivative, h0.values, h1.values):
            assert (v1 - v0) / dt == pytest.approx(dv, rel=1e-5)


#: The batched routes: BatchHomotopy on its plan or on its walk, and a
#: bare HomotopyPlan, which checks its inputs itself.
BATCH_ROUTES = ["plan", "walk", "plan.execute"]


def batch_evaluate(route):
    """``evaluate(points, t)`` of one batched route over the test pair."""
    target = target_system()
    start = total_degree_start_system(target)
    gamma = complex(0.6, 0.8)
    if route == "plan.execute":
        return HomotopyPlan(start, target, gamma=gamma).execute
    return BatchHomotopy(start, target, gamma=gamma,
                         use_plan=route == "plan").evaluate_batch


def batch_homotopy(route):
    target = target_system()
    return BatchHomotopy(total_degree_start_system(target), target,
                         gamma=complex(0.6, 0.8), use_plan=route == "plan")


def evaluation_rows(result):
    """The ``(values, jacobian, t_derivative)`` rows of one batched
    evaluation as nested lists of complex numbers, copied out of the
    buffers that the next evaluation of a plan overwrites."""
    if isinstance(result, BatchHomotopyEvaluation):
        result = (result.values, result.jacobian, result.t_derivative)
    values, jacobian, t_derivative = result
    return ([row.tolist() for row in values],
            [[row.tolist() for row in rows] for rows in jacobian],
            [row.tolist() for row in t_derivative])


class TestInterface:
    def test_invalid_t_rejected(self, homotopy):
        with pytest.raises(ConfigurationError):
            homotopy.evaluate_at([0j, 0j], 1.5)
        with pytest.raises(ConfigurationError):
            homotopy.evaluate_at([0j, 0j], -0.1)
        with pytest.raises(ConfigurationError):
            homotopy.evaluate_at([0j, 0j], float("nan"))

    @pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
    @pytest.mark.parametrize("route", BATCH_ROUTES)
    def test_batch_rejects_t_outside_unit_interval(self, bad, route):
        # NaN fails every comparison, so the range test is written to
        # reject it rather than let it through as NaN rows.
        evaluate = batch_evaluate(route)
        points = np.array([[0.1 + 0.2j, 0.3 - 0.1j], [0.5j, -0.2 + 0j]])
        evaluate(points, np.array([0.0, 1.0]))
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            evaluate(points, np.array([0.5, bad]))

    @pytest.mark.parametrize("route", BATCH_ROUTES)
    def test_batch_rejects_t_of_the_wrong_length(self, route):
        evaluate = batch_evaluate(route)
        points = np.array([[0.1 + 0.2j, 0.3 - 0.1j], [0.5j, -0.2 + 0j]])
        with pytest.raises(ConfigurationError, match="broadcast"):
            evaluate(points, np.array([0.1, 0.2, 0.3]))
        evaluate(points, 0.5)  # one t broadcasts to every lane

    @pytest.mark.parametrize("route", BATCH_ROUTES)
    def test_batch_broadcasts_one_t_to_every_lane(self, route):
        # A scalar t and a length-1 t evaluate as the per-lane vector of
        # that t, bit for bit.
        evaluate = batch_evaluate(route)
        points = np.array([[0.1 + 0.2j, 0.3 - 0.1j], [0.5j, -0.2 + 0j]])
        expected = evaluation_rows(evaluate(points, np.array([0.25, 0.25])))
        for t in (0.25, np.array([0.25])):
            assert evaluation_rows(evaluate(points, t)) == expected

    @pytest.mark.parametrize("route", ["plan", "walk"])
    @pytest.mark.parametrize("t", [0.5, [0.5]], ids=["scalar", "length-1"])
    def test_frozen_t_applies_to_every_lane(self, route, t):
        # at() with one t must serve the Newton corrector, which evaluates
        # compressed lane subsets, exactly like the per-lane vector of t.
        homotopy = batch_homotopy(route)
        points = np.array([[1.2 + 0.1j, 0.3 - 0.1j, 1.0, -0.5j],
                           [0.5j, 0.9 + 0j, 0.7, 0.4 + 0.1j]])
        want = BatchNewtonCorrector(homotopy.at(np.full(4, 0.5)),
                                    homotopy.backend).correct(points)
        got = BatchNewtonCorrector(homotopy.at(t),
                                   homotopy.backend).correct(points)
        assert got.solution.tobytes() == want.solution.tobytes()
        assert got.iterations.tolist() == want.iterations.tolist()
        lanes = np.array([1, 3])
        assert evaluation_rows(homotopy.at(t).evaluate(
            points[:, lanes], lanes=lanes)) == evaluation_rows(
                homotopy.evaluate_batch(points[:, lanes], 0.5))

    @pytest.mark.parametrize("route", ["plan", "walk"])
    def test_frozen_t_must_cover_every_lane(self, route):
        homotopy = batch_homotopy(route)
        points = np.array([[0.1 + 0.2j, 0.3 - 0.1j, 1.0],
                           [0.5j, -0.2 + 0j, 0.7]])
        frozen = homotopy.at(np.array([0.25, 0.75]))
        with pytest.raises(ConfigurationError, match="broadcast"):
            frozen.evaluate(points)
        with pytest.raises(ConfigurationError, match="lane 2"):
            frozen.evaluate(points[:, [0, 2]], lanes=np.array([0, 2]))

    @pytest.mark.parametrize("route", ["plan", "walk"])
    @pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
    def test_a_bad_frozen_t_is_rejected(self, route, bad):
        homotopy = batch_homotopy(route)
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            homotopy.at(np.array([0.5, bad, 0.25]))
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            homotopy.at(bad)

    @pytest.mark.parametrize("route", ["plan", "walk"])
    def test_a_frozen_t_is_range_checked_once(self, route, monkeypatch):
        # The corrector evaluates lane subsets of its frozen t many times;
        # they are checked once, at at().  Any other t is checked on every
        # evaluation.
        from repro.core import evalplan

        checks = []
        check = evalplan._in_unit_interval
        monkeypatch.setattr(evalplan, "_in_unit_interval",
                            lambda t: checks.append(1) or check(t))
        homotopy = batch_homotopy(route)
        points = np.array([[0.1 + 0.2j, 0.3 - 0.1j, 1.0],
                           [0.5j, -0.2 + 0j, 0.7]])
        t = np.array([0.25, 0.5, 0.75])
        frozen = homotopy.at(t)
        want = evaluation_rows(homotopy.evaluate_batch(points[:, [0, 2]],
                                                       t[[0, 2]]))
        assert len(checks) == 2
        for lanes in (np.array([0, 2]), np.array([1]), None):
            sub = points if lanes is None else points[:, lanes]
            frozen.evaluate(sub, lanes=lanes)
        assert len(checks) == 2
        assert evaluation_rows(frozen.evaluate(
            points[:, [0, 2]], lanes=np.array([0, 2]))) == want
        t[1] = np.nan  # the frozen parameters are a copy
        frozen.evaluate(points)
        assert len(checks) == 2

    def test_gamma_must_have_unit_modulus(self):
        target = target_system()
        start = total_degree_start_system(target)
        with pytest.raises(ConfigurationError):
            Homotopy(CPUReferenceEvaluator(start), CPUReferenceEvaluator(target), gamma=2.0)

    def test_default_gamma_is_unit_modulus(self):
        target = target_system()
        start = total_degree_start_system(target)
        h = Homotopy(CPUReferenceEvaluator(start), CPUReferenceEvaluator(target))
        assert abs(h.gamma) == pytest.approx(1.0)

    def test_frozen_adapter_exposes_evaluator_interface(self, homotopy):
        frozen = homotopy.at(0.5)
        result = frozen.evaluate([0.1 + 0.1j, 0.2 - 0.2j])
        assert len(result.values) == 2
        assert len(result.jacobian) == 2

    def test_double_double_homotopy(self):
        target = target_system()
        start = total_degree_start_system(target)
        ctx = DOUBLE_DOUBLE
        h = Homotopy(CPUReferenceEvaluator(start, context=ctx),
                     CPUReferenceEvaluator(target, context=ctx),
                     gamma=complex(0.6, 0.8), context=ctx)
        point = ctx.vector([0.5 + 0.5j, -0.25 + 1j])
        result = h.evaluate_at(point, 0.5)
        plain = Homotopy(CPUReferenceEvaluator(start), CPUReferenceEvaluator(target),
                         gamma=complex(0.6, 0.8)).evaluate_at([0.5 + 0.5j, -0.25 + 1j], 0.5)
        for a, b in zip(result.values, plain.values):
            assert a.to_complex() == pytest.approx(b, rel=1e-12)


class TestRouteSelection:
    """Each BatchHomotopy chooses its route itself: no process-global
    switch lets one thread's evaluator change the route another thread's
    takes."""

    def test_concurrent_plan_and_walk_instances_keep_their_routes(
            self, monkeypatch):
        import threading

        from repro.core.batch import VectorisedBatchEvaluator

        callers = {"plan": set(), "walk": set()}
        plan_execute = HomotopyPlan.execute
        walk_evaluate = VectorisedBatchEvaluator.evaluate

        def recorded_plan_execute(self, *args):
            callers["plan"].add(threading.current_thread().name)
            return plan_execute(self, *args)

        def recorded_walk_evaluate(self, *args):
            callers["walk"].add(threading.current_thread().name)
            return walk_evaluate(self, *args)

        monkeypatch.setattr(HomotopyPlan, "execute", recorded_plan_execute)
        monkeypatch.setattr(VectorisedBatchEvaluator, "evaluate",
                            recorded_walk_evaluate)

        routes = ("plan", "walk")
        evaluators = {route: batch_evaluate(route) for route in routes}
        points = np.array([[0.1 + 0.2j, 0.3 - 0.1j], [0.5j, -0.2 + 0j]])
        t = np.array([0.25, 0.75])
        expected = {route: evaluation_rows(evaluators[route](points, t))
                    for route in routes}
        for names in callers.values():
            names.clear()

        barrier = threading.Barrier(len(routes))
        mismatches = {route: 0 for route in routes}

        def run(route):
            barrier.wait()
            for _ in range(25):
                rows = evaluation_rows(evaluators[route](points, t))
                mismatches[route] += rows != expected[route]

        threads = [threading.Thread(target=run, args=(route,), name=route)
                   for route in routes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert mismatches == {"plan": 0, "walk": 0}
        assert callers == {"plan": {"plan"}, "walk": {"walk"}}


class TestConstruction:
    """A BatchHomotopy builds only what its route runs, and refuses a pair
    it cannot evaluate before either route compiles or walks anything."""

    @pytest.mark.parametrize("route", ["plan", "walk"])
    @pytest.mark.parametrize("which", ["start", "target"])
    def test_a_non_square_system_is_refused_at_construction(self, route,
                                                            which):
        target = target_system()
        start = total_degree_start_system(target)
        # Two polynomials in three variables.
        ragged = PolynomialSystem(list(target), dimension=3)
        pair = (ragged, target) if which == "start" else (start, ragged)
        with pytest.raises(ConfigurationError, match="square"):
            BatchHomotopy(*pair, use_plan=route == "plan")

    def test_the_plan_route_builds_no_walk(self, monkeypatch):
        import repro.tracking.homotopy as homotopy_module

        def walk(*args, **kwargs):
            raise AssertionError("a walk evaluator was built")

        monkeypatch.setattr(homotopy_module, "VectorisedBatchEvaluator",
                            walk)
        evaluate = batch_evaluate("plan")
        points = np.array([[0.1 + 0.2j, 0.3 - 0.1j], [0.5j, -0.2 + 0j]])
        evaluate(points, np.array([0.25, 0.75]))

    def test_the_walk_route_walks_each_system_once_built(self, monkeypatch):
        from repro.core.batch import VectorisedBatchEvaluator

        built = []
        build = VectorisedBatchEvaluator.__init__

        def recorded_build(self, system, **kwargs):
            built.append(system)
            build(self, system, **kwargs)

        monkeypatch.setattr(VectorisedBatchEvaluator, "__init__",
                            recorded_build)
        target = target_system()
        start = total_degree_start_system(target)
        homotopy = BatchHomotopy(start, target, gamma=complex(0.6, 0.8),
                                 use_plan=False)
        assert built == []
        points = np.array([[0.1 + 0.2j, 0.3 - 0.1j], [0.5j, -0.2 + 0j]])
        for _ in range(2):
            homotopy.evaluate_batch(points, np.array([0.25, 0.75]))
        assert built == [start, target]
