"""Tests for the convex linear homotopy with the gamma trick."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.core import CPUReferenceEvaluator
from repro.multiprec import DOUBLE_DOUBLE
from repro.polynomials import Monomial, Polynomial, PolynomialSystem
from repro.tracking import Homotopy, total_degree_start_system
from repro.tracking.homotopy import BatchHomotopy


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


class TestInterface:
    def test_invalid_t_rejected(self, homotopy):
        with pytest.raises(ConfigurationError):
            homotopy.evaluate_at([0j, 0j], 1.5)
        with pytest.raises(ConfigurationError):
            homotopy.evaluate_at([0j, 0j], -0.1)
        with pytest.raises(ConfigurationError):
            homotopy.evaluate_at([0j, 0j], float("nan"))

    @pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
    @pytest.mark.parametrize("use_plan", [True, False])
    def test_batch_rejects_t_outside_unit_interval(self, bad, use_plan):
        # NaN fails every comparison, so the range test is written to
        # reject it rather than let it through as NaN rows.
        target = target_system()
        start = total_degree_start_system(target)
        batch = BatchHomotopy(start, target, gamma=complex(0.6, 0.8),
                              use_plan=use_plan)
        points = np.array([[0.1 + 0.2j, 0.3 - 0.1j], [0.5j, -0.2 + 0j]])
        batch.evaluate_batch(points, np.array([0.0, 1.0]))
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            batch.evaluate_batch(points, np.array([0.5, bad]))

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
