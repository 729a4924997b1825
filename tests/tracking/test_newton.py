"""Tests for Newton's corrector driven by the evaluator interface."""

from __future__ import annotations

import collections
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ConvergenceError
from repro.core import CPUReferenceEvaluator, GPUEvaluator
from repro.multiprec import DOUBLE, DOUBLE_DOUBLE, QUAD_DOUBLE, compiled
from repro.multiprec.backend import masked_lane_errstate
from repro.polynomials import Monomial, Polynomial, PolynomialSystem
from repro.tracking import (BatchHomotopy, BatchNewtonCorrector,
                            NewtonCorrector, total_degree_start_system)
from repro.tracking.batch_linsolve import (NewtonUpdate, batched_solve,
                                           lane_norms)
from repro.tracking.newton import residual_accepted_after_update


def circle_line_system():
    """x0^2 + x1^2 - 2 = 0, x0 - x1 = 0: solutions (+-1, +-1)."""
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


class TestNewtonOnCPUReference:
    def test_converges_to_nearby_root(self):
        system = circle_line_system()
        corrector = NewtonCorrector(CPUReferenceEvaluator(system), tolerance=1e-12)
        result = corrector.correct([1.2 + 0.1j, 0.9 - 0.1j])
        assert result.converged
        assert result.residual_norm < 1e-12
        assert abs(result.solution[0] - 1.0) < 1e-8
        assert abs(result.solution[1] - 1.0) < 1e-8

    def test_converges_to_negative_root_from_negative_start(self):
        system = circle_line_system()
        corrector = NewtonCorrector(CPUReferenceEvaluator(system))
        result = corrector.correct([-1.3, -0.8])
        assert result.converged
        assert abs(result.solution[0] + 1.0) < 1e-8

    def test_quadratic_convergence_history(self):
        system = circle_line_system()
        corrector = NewtonCorrector(CPUReferenceEvaluator(system), tolerance=1e-14)
        result = corrector.correct([1.05, 1.02])
        assert result.converged
        residuals = [step.residual_norm for step in result.history]
        # Quadratic convergence: each residual is (roughly) the square of the
        # previous one once in the basin.
        assert all(residuals[i + 1] < residuals[i] for i in range(len(residuals) - 2))
        assert result.iterations <= 6

    def test_history_and_steps_recorded(self):
        system = circle_line_system()
        result = NewtonCorrector(CPUReferenceEvaluator(system)).correct([1.1, 1.0])
        assert len(result.history) == result.iterations
        assert result.history[0].iteration == 1

    def test_failure_returns_unconverged_result(self):
        system = circle_line_system()
        corrector = NewtonCorrector(CPUReferenceEvaluator(system),
                                    tolerance=1e-15, max_iterations=1)
        result = corrector.correct([5.0, -3.0])
        assert not result.converged
        assert result.iterations == 1

    def test_failure_can_raise(self):
        system = circle_line_system()
        corrector = NewtonCorrector(CPUReferenceEvaluator(system), tolerance=1e-15,
                                    max_iterations=1, raise_on_failure=True)
        with pytest.raises(ConvergenceError):
            corrector.correct([5.0, -3.0])

    def test_already_converged_point_returns_immediately(self):
        system = circle_line_system()
        corrector = NewtonCorrector(CPUReferenceEvaluator(system), tolerance=1e-9)
        result = corrector.correct([1.0, 1.0])
        assert result.converged
        assert result.iterations == 1
        assert result.update_norm == 0.0


class TestNewtonInDoubleDouble:
    @staticmethod
    def sqrt2_system():
        """x0^2 - 2 = 0, x0 - x1 = 0: the root sqrt(2) is not representable
        in double precision, so the achievable residual floor depends on the
        working precision."""
        p1 = Polynomial([
            (1 + 0j, Monomial((0,), (2,))),
            (-2 + 0j, Monomial((), ())),
        ])
        p2 = Polynomial([
            (1 + 0j, Monomial((0,), (1,))),
            (-1 + 0j, Monomial((1,), (1,))),
        ])
        return PolynomialSystem([p1, p2])

    def test_reaches_beyond_double_accuracy(self):
        """With double-double evaluation and linear algebra the residual can
        be driven far below the double-precision roundoff floor -- the whole
        point of the paper's extended-precision path tracking."""
        system = self.sqrt2_system()
        evaluator = CPUReferenceEvaluator(system, context=DOUBLE_DOUBLE)
        corrector = NewtonCorrector(evaluator, context=DOUBLE_DOUBLE,
                                    tolerance=1e-28, max_iterations=30)
        result = corrector.correct([1.4, 1.4])
        assert result.converged
        assert result.residual_norm < 1e-28

    def test_double_cannot_reach_that_tolerance(self):
        system = self.sqrt2_system()
        corrector = NewtonCorrector(CPUReferenceEvaluator(system), context=DOUBLE,
                                    tolerance=1e-28, max_iterations=30)
        result = corrector.correct([1.4, 1.4])
        # The best a double iterate can do is |x^2 - 2| of the order of the
        # double roundoff (~2e-16), far above the requested tolerance.
        assert not result.converged
        assert result.residual_norm > 1e-17


class TestNewtonOnGPUEvaluator:
    def test_gpu_pipeline_drives_newton(self):
        """The GPU evaluator plugs into the same corrector.

        The system ``f_i = x0 x1 x2 - x_j x_k x_l^2`` (with ``(j, k, l)`` a
        rotation of ``(0, 1, 2)``) is regular -- every polynomial has two
        monomials of three variables each -- vanishes at ``x = (1, 1, 1)``,
        and has a nonsingular (negated permutation) Jacobian there.
        """
        n = 3
        polys = []
        for i in range(n):
            j, k_, l = i, (i + 1) % n, (i + 2) % n
            m1 = Monomial(tuple(sorted((j, k_, l))), (1, 1, 1))
            m2 = Monomial.from_dict({j: 1, k_: 1, l: 2})
            polys.append(Polynomial([(1 + 0j, m1), (-1 + 0j, m2)]))
        system = PolynomialSystem(polys)
        assert system.regularity() is not None

        evaluator = GPUEvaluator(system, check_capacity=False)
        corrector = NewtonCorrector(evaluator, tolerance=1e-10, max_iterations=40)
        result = corrector.correct([1.05 + 0.01j, 0.97 - 0.02j, 1.02 + 0.02j])
        assert result.converged
        # x = (1,1,1) is a solution; Newton from a nearby start should stay
        # close to it (the solution set may contain other nearby points, so
        # just check the residual and proximity).
        assert result.residual_norm < 1e-10


class TestBatchCorrectorMatchesScalar:
    """Differential pin: the batched corrector takes exactly the scalar
    corrector's decisions per lane -- including the relaxed small-update
    acceptance, which both apply in the same iteration and both treat as
    final (no further iterating when the relaxed test fails)."""

    @staticmethod
    def _fixture():
        from repro.tracking import BatchHomotopy, Homotopy, total_degree_start_system
        import numpy as np

        system = circle_line_system()
        start = total_degree_start_system(system)
        scalar_homotopy = Homotopy(CPUReferenceEvaluator(start),
                                   CPUReferenceEvaluator(system))
        batch_homotopy = BatchHomotopy(start, system)
        # Starts around the root (1, 1): in the basin, near-converged, and
        # far enough out that the iteration cap bites.
        points = [
            [1.2 + 0.1j, 0.9 - 0.1j],
            [1.0 + 1e-9j, 1.0 - 1e-9j],
            [1.0000001, 0.9999999],
            [2.5, -1.5],
            [1.0, 1.0],
        ]
        return scalar_homotopy, batch_homotopy, points

    @pytest.mark.parametrize("tolerance", [1e-10, 1e-14, 1e-15])
    def test_converged_iterations_and_residuals_agree(self, tolerance):
        import numpy as np

        from repro.multiprec.backend import COMPLEX128_BACKEND
        from repro.tracking import BatchNewtonCorrector

        scalar_homotopy, batch_homotopy, points = self._fixture()
        max_iterations = 8

        scalar_outcomes = []
        for point in points:
            corrector = NewtonCorrector(scalar_homotopy.at(1.0),
                                        tolerance=tolerance,
                                        max_iterations=max_iterations)
            scalar_outcomes.append(corrector.correct(point))

        batch = COMPLEX128_BACKEND.from_points(points)
        batched = BatchNewtonCorrector(
            batch_homotopy.at(np.ones(len(points))), COMPLEX128_BACKEND,
            tolerance=tolerance, max_iterations=max_iterations,
        ).correct(batch)

        for lane, scalar in enumerate(scalar_outcomes):
            assert bool(batched.converged[lane]) == scalar.converged, lane
            assert int(batched.iterations[lane]) == scalar.iterations, lane
            assert batched.residual_norm[lane] == pytest.approx(
                scalar.residual_norm, rel=1e-6, abs=1e-30), lane
            got = [complex(z) for z in batched.solution[:, lane]]
            expected = [complex(z) for z in scalar.solution]
            for g, e in zip(got, expected):
                assert abs(g - e) <= 1e-9 * max(1.0, abs(e)), lane

    def test_small_update_lane_stops_iterating_like_scalar(self):
        """A lane whose update falls below tolerance while its residual sits
        above the relaxed bound must retire unconverged -- the scalar
        corrector gives up there, and the batched one must not keep
        polishing it."""
        import numpy as np

        from repro.multiprec.backend import COMPLEX128_BACKEND
        from repro.tracking import BatchNewtonCorrector

        from repro.tracking import BatchHomotopy, Homotopy, total_degree_start_system

        # A scaled sqrt(2) system: the residual floor sits at ~1e6 * eps
        # (the root is not representable) while Newton updates shrink to
        # ~eps, so a tolerance between the two floors makes the update test
        # pass while the relaxed residual bound (1e2 * tol) fails -- the
        # give-up branch of the scalar small-update exit.
        scale = 1e6
        p1 = Polynomial([
            (scale + 0j, Monomial((0,), (2,))),
            (-2 * scale + 0j, Monomial((), ())),
        ])
        p2 = Polynomial([
            (1 + 0j, Monomial((0,), (1,))),
            (-1 + 0j, Monomial((1,), (1,))),
        ])
        system = PolynomialSystem([p1, p2])
        start = total_degree_start_system(system)
        scalar_homotopy = Homotopy(CPUReferenceEvaluator(start),
                                   CPUReferenceEvaluator(system))
        batch_homotopy = BatchHomotopy(start, system)
        tolerance = 1e-14
        points = [[1.4, 1.4], [1.41421356, 1.41421356]]

        scalar_outcomes = []
        for point in points:
            corrector = NewtonCorrector(scalar_homotopy.at(1.0),
                                        tolerance=tolerance, max_iterations=20)
            scalar_outcomes.append(corrector.correct(point))
        # Precondition: the scalar corrector actually takes the small-update
        # exit early (well before the iteration cap) and rejects.
        assert all(not r.converged for r in scalar_outcomes)
        assert all(r.iterations < 20 for r in scalar_outcomes)

        batch = COMPLEX128_BACKEND.from_points(points)
        batched = BatchNewtonCorrector(
            batch_homotopy.at(np.ones(len(points))), COMPLEX128_BACKEND,
            tolerance=tolerance, max_iterations=20,
        ).correct(batch)
        for lane, scalar in enumerate(scalar_outcomes):
            assert not batched.converged[lane]
            assert int(batched.iterations[lane]) == scalar.iterations, lane


@pytest.mark.skipif(compiled.KERNELS is None,
                    reason="compiled kernels could not be built")
@pytest.mark.parametrize("context", [DOUBLE_DOUBLE, QUAD_DOUBLE],
                         ids=lambda c: c.name)
class TestLaneGathersRunNatively:
    """The batched corrector and the secant predictor work on lane gathers
    ``x[:, idx]``, whose planes NumPy lays out column-major.  Every dd/qd
    kernel call on them, the corrector's Newton update and the predictor's
    ``(n, B) * (B,)`` extrapolation included, runs natively: none falls
    back to a reference chain or the Python route."""

    @staticmethod
    def _recording(monkeypatch):
        calls, declined = [], []
        run = compiled.run

        def recording(kernel, planes):
            result = run(kernel, planes)
            calls.append(kernel)
            if result is None:
                declined.append(kernel)
            return result

        monkeypatch.setattr(compiled, "run", recording)
        return calls, declined

    @staticmethod
    def _batch(context):
        import numpy as np

        from repro.tracking import BatchHomotopy, total_degree_start_system

        system = circle_line_system()
        homotopy = BatchHomotopy(total_degree_start_system(system), system,
                                 context=context)
        points = homotopy.backend.from_points(
            [[1.2 + 0.1j, 0.9 - 0.1j], [3.0, -2.0], [1.0 + 1e-9j, 1.0],
             [0.8, 1.1 + 0.05j], [1.05, 0.95]])
        return homotopy, points, np.array([4, 0, 3, 2])

    def test_corrector(self, context, monkeypatch):
        import numpy as np

        from repro.tracking import BatchNewtonCorrector

        homotopy, points, idx = self._batch(context)
        gathered = points[:, idx]
        corrector = BatchNewtonCorrector(homotopy.at(np.ones(idx.size)),
                                         homotopy.backend, tolerance=1e-20)
        calls, declined = self._recording(monkeypatch)
        name = f"newton_{context.name}"
        kernel, updates = getattr(compiled.KERNELS, name), []
        monkeypatch.setattr(compiled.KERNELS, name,
                            lambda *args: updates.append(kernel(*args))
                            or updates[-1])
        got = corrector.correct(gathered)
        assert declined == []
        assert updates and NotImplemented not in updates
        monkeypatch.setattr(compiled, "KERNELS", None)
        counts = _stopped_counts(monkeypatch)
        want = corrector.correct(gathered)
        # Every update ran natively and stopped the Python route's lanes.
        assert updates == counts
        for a, b in zip(homotopy.backend.component_planes(got.solution),
                        homotopy.backend.component_planes(want.solution)):
            assert compiled._same_bits(a, b)
        assert np.array_equal(got.iterations, want.iterations)

    def test_secant_predictor(self, context, monkeypatch):
        import numpy as np

        from repro.tracking import BatchSecantPredictor

        homotopy, points, idx = self._batch(context)
        current, previous = points[:, idx], (points * 0.9)[:, idx]
        t = np.array([0.5, 0.25, 0.75, 0.5])
        predictor = BatchSecantPredictor(homotopy.backend)
        args = (homotopy, current, previous, t, t - 0.1,
                np.full(idx.size, 0.05), np.array([True, True, False, True]),
                np.array([True, False, True, True]))
        calls, declined = self._recording(monkeypatch)
        got = predictor.predict(*args)
        assert declined == []
        assert f"c{context.name}_mul" in calls
        monkeypatch.setattr(compiled, "KERNELS", None)
        want = predictor.predict(*args)
        for a, b in zip(homotopy.backend.component_planes(got),
                        homotopy.backend.component_planes(want)):
            assert compiled._same_bits(a, b)


def _stopped_counts(monkeypatch):
    """Record the ``stopped`` count of every Newton update the corrector
    requests from here on."""
    from repro.tracking import newton as newton_module

    counts, solve = [], newton_module.batched_solve

    def counted(*args, **kwargs):
        result = solve(*args, **kwargs)
        counts.append(kwargs["newton"].stopped)
        return result

    monkeypatch.setattr(newton_module, "batched_solve", counted)
    return counts


def _circle_line_homotopy():
    from repro.tracking import BatchHomotopy, total_degree_start_system

    system = circle_line_system()
    return BatchHomotopy(total_degree_start_system(system), system)


class TestBatchCorrectorArguments:
    @pytest.mark.parametrize("active", [[True], [True] * 6, [[True] * 4]],
                             ids=["short", "long", "2-D"])
    def test_active_must_hold_one_flag_per_lane(self, active):
        # A short mask used to correct only its lanes and report the rest
        # unconverged; a long one raised IndexError from inside the loop.
        import numpy as np

        from repro.errors import ConfigurationError
        from repro.multiprec.backend import COMPLEX128_BACKEND
        from repro.tracking import BatchNewtonCorrector

        homotopy = _circle_line_homotopy()
        points = COMPLEX128_BACKEND.from_points(
            [[1.2, 0.9], [1.1, 1.0], [-1.1, -0.9], [0.9, 1.05]])
        corrector = BatchNewtonCorrector(homotopy.at(np.ones(4)),
                                         COMPLEX128_BACKEND)
        with pytest.raises(ConfigurationError, match=r"\(4,\) lane mask"):
            corrector.correct(points, np.array(active))

    def test_a_backend_with_the_default_masked_add_corrects_alike(self):
        # The base class's iadd_masked returns a new array; the Python
        # route must rebind it, or such a backend never moves its lanes.
        import numpy as np

        from repro.multiprec.backend import (COMPLEX128_BACKEND,
                                             Complex128Backend,
                                             ComplexBatchBackend)
        from repro.tracking import BatchNewtonCorrector

        class Allocating(Complex128Backend):
            iadd_masked = ComplexBatchBackend.iadd_masked

        _, homotopy, points = TestBatchCorrectorMatchesScalar._fixture()
        batch = COMPLEX128_BACKEND.from_points(points)
        want, got = (BatchNewtonCorrector(
            homotopy.at(np.ones(len(points))), backend, tolerance=1e-14,
            max_iterations=8).correct(batch)
            for backend in (COMPLEX128_BACKEND, Allocating()))
        assert want.converged.sum() >= 3
        assert got.solution.tobytes() == want.solution.tobytes()
        assert got.converged.tolist() == want.converged.tolist()
        assert got.iterations.tolist() == want.iterations.tolist()
        assert got.residual_norm.tobytes() == want.residual_norm.tobytes()


class TestOneSolveCallPerIteration:
    """The calls an iteration makes, as the benchmark's hooks see them:
    one ``BatchHomotopy.evaluate_batch`` and one
    ``repro.tracking.newton.batched_solve`` (the backend its third
    positional argument, a ``(live,)`` bool mask its ``result[1]``), plus
    one evaluation per small-update exit."""

    @staticmethod
    def _calls(monkeypatch, homotopy, points, tolerance, max_iterations):
        import numpy as np

        from repro.multiprec.backend import COMPLEX128_BACKEND
        from repro.tracking import BatchHomotopy, BatchNewtonCorrector
        from repro.tracking import newton as newton_module

        calls = []
        solve = newton_module.batched_solve
        evaluate = BatchHomotopy.evaluate_batch

        def spied_solve(*args, **kwargs):
            result = solve(*args, **kwargs)
            calls.append(("solve", args, result))
            return result

        def spied_evaluate(self, points, t):
            calls.append(("evaluate", len(t)))
            return evaluate(self, points, t)

        monkeypatch.setattr(newton_module, "batched_solve", spied_solve)
        monkeypatch.setattr(BatchHomotopy, "evaluate_batch", spied_evaluate)
        batch = COMPLEX128_BACKEND.from_points(points)
        result = BatchNewtonCorrector(
            homotopy.at(np.ones(len(points))), COMPLEX128_BACKEND,
            tolerance=tolerance, max_iterations=max_iterations
        ).correct(batch)
        return calls, result

    @staticmethod
    def _small_update_exits(calls):
        """Check the pattern; the number of small-update evaluations."""
        import numpy as np

        from repro.multiprec.backend import COMPLEX128_BACKEND

        exits = 0
        for i, call in enumerate(calls):
            if call[0] == "solve":
                _, args, result = call
                assert calls[i - 1][0] == "evaluate"
                assert args[2] is COMPLEX128_BACKEND
                assert result[1].dtype == np.bool_
                assert result[1].shape == (calls[i - 1][1],)
            elif i + 1 == len(calls) or calls[i + 1][0] != "solve":
                assert calls[i - 1][0] == "solve"
                exits += 1
        return exits

    def test_iterations_up_to_the_cap(self, monkeypatch):
        calls, result = self._calls(
            monkeypatch, _circle_line_homotopy(),
            [[2.5, -1.5], [3.0, 0.5j], [-2.0, 1.0]], 1e-300, 3)
        assert [call[0] for call in calls] == ["evaluate", "solve"] * 3
        assert self._small_update_exits(calls) == 0
        assert result.iterations.tolist() == [3, 3, 3]

    def test_an_iteration_where_every_lane_is_done(self, monkeypatch):
        calls, result = self._calls(
            monkeypatch, _circle_line_homotopy(),
            [[1.0, 1.0], [-1.0, -1.0]], 1e-12, 8)
        assert [call[0] for call in calls] == ["evaluate", "solve"]
        assert result.converged.all()

    def test_small_update_exits(self, monkeypatch):
        # The scaled sqrt(2) system of the small-update test above: the
        # updates fall below tolerance while the residual cannot.
        from repro.tracking import BatchHomotopy, total_degree_start_system

        scale = 1e6
        system = PolynomialSystem([
            Polynomial([(scale + 0j, Monomial((0,), (2,))),
                        (-2 * scale + 0j, Monomial((), ()))]),
            Polynomial([(1 + 0j, Monomial((0,), (1,))),
                        (-1 + 0j, Monomial((1,), (1,)))]),
        ])
        homotopy = BatchHomotopy(total_degree_start_system(system), system)
        calls, result = self._calls(
            monkeypatch, homotopy,
            [[1.4, 1.4], [1.41421356, 1.41421356], [3.0, 3.0]], 1e-14, 20)
        solves = sum(call[0] == "solve" for call in calls)
        exits = self._small_update_exits(calls)
        assert exits >= 1
        assert len(calls) == 2 * solves + exits
        assert solves == result.iterations.max()


# ----------------------------------------------------------------------
# the corrector against its former loop
# ----------------------------------------------------------------------
def reference_correct(corrector, points, active=None):
    """The batched corrector's former loop, kept as its test-only
    reference: every iteration gathers the working lanes, derives the
    verdict masks and scatters every lane back.  Returns the
    :class:`~repro.tracking.newton.BatchNewtonResult` fields plus
    ``reasons``, why each lane stopped: ``done``, ``singular``,
    ``small-accepted`` / ``small-refused`` (the small-update exit),
    ``cap`` or ``inactive``."""
    backend = corrector.backend
    tolerance = corrector.tolerance
    log = corrector.evaluation_log
    lanes = points.shape[-1]
    working = np.ones(lanes, dtype=bool) if active is None \
        else np.array(active, dtype=bool)
    converged = np.zeros(lanes, dtype=bool)
    iterations = np.zeros(lanes, dtype=np.int64)
    residuals = np.full(lanes, np.inf)
    reasons = np.where(working, "cap", "inactive").astype(object)
    x = backend.copy(points)
    with masked_lane_errstate():
        for _ in range(corrector.max_iterations):
            idx = working.nonzero()[0]
            if not idx.size:
                break
            step = NewtonUpdate(x[:, idx], tolerance)
            if log is not None:
                log.append(idx.size)
            evaluation = corrector.evaluator.evaluate(step.points, lanes=idx)
            iterations += working
            _, singular = batched_solve(evaluation.jacobian,
                                        evaluation.values, backend,
                                        copy=False, newton=step)
            done = step.residual <= tolerance
            advance = ~(done | singular)
            small = advance & (step.update <= tolerance)
            residuals[idx] = np.where(singular, np.inf, step.residual)
            converged[idx] = done
            working[idx] = advance & ~small
            x[:, idx] = step.points
            reasons[idx[done]] = "done"
            reasons[idx[singular]] = "singular"
            if small.any():
                small_idx = idx[small]
                if log is not None:
                    log.append(small_idx.size)
                final = corrector.evaluator.evaluate(x[:, small_idx],
                                                     lanes=small_idx)
                final_norms = lane_norms(final.values, backend)
                residuals[small_idx] = final_norms
                accepted = residual_accepted_after_update(final_norms,
                                                          tolerance)
                converged[small_idx] = accepted
                reasons[small_idx] = np.where(accepted, "small-accepted",
                                              "small-refused")
    return SimpleNamespace(solution=x, converged=converged,
                           iterations=iterations, residual_norm=residuals,
                           reasons=reasons)


class SingularFrom:
    """An evaluator whose Jacobian turns zero on chosen lanes: lane ``b``
    from its ``schedule[b]``-th evaluation on, so that the lane stops
    singular in the iteration of that evaluation."""

    def __init__(self, evaluator, backend, schedule):
        self.evaluator = evaluator
        self.backend = backend
        self.schedule = schedule
        self.seen = collections.Counter()

    def evaluate(self, points, lanes=None):
        evaluation = self.evaluator.evaluate(points, lanes=lanes)
        count = points.shape[-1]
        dead = np.zeros(count, dtype=bool)
        for k, lane in enumerate(range(count) if lanes is None
                                 else lanes.tolist()):
            self.seen[lane] += 1
            dead[k] = self.seen[lane] >= self.schedule.get(lane, math.inf)
        if not dead.any():
            return evaluation
        zero = self.backend.zeros((count,))
        return SimpleNamespace(values=evaluation.values, jacobian=[
            [self.backend.where(dead, zero, entry) for entry in row]
            for row in evaluation.jacobian])


def scaled_sqrt2_system(scale):
    """``scale (x0^2 - 2) = 0, x0 - x1 = 0``: ``sqrt(2)`` is no
    representable root, so the residual floor sits near ``scale * eps``
    while the updates shrink to ``eps``."""
    return PolynomialSystem([
        Polynomial([(scale + 0j, Monomial((0,), (2,))),
                    (-2 * scale + 0j, Monomial((), ()))]),
        Polynomial([(1 + 0j, Monomial((0,), (1,))),
                    (-1 + 0j, Monomial((1,), (1,)))]),
    ])


#: Per context: the system's scale and the tolerance at which the batch
#: below meets every stop reason.
STOP_REASONS = {"d": (1e4, 1e-14), "dd": (1e6, 1e-30), "qd": (1e6, 1e-62)}


def reasons_batch(context):
    """``(homotopy, t, points, active)``: lanes that stop for every reason
    at several iterations -- start-system roots at ``t = 0`` (done at once
    or later), a far and a NaN lane (the cap), two inactive lanes, and
    seeded lanes around ``sqrt(2)`` at mixed ``t`` that take the
    small-update exit, accepted or refused."""
    scale, _ = STOP_REASONS[context.name]
    system = scaled_sqrt2_system(scale)
    homotopy = BatchHomotopy(total_degree_start_system(system), system,
                             context=context)
    rng = np.random.default_rng(4)
    nan = complex(math.nan, 0.0)
    lanes = [(0.0, [1.0, 1.0]), (0.0, [1.0 + 1e-6, 1.0]),
             (1.0, [40.0, 40.0]), (1.0, [nan, nan]), (0.5, [1.2, 1.1]),
             (0.0, [1.1, 1.0]), (1.0, [1.5, 1.5]), (0.0, [2.0, 1.0])]
    t = rng.choice([0.0, 1.0, 0.5, 1e-3], 14)
    x0 = math.sqrt(2.0) + 10.0 ** rng.uniform(-17, 0.5, 14) \
        * rng.choice([-1, 1], 14)
    lanes += [(tb, [complex(a), complex(a + 0.01 * rng.normal())])
              for tb, a in zip(t, x0)]
    active = np.ones(len(lanes), dtype=bool)
    active[[5, 9]] = False
    return (homotopy, np.array([lane[0] for lane in lanes]),
            homotopy.backend.from_points([lane[1] for lane in lanes]),
            active)


@pytest.fixture(params=["native", "solve-off", "kernels-off"])
def newton_route(request, monkeypatch):
    """The Newton update natively, in Python (``SOLVE_CONTEXTS`` empty),
    or with no kernels at all."""
    if request.param == "solve-off":
        monkeypatch.setattr(compiled, "SOLVE_CONTEXTS", frozenset())
    elif request.param == "kernels-off":
        monkeypatch.setattr(compiled, "KERNELS", None)
    return request.param


def both_ways(homotopy, t, points, active, schedule, tolerance,
              max_iterations=5):
    """``(got, want, got_log, want_log)``: the corrector and its reference
    on fresh evaluators with the same singular schedule."""
    def corrector(log):
        return BatchNewtonCorrector(
            SingularFrom(homotopy.at(t), homotopy.backend, schedule),
            homotopy.backend, tolerance=tolerance,
            max_iterations=max_iterations, evaluation_log=log)

    got_log, want_log = [], []
    got = corrector(got_log).correct(points, active)
    want = reference_correct(corrector(want_log), points, active)
    return got, want, got_log, want_log


def assert_same_correction(got, want, got_log, want_log, backend):
    for a, b in zip(backend.component_planes(got.solution),
                    backend.component_planes(want.solution)):
        assert compiled._same_bits(a, b), "solution bits differ"
    assert got.converged.tolist() == want.converged.tolist()
    assert got.iterations.tolist() == want.iterations.tolist()
    assert compiled._same_bits(got.residual_norm, want.residual_norm)
    assert got_log == want_log


@pytest.mark.parametrize("context", [DOUBLE, DOUBLE_DOUBLE, QUAD_DOUBLE],
                         ids=lambda c: c.name)
class TestCorrectorMatchesItsFormerLoop:
    """The corrector gathers its lanes once and writes them back only in
    an iteration where some lane stops; its former loop gathered, masked
    and scattered every iteration.  Both make the same calls on the same
    lanes, so every bit, verdict, count and log entry repeats."""

    def test_every_stop_reason_at_several_iterations(self, context,
                                                     newton_route):
        homotopy, t, points, active = reasons_batch(context)
        # Lanes 4, 6 and 7 turn singular at their 1st, 3rd and 2nd
        # evaluation.
        got, want, got_log, want_log = both_ways(
            homotopy, t, points, active, {4: 1, 6: 3, 7: 2},
            STOP_REASONS[context.name][1])
        assert_same_correction(got, want, got_log, want_log,
                               homotopy.backend)
        stops = collections.defaultdict(set)
        for reason, iteration in zip(want.reasons, want.iterations.tolist()):
            stops[reason].add(iteration)
        assert set(stops) == {"done", "singular", "small-accepted",
                              "small-refused", "cap", "inactive"}
        assert len(stops["done"]) >= 2 and len(stops["singular"]) == 3
        assert stops["cap"] == {5} and stops["inactive"] == {0}

    def test_every_lane_stopping_at_once(self, context, newton_route):
        # Every lane still working in the second iteration turns singular
        # there.
        homotopy, t, points, active = reasons_batch(context)
        got, want, got_log, want_log = both_ways(
            homotopy, t, points, active, dict.fromkeys(range(len(t)), 2),
            STOP_REASONS[context.name][1])
        assert_same_correction(got, want, got_log, want_log,
                               homotopy.backend)
        assert set(want.iterations[active].tolist()) <= {1, 2}
        assert len(got_log) >= 2 and got_log[0] == active.sum()

    def test_every_lane_done_in_the_first_iteration(self, context,
                                                    newton_route):
        system = scaled_sqrt2_system(1.0)
        homotopy = BatchHomotopy(total_degree_start_system(system), system,
                                 context=context)
        points = homotopy.backend.from_points(
            [[1.0, 1.0], [-1.0, 1.0], [1.0, 1.0]])
        got, want, got_log, want_log = both_ways(
            homotopy, np.zeros(3), points, None, {}, 1e-12)
        assert_same_correction(got, want, got_log, want_log,
                               homotopy.backend)
        assert got.converged.all() and got_log == [3]

    def test_no_lane_active(self, context, newton_route):
        homotopy, t, points, _ = reasons_batch(context)
        got, want, got_log, want_log = both_ways(
            homotopy, t, points, np.zeros(len(t), dtype=bool), {}, 1e-12)
        assert_same_correction(got, want, got_log, want_log,
                               homotopy.backend)
        assert got_log == [] and not got.iterations.any()
