"""Newton's method driven by a system-plus-Jacobian evaluator.

The motivation of the paper is that the evaluation of the system and its
Jacobian dominates the cost of Newton's corrector inside path trackers; the
GPU pipeline exists to accelerate exactly this loop.  :class:`NewtonCorrector`
implements the loop against the *evaluator interface* shared by
:class:`~repro.core.evaluator.GPUEvaluator`,
:class:`~repro.core.cpu_reference.CPUReferenceEvaluator` and
:class:`~repro.tracking.homotopy.Homotopy`: anything with an
``evaluate(point)`` returning an object with ``values`` and ``jacobian``
attributes, in any of the supported arithmetics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError, ConvergenceError
from ..multiprec.backend import ComplexBatchBackend, masked_lane_errstate
from ..multiprec.numeric import DOUBLE, NumericContext
from .batch_linsolve import (NewtonUpdate, batched_solve, lane_norms,
                             newton_stops)
from .linsolve import solve, vector_norm

__all__ = [
    "NewtonStep",
    "NewtonResult",
    "NewtonCorrector",
    "BatchNewtonResult",
    "BatchNewtonCorrector",
    "residual_accepted_after_update",
]


def residual_accepted_after_update(residual, tolerance: float):
    """The relaxed residual acceptance used after a tiny Newton update.

    When the update norm already dropped below tolerance the iteration is
    declared converged if the residual at the evaluated point is within two
    orders of magnitude of the target.  Shared by the scalar corrector and
    (per lane, on the immediate re-evaluation of small-update lanes) by the
    batched corrector; operates element-wise on arrays.
    """
    return residual <= 1e2 * tolerance


@dataclass(frozen=True)
class NewtonStep:
    """Diagnostics of one Newton iteration."""

    iteration: int
    residual_norm: float
    update_norm: float


@dataclass
class NewtonResult:
    """Outcome of a Newton run."""

    solution: List
    converged: bool
    iterations: int
    residual_norm: float
    update_norm: float
    history: List[NewtonStep] = field(default_factory=list)


class NewtonCorrector:
    """Damped-free Newton iteration ``x <- x - J(x)^{-1} f(x)``.

    Parameters
    ----------
    evaluator:
        Object with ``evaluate(point)`` returning ``values`` and ``jacobian``.
    context:
        Numeric context the evaluator works in.
    tolerance:
        Convergence threshold on the infinity norm of the residual ``f(x)``.
    max_iterations:
        Iteration cap; exceeding it with ``raise_on_failure=True`` raises
        :class:`~repro.errors.ConvergenceError`, otherwise the best iterate is
        returned with ``converged=False``.
    """

    def __init__(self, evaluator, *,
                 context: NumericContext = DOUBLE,
                 tolerance: float = 1e-12,
                 max_iterations: int = 20,
                 raise_on_failure: bool = False):
        self.evaluator = evaluator
        self.context = context
        self.tolerance = float(tolerance)
        self.max_iterations = int(max_iterations)
        self.raise_on_failure = bool(raise_on_failure)

    def _convert_point(self, point: Sequence) -> List:
        ctx = self.context
        return [ctx.from_complex(complex(x)) if isinstance(x, (int, float, complex)) else x
                for x in point]

    def correct(self, point: Sequence) -> NewtonResult:
        """Run Newton's method from ``point``."""
        ctx = self.context
        x = self._convert_point(point)
        history: List[NewtonStep] = []
        residual = float("inf")
        update = float("inf")

        for iteration in range(1, self.max_iterations + 1):
            evaluation = self.evaluator.evaluate(x)
            values = evaluation.values
            jacobian = evaluation.jacobian
            residual = vector_norm(values, ctx)
            if residual <= self.tolerance:
                history.append(NewtonStep(iteration, residual, 0.0))
                return NewtonResult(solution=x, converged=True, iterations=iteration,
                                    residual_norm=residual, update_norm=0.0,
                                    history=history)

            rhs = [-v for v in values]
            dx = solve(jacobian, rhs, ctx)
            update = vector_norm(dx, ctx)
            x = [xi + di for xi, di in zip(x, dx)]
            history.append(NewtonStep(iteration, residual, update))

            if update <= self.tolerance:
                # One last residual check at the updated point.
                final_eval = self.evaluator.evaluate(x)
                residual = vector_norm(final_eval.values, ctx)
                converged = residual_accepted_after_update(residual, self.tolerance)
                return NewtonResult(solution=x, converged=converged,
                                    iterations=iteration, residual_norm=residual,
                                    update_norm=update, history=history)

        if self.raise_on_failure:
            raise ConvergenceError(
                f"Newton's method did not reach tolerance {self.tolerance:g} in "
                f"{self.max_iterations} iterations (last residual {residual:.3e})"
            )
        return NewtonResult(solution=x, converged=False, iterations=self.max_iterations,
                            residual_norm=residual, update_norm=update, history=history)


# ----------------------------------------------------------------------
# the batched corrector: one Newton loop, B paths in lock step
# ----------------------------------------------------------------------
@dataclass
class BatchNewtonResult:
    """Per-lane outcome of a batched Newton run.

    ``solution`` is the updated ``(n, B)`` batch array; the remaining fields
    are ``(B,)`` NumPy arrays.  Lanes that were inactive on entry keep their
    input point and report ``converged=False`` with zero iterations.
    """

    solution: object
    converged: np.ndarray
    iterations: np.ndarray
    residual_norm: np.ndarray


class BatchNewtonCorrector:
    """Newton's iteration over a lane batch with per-lane retirement.

    The loop mirrors :class:`NewtonCorrector` -- evaluate, test the residual,
    solve, update -- but on ``(n, B)`` batch arrays.  Lanes whose residual
    passes the tolerance stop iterating (they *retire*) while the rest go
    on; lanes with a singular Jacobian retire as failures with an infinite
    residual, matching how the scalar tracker converts
    :class:`~repro.errors.SingularMatrixError` into non-convergence.

    An iteration is two calls: the evaluation, and one
    :func:`~repro.tracking.batch_linsolve.batched_solve` with a
    :class:`~repro.tracking.batch_linsolve.NewtonUpdate` request, which
    takes the residual norms and the convergence test, solves for the
    update, takes the update norms, moves the lanes that advance and counts
    the lanes it stopped (one native kernel call for the built-in
    backends).  The corrector gathers its working lanes once and the
    update moves that compact iterate in place, so an iteration in which
    no lane stopped does no lane bookkeeping at all.

    Parameters
    ----------
    evaluator:
        Object with ``evaluate(points)`` accepting an ``(n, B)`` batch array
        and returning per-lane ``values``/``jacobian`` rows (for example
        :meth:`repro.tracking.homotopy.BatchHomotopy.at`, which by default
        executes the compiled :class:`~repro.core.evalplan.HomotopyPlan`
        schedule -- the corrector is oblivious to which path produced the
        rows, since both are value-identical).
    backend:
        The batch array backend.
    tolerance / max_iterations:
        Same meaning as in the scalar corrector.
    evaluation_log:
        Optional list; every evaluator call appends the number of lanes it
        covered.  The throughput benchmark prices one batched kernel launch
        per entry from this log.
    """

    def __init__(self, evaluator, backend: ComplexBatchBackend, *,
                 tolerance: float = 1e-12,
                 max_iterations: int = 20,
                 evaluation_log: Optional[list] = None):
        self.evaluator = evaluator
        self.backend = backend
        self.tolerance = float(tolerance)
        self.max_iterations = int(max_iterations)
        self.evaluation_log = evaluation_log

    def correct(self, points, active: Optional[np.ndarray] = None) -> BatchNewtonResult:
        """Run the lock-step Newton loop from the batch ``points``.

        The lanes working on entry are gathered once into a *compact*
        iterate, which the evaluator receives with the matching lane
        indices (see
        :meth:`repro.tracking.homotopy.BatchHomotopy._Frozen.evaluate`)
        and the Newton update moves in place, so retired lanes cost no
        arithmetic and the ``evaluation_log`` counts exactly the lanes a
        batched kernel launch would cover.  Only in an iteration where the
        update stopped some lane (:func:`~repro.tracking.batch_linsolve.
        newton_stops`) are the stopping lanes written back -- their point,
        verdict, residual (infinite if singular) and the iteration they
        stopped at -- and the iterate compacted to the lanes that go on.
        Lanes still working at the iteration cap are written back
        unconverged.

        Lanes whose Newton update drops below tolerance take the scalar
        corrector's small-update exit *within the same iteration*: the
        updated point is re-evaluated immediately (one extra compressed
        evaluation, exactly the scalar loop's final residual check) and the
        lane retires -- converged when the relaxed residual test passes,
        failed otherwise.  Either way it stops iterating, matching
        :meth:`NewtonCorrector.correct`.

        Raises
        ------
        ConfigurationError
            When ``active`` is not a ``(B,)`` mask over the lanes of
            ``points``.
        """
        backend = self.backend
        tolerance = self.tolerance
        log = self.evaluation_log
        evaluate = self.evaluator.evaluate
        lanes = points.shape[-1]
        if active is None:
            idx = np.arange(lanes)
        else:
            working = np.asarray(active, dtype=bool)
            if working.shape != (lanes,):
                raise ConfigurationError(
                    f"active must be a ({lanes},) lane mask over the batch, "
                    f"got shape {working.shape}")
            idx = np.flatnonzero(working)
        converged = np.zeros(lanes, dtype=bool)
        iterations = np.zeros(lanes, dtype=np.int64)
        residuals = np.full(lanes, np.inf)
        x = backend.copy(points)
        if not idx.size or self.max_iterations < 1:
            return BatchNewtonResult(solution=x, converged=converged,
                                     iterations=iterations,
                                     residual_norm=residuals)
        # The compact iterate: lane k is lane idx[k] of the batch.
        xs = x[:, idx]

        # Diverging lanes carry inf/NaN through the batch arithmetic until
        # the residual test retires them; run the whole loop in the
        # masked-lane errstate scope so they stay silent.
        with masked_lane_errstate():
            for iteration in range(1, self.max_iterations + 1):
                step = NewtonUpdate(xs, tolerance)
                if log is not None:
                    log.append(idx.size)
                evaluation = evaluate(xs, lanes=idx)
                # The evaluation is rebuilt from scratch next iteration, so
                # the solver may consume (mutate) its Jacobian.
                _, singular = batched_solve(evaluation.jacobian,
                                            evaluation.values, backend,
                                            copy=False, newton=step)
                # Rebound by the Python route's allocating masked add.
                xs = step.points
                residual = step.residual
                if not step.stopped:
                    continue

                stop = newton_stops(residual, step.update, singular,
                                    tolerance)
                done = residual <= tolerance
                stopping = idx[stop]
                x[:, stopping] = xs[:, stop]
                converged[stopping] = done[stop]
                residuals[stopping] = np.where(singular, np.inf,
                                               residual)[stop]
                iterations[stopping] = iteration

                # The scalar small-update exit, lane-wise and in this
                # iteration: re-evaluate the freshly updated small-update
                # lanes and settle them for good (the iteration counter does
                # not advance for this final check, matching the scalar
                # corrector).
                small = stop & ~(done | singular)
                if small.any():
                    small_idx = idx[small]
                    if log is not None:
                        log.append(small_idx.size)
                    final = evaluate(xs[:, small], lanes=small_idx)
                    final_norms = lane_norms(final.values, backend)
                    residuals[small_idx] = final_norms
                    converged[small_idx] = residual_accepted_after_update(
                        final_norms, tolerance)

                if step.stopped == idx.size:
                    break
                going = ~stop
                idx = idx[going]
                xs = xs[:, going]
                residual = residual[going]
            else:
                # The iteration cap: the lanes still working retire
                # unconverged, at the last residual they measured.
                x[:, idx] = xs
                residuals[idx] = residual
                iterations[idx] = self.max_iterations

        return BatchNewtonResult(solution=x, converged=converged,
                                 iterations=iterations, residual_norm=residuals)
