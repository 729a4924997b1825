"""Adaptive-step predictor-corrector path tracking.

This is the application layer the paper's kernels are meant to accelerate:
track a solution of the start system ``g(x) = 0`` along the homotopy
``h(x, t) = gamma (1-t) g(x) + t f(x)`` to a solution of the target system at
``t = 1``.  The loop is the standard one used by PHCpack-style trackers:

1. predict the solution at ``t + dt`` (secant or tangent predictor);
2. correct with a few Newton iterations at the new ``t``;
3. accept and possibly enlarge the step on success, or shrink the step and
   retry on failure; close to ``t = 1``, give up on a path whose growth
   says it diverges to infinity (:class:`DivergenceTest`);
4. finish with a sharpened Newton run at ``t = 1``.

Everything is generic over the numeric context, so the same tracker runs in
hardware doubles, double-doubles or quad-doubles -- which is what the
quality-up analysis compares.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError, SingularMatrixError
from ..multiprec.numeric import DOUBLE, NumericContext
from .homotopy import Homotopy
from .linsolve import vector_norm
from .newton import NewtonCorrector, NewtonResult
from .predictor import SecantPredictor, TangentPredictor

__all__ = ["TrackerOptions", "StepControl", "DivergenceTest", "PathPoint",
           "PathResult", "PathTracker", "AT_INFINITY_REASON"]

#: Failure reason of a path that :class:`DivergenceTest` retired.
AT_INFINITY_REASON = "path diverges to infinity"


@dataclass(frozen=True)
class TrackerOptions:
    """Tuning knobs of the tracker (defaults follow common practice).

    Both engines share them, and both refuse at construction a value no
    tracker can run with.  ``max_steps=0`` (correct the starts, run no
    round) and an ``initial_step`` above ``max_step`` (the first accepted
    step clips it) stay allowed.

    Raises
    ------
    ConfigurationError
        Naming the field, when ``predictor`` is not ``"secant"`` or
        ``"tangent"``; a step size or tolerance is not finite and
        positive; ``step_expansion`` is not finite and at least 1;
        ``step_reduction`` lies outside ``(0, 1)``; an iteration budget
        is below 1; or ``max_steps`` is negative.
    """

    initial_step: float = 0.1
    min_step: float = 1e-6
    max_step: float = 0.25
    step_expansion: float = 1.5
    step_reduction: float = 0.5
    corrector_tolerance: float = 1e-10
    corrector_iterations: int = 4
    end_tolerance: float = 1e-12
    end_iterations: int = 10
    max_steps: int = 500
    predictor: str = "secant"   # "secant" | "tangent"

    def __post_init__(self):
        if self.predictor not in ("secant", "tangent"):
            raise ConfigurationError(
                f"predictor must be 'secant' or 'tangent', got "
                f"{self.predictor!r}")
        rules = [(name, "finite and > 0", lambda v: math.isfinite(v) and v > 0)
                 for name in ("initial_step", "min_step", "max_step",
                              "corrector_tolerance", "end_tolerance")]
        rules += [("step_expansion", "finite and >= 1",
                   lambda v: math.isfinite(v) and v >= 1),
                  ("step_reduction", "in (0, 1)", lambda v: 0 < v < 1),
                  ("corrector_iterations", ">= 1", lambda v: v >= 1),
                  ("end_iterations", ">= 1", lambda v: v >= 1),
                  ("max_steps", ">= 0", lambda v: v >= 0)]
        for name, rule, holds in rules:
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and holds(value)):
                raise ConfigurationError(
                    f"{name} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class StepControl:
    """The adaptive step-size policy, shared by the scalar and batch engines.

    All three rules operate equally on Python floats and on per-lane NumPy
    arrays, so the batched tracker makes exactly the decisions the scalar
    loop would make for each path individually.
    """

    min_step: float
    max_step: float
    expansion: float
    reduction: float

    @classmethod
    def from_options(cls, options: "TrackerOptions") -> "StepControl":
        return cls(min_step=options.min_step, max_step=options.max_step,
                   expansion=options.step_expansion,
                   reduction=options.step_reduction)

    def grown(self, dt, t):
        """Step after an accepted point at ``t`` (clipped to reach 1.0)."""
        return np.minimum(np.minimum(self.max_step, dt * self.expansion),
                          1.0 - t + 1e-16)

    def shrunk(self, dt):
        """Step after a rejected point."""
        return dt * self.reduction

    def underflowed(self, dt):
        """Whether the step fell below the giving-up threshold."""
        return dt < self.min_step

    @staticmethod
    def resumed(dt, collapsed, initial_step):
        """Step a lane restarts with when resumed from a checkpoint.

        A lane keeps the step size it had earned -- that is what makes a
        same-arithmetic resume continue the interrupted run bit-for-bit --
        *except* lanes whose step had collapsed (retired by step
        underflow): their recorded ``dt`` sits below the giving-up
        threshold of the previous arithmetic and would cripple the retry,
        so they restart with a fresh ``initial_step``.  Operates equally on
        floats and per-lane arrays, like the other step rules.
        """
        return np.where(collapsed, initial_step, dt)


class DivergenceTest:
    """The endgame test that names a path diverging to infinity, shared by
    the scalar and batch engines.

    Near ``t = 1`` a path to infinity grows like ``|x| ~ (1 - t)^-a`` with
    ``a > 0``, while a path to a finite root levels off (``a -> 0``): the
    growth exponent of polyhedral end games (Huber & Verschelde, Numerical
    Algorithms 18, 1998).  After every accepted step inside the endgame
    zone ``1 - ZONE <= t < 1`` the engines estimate

        ``a = log(|x|_inf / |x_prev|_inf) / log((1 - t_prev) / (1 - t))``

    from the two accepted points they already keep, on double-rounded
    magnitudes, and retire the path when ``a >= MIN_RATE`` and ``a`` lies
    within ``AGREEMENT`` (relative) of the path's previous in-zone
    estimate.  A single estimate, or two large ones that disagree, also
    fit a finite path still growing into its root; the stored previous
    estimate is NaN until the first one, so that never agrees.  Like
    :class:`StepControl`, the rules operate equally on Python floats and
    on per-lane NumPy arrays.
    """

    ZONE = 1e-2
    MIN_RATE = 0.25
    AGREEMENT = 0.2

    @classmethod
    def near_end(cls, t):
        """Whether ``t >= 1 - ZONE``, ``t = 1`` included: one comparison,
        the only test a batch round takes of every lane."""
        return t >= 1.0 - cls.ZONE

    @classmethod
    def in_zone(cls, t):
        """Whether an accepted point at ``t`` lies in the endgame zone."""
        return cls.near_end(t) & (t < 1.0)

    @staticmethod
    def estimate(norm, prev_norm, t, prev_t):
        """The growth exponent ``a`` between two accepted points."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(norm / prev_norm) / np.log((1.0 - prev_t) / (1.0 - t))

    @classmethod
    def diverges(cls, estimate, previous):
        """Whether ``estimate`` and the ``previous`` in-zone estimate agree
        on a path to infinity."""
        return ((estimate >= cls.MIN_RATE)
                & (np.abs(estimate - previous) <= cls.AGREEMENT * previous))


@dataclass(frozen=True)
class PathPoint:
    """One accepted point along a path."""

    t: float
    point: tuple
    residual: float
    corrector_iterations: int


@dataclass
class PathResult:
    """Outcome of tracking one path."""

    success: bool
    solution: List
    residual: float
    steps_accepted: int
    steps_rejected: int
    newton_iterations: int
    path: List[PathPoint] = field(default_factory=list)
    failure_reason: Optional[str] = None

    @property
    def at_infinity(self) -> bool:
        """Whether the path was retired as diverging to infinity: no wider
        arithmetic brings it back."""
        return self.failure_reason == AT_INFINITY_REASON


class PathTracker:
    """Track one solution path of a homotopy from ``t = 0`` to ``t = 1``."""

    def __init__(self, homotopy: Homotopy, *,
                 context: NumericContext = DOUBLE,
                 options: Optional[TrackerOptions] = None):
        self.homotopy = homotopy
        self.context = context
        self.options = options or TrackerOptions()
        self._step_control = StepControl.from_options(self.options)
        if self.options.predictor == "tangent":
            self._predictor = TangentPredictor(context)
        else:
            self._predictor = SecantPredictor(context)

    @staticmethod
    def _correct_safely(corrector: NewtonCorrector, point: Sequence) -> NewtonResult:
        """Run a corrector, turning a singular Jacobian into non-convergence."""
        try:
            return corrector.correct(point)
        except SingularMatrixError:
            return NewtonResult(solution=list(point), converged=False, iterations=1,
                                residual_norm=float("inf"), update_norm=float("inf"))

    def track(self, start_solution: Sequence) -> PathResult:
        """Track the path starting at a solution of the start system."""
        ctx = self.context
        opts = self.options
        point = [ctx.from_complex(complex(x)) if isinstance(x, (int, float, complex)) else x
                 for x in start_solution]

        self._predictor.reset()
        t = 0.0
        dt = opts.initial_step
        accepted = 0
        rejected = 0
        newton_total = 0
        path: List[PathPoint] = []

        # Make sure the start point is actually on the path at t = 0.
        corrector = NewtonCorrector(self.homotopy.at(0.0), context=ctx,
                                    tolerance=opts.corrector_tolerance,
                                    max_iterations=opts.end_iterations)
        start_result = self._correct_safely(corrector, point)
        newton_total += start_result.iterations
        if not start_result.converged:
            return PathResult(success=False, solution=point,
                              residual=start_result.residual_norm,
                              steps_accepted=0, steps_rejected=0,
                              newton_iterations=newton_total,
                              failure_reason="start point does not satisfy the start system")
        point = start_result.solution
        self._predictor.remember(point, t)

        growth_exponent = float("nan")
        steps = 0
        while t < 1.0 and steps < opts.max_steps:
            steps += 1
            next_t = min(1.0, t + dt)
            predicted = self._predictor.predict(self.homotopy, point, t, next_t - t)
            corrector = NewtonCorrector(self.homotopy.at(next_t), context=ctx,
                                        tolerance=opts.corrector_tolerance,
                                        max_iterations=opts.corrector_iterations)
            result = self._correct_safely(corrector, predicted)
            newton_total += result.iterations

            if result.converged:
                self._predictor.remember(point, t)
                prev_point, prev_t = point, t
                point = result.solution
                t = next_t
                accepted += 1
                path.append(PathPoint(t=t, point=tuple(point),
                                      residual=result.residual_norm,
                                      corrector_iterations=result.iterations))
                dt = float(self._step_control.grown(dt, t))
                if DivergenceTest.in_zone(t):
                    rate = DivergenceTest.estimate(
                        vector_norm(point, ctx), vector_norm(prev_point, ctx),
                        t, prev_t)
                    if DivergenceTest.diverges(rate, growth_exponent):
                        return PathResult(success=False, solution=point,
                                          residual=result.residual_norm,
                                          steps_accepted=accepted,
                                          steps_rejected=rejected,
                                          newton_iterations=newton_total,
                                          path=path,
                                          failure_reason=AT_INFINITY_REASON)
                    growth_exponent = rate
            else:
                rejected += 1
                dt = self._step_control.shrunk(dt)
                if self._step_control.underflowed(dt):
                    return PathResult(success=False, solution=point,
                                      residual=result.residual_norm,
                                      steps_accepted=accepted, steps_rejected=rejected,
                                      newton_iterations=newton_total, path=path,
                                      failure_reason="step size underflow")

        if t < 1.0:
            return PathResult(success=False, solution=point, residual=float("inf"),
                              steps_accepted=accepted, steps_rejected=rejected,
                              newton_iterations=newton_total, path=path,
                              failure_reason="maximum number of steps exceeded")

        # Sharpen the solution of the target system at t = 1.
        end_corrector = NewtonCorrector(self.homotopy.at(1.0), context=ctx,
                                        tolerance=opts.end_tolerance,
                                        max_iterations=opts.end_iterations)
        final = self._correct_safely(end_corrector, point)
        newton_total += final.iterations
        return PathResult(success=final.converged, solution=final.solution,
                          residual=final.residual_norm,
                          steps_accepted=accepted, steps_rejected=rejected,
                          newton_iterations=newton_total, path=path,
                          failure_reason=None if final.converged else "end game did not converge")

    def track_many(self, start_solutions: Sequence[Sequence]) -> List[PathResult]:
        """Track several paths, one after another.

        These are the per-path jobs the manager/worker parallel trackers of
        the paper's introduction distribute.  To track many paths in lock
        step, use :class:`~repro.tracking.batch_tracker.BatchTracker`.
        """
        return [self.track(s) for s in start_solutions]
