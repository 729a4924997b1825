"""Predictors for the path-tracking predictor-corrector loop.

Two standard predictors are provided:

* :class:`SecantPredictor` -- extrapolates linearly through the two most
  recent accepted points on the path (falls back to the identity prediction
  when only one point is known);
* :class:`TangentPredictor` -- Euler prediction along the tangent of the
  path, obtained by solving ``H_x dx = -H_t dt`` with the same generic LU
  solver used by Newton's corrector (one extra linear solve per step but a
  better prediction, allowing larger steps).

The batched variants at the bottom apply the same formulas to ``(n, B)``
lane batches under the tracker's live-lane mask ``active``:
:class:`BatchSecantPredictor` keeps the previous accepted points as a
second structure-of-arrays and extrapolates every lane with its own step
ratio; :class:`BatchTangentPredictor` obtains the live lanes' tangents from
one batched linear solve.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..multiprec.backend import ComplexBatchBackend
from ..multiprec.numeric import DOUBLE, NumericContext
from .batch_linsolve import batched_solve
from .homotopy import Homotopy
from .linsolve import solve

__all__ = [
    "SecantPredictor",
    "TangentPredictor",
    "BatchSecantPredictor",
    "BatchTangentPredictor",
]


class SecantPredictor:
    """Linear extrapolation through the last two accepted path points."""

    def __init__(self, context: NumericContext = DOUBLE):
        self.context = context
        self._previous_point: Optional[List] = None
        self._previous_t: Optional[float] = None

    def reset(self) -> None:
        self._previous_point = None
        self._previous_t = None

    def remember(self, point: Sequence, t: float) -> None:
        """Record an accepted path point for the next extrapolation."""
        self._previous_point = list(point)
        self._previous_t = float(t)

    def predict(self, homotopy: Homotopy, point: Sequence, t: float, dt: float) -> List:
        """Predict the solution at ``t + dt`` from the point at ``t``."""
        if self._previous_point is None or self._previous_t is None or self._previous_t >= t:
            return list(point)
        ctx = self.context
        span = t - self._previous_t
        ratio = ctx.from_complex(complex(dt / span))
        return [
            current + (current - previous) * ratio
            for current, previous in zip(point, self._previous_point)
        ]


class TangentPredictor:
    """Euler step along the path tangent ``dx/dt = -H_x^{-1} H_t``."""

    def __init__(self, context: NumericContext = DOUBLE):
        self.context = context

    def reset(self) -> None:  # tangent prediction is stateless
        return None

    def remember(self, point: Sequence, t: float) -> None:
        return None

    def predict(self, homotopy: Homotopy, point: Sequence, t: float, dt: float) -> List:
        ctx = self.context
        evaluation = homotopy.evaluate_at(point, t)
        rhs = [-v for v in evaluation.t_derivative]
        tangent = solve(evaluation.jacobian, rhs, ctx)
        step = ctx.from_complex(complex(dt))
        return [x + dx * step for x, dx in zip(point, tangent)]


# ----------------------------------------------------------------------
# batched predictors over (n, B) lane arrays
# ----------------------------------------------------------------------
class BatchSecantPredictor:
    """Per-lane linear extrapolation through the last two accepted points.

    The history lives in the :class:`~repro.tracking.batch_tracker.PathBatch`
    itself (``prev_points`` / ``prev_t`` / ``has_prev``); this class only
    applies the formula, so it is stateless and safe to share.
    """

    def __init__(self, backend: ComplexBatchBackend):
        self.backend = backend

    def predict(self, batch_homotopy, points, prev_points, t: np.ndarray,
                prev_t: np.ndarray, dt: np.ndarray,
                has_prev: np.ndarray, active: np.ndarray):
        """Extrapolate each lane to ``t + dt``; identity without history.

        The formula runs on every lane, ``active`` or not: it is
        elementwise, so each live lane gets the bits it would get alone,
        and the corrector never reads the others.
        """
        span = t - prev_t
        usable = np.asarray(has_prev, dtype=bool) & (span > 0.0)
        ratio = np.divide(dt, span, out=np.zeros_like(dt), where=usable)
        # Lanes without usable history get ratio 0: the prediction collapses
        # to the identity, matching the scalar predictor's fallback.
        return points + (points - prev_points) * ratio


class BatchTangentPredictor:
    """Euler step along each lane's tangent ``dx/dt = -H_x^{-1} H_t``.

    One batched linear solve produces every live lane's tangent at once;
    lanes with a singular Jacobian fall back to the identity prediction (the
    corrector will reject and shrink their step).  The extra batched
    homotopy evaluation per prediction is recorded in ``evaluation_log``
    (when given) so the cost-model pricing covers predictor work too.
    The ``evaluate_batch`` call runs the homotopy's compiled
    :class:`~repro.core.evalplan.HomotopyPlan` (or, with ``use_plan=False``,
    the walk); the predictor needs no knowledge of which schedule ran.
    """

    def __init__(self, backend: ComplexBatchBackend, *,
                 evaluation_log=None):
        self.backend = backend
        self.evaluation_log = evaluation_log

    def predict(self, batch_homotopy, points, prev_points, t: np.ndarray,
                prev_t: np.ndarray, dt: np.ndarray,
                has_prev: np.ndarray, active: np.ndarray):
        """Step the ``active`` lanes along their tangents; the others come
        back as they are.  Only the active lanes are evaluated and solved."""
        backend = self.backend
        lanes = np.flatnonzero(active)
        x = points[:, lanes]
        if self.evaluation_log is not None:
            self.evaluation_log.append(int(lanes.size))
        evaluation = batch_homotopy.evaluate_batch(x, t[lanes])
        rhs = [-v for v in evaluation.t_derivative]
        # The evaluation is local to this prediction, so the solver may
        # consume (mutate) its Jacobian and our negated derivative rows.
        tangent, singular = batched_solve(evaluation.jacobian, rhs, backend,
                                          copy=False)
        step = tangent * dt[lanes].astype(np.complex128)
        moved = x + step
        if singular.any():
            moved = backend.where(singular, x, moved)
        predicted = backend.copy(points)
        predicted[:, lanes] = moved
        return predicted
