"""Homotopies between a start system and a target system.

The convex linear homotopy with the "gamma trick"

.. math::  h(x, t) = \\gamma (1 - t)\\, g(x) + t\\, f(x), \\qquad t: 0 \\to 1,

deforms the start system ``g`` into the target ``f``; for a random complex
``gamma`` the solution paths are smooth with probability one.  The
:class:`Homotopy` class composes two *evaluators* (anything with
``evaluate(point)`` returning ``values``/``jacobian``) so that either the
simulated-GPU pipeline or a CPU reference can supply the expensive
evaluations, exactly the role the paper intends for its kernels inside
PHCpack's trackers.  The scalar :class:`Homotopy` drives the paper's
examples and is the batched tracker's differential oracle.

:class:`BatchHomotopy` evaluates a whole lane batch of paths at once.  It
runs the start+target pair as one compiled
:class:`~repro.core.evalplan.HomotopyPlan` tape; with ``use_plan=False`` it
blends two walk-the-terms evaluators instead, the reference the plan is
tested and benchmarked against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.batch import VectorisedBatchEvaluator
from ..core.evalplan import (HomotopyPlan, checked_lane_parameters,
                             require_lane_batch, require_lane_parameters)
from ..errors import ConfigurationError
from ..multiprec.backend import ComplexBatchBackend, backend_for_context
from ..multiprec.numeric import DOUBLE, NumericContext

__all__ = ["HomotopyEvaluation", "Homotopy", "BatchHomotopyEvaluation", "BatchHomotopy"]


def _checked_gamma(gamma: Optional[complex]) -> complex:
    """Validate (or default) the accessibility constant ``gamma``."""
    if gamma is None:
        gamma = cmath.exp(1j * 0.84719633)  # fixed unit-modulus constant
    if abs(abs(gamma) - 1.0) > 1e-8:
        raise ConfigurationError("gamma should be a unit-modulus complex number")
    return complex(gamma)


@dataclass
class HomotopyEvaluation:
    """Values, Jacobian and t-derivative of the homotopy at ``(x, t)``."""

    values: List
    jacobian: List[List]
    t_derivative: List


class Homotopy:
    """Convex linear homotopy ``gamma (1-t) g(x) + t f(x)``.

    Parameters
    ----------
    start_evaluator / target_evaluator:
        Evaluators of ``g`` and ``f`` (same dimension, same numeric context).
    gamma:
        The random accessibility constant; a unit-modulus complex number.
        When None a fixed pseudo-random value is used so runs reproduce.
    context:
        The numeric context shared with the evaluators.
    """

    def __init__(self, start_evaluator, target_evaluator, *,
                 gamma: Optional[complex] = None,
                 context: NumericContext = DOUBLE,
                 dimension: Optional[int] = None):
        self.start_evaluator = start_evaluator
        self.target_evaluator = target_evaluator
        self.context = context
        self.gamma = _checked_gamma(gamma)
        self.dimension = dimension

    # ------------------------------------------------------------------
    def evaluate_at(self, point: Sequence, t: float) -> HomotopyEvaluation:
        """Evaluate ``h``, its Jacobian in ``x`` and its derivative in ``t``."""
        if not (0.0 <= t <= 1.0):
            raise ConfigurationError(f"the continuation parameter t={t} must lie in [0, 1]")
        ctx = self.context
        g = self.start_evaluator.evaluate(point)
        f = self.target_evaluator.evaluate(point)

        weight_g = ctx.from_complex(self.gamma * (1.0 - t))
        weight_f = ctx.from_complex(complex(t))
        minus_gamma = ctx.from_complex(-self.gamma)

        n = len(g.values)
        values = [g.values[i] * weight_g + f.values[i] * weight_f for i in range(n)]
        jacobian = [
            [g.jacobian[i][j] * weight_g + f.jacobian[i][j] * weight_f for j in range(n)]
            for i in range(n)
        ]
        # dh/dt = f(x) - gamma g(x)
        t_derivative = [f.values[i] + g.values[i] * minus_gamma for i in range(n)]
        return HomotopyEvaluation(values=values, jacobian=jacobian,
                                  t_derivative=t_derivative)

    # ------------------------------------------------------------------
    class _Frozen:
        """Adapter exposing the evaluator interface for a fixed ``t``."""

        def __init__(self, homotopy: "Homotopy", t: float):
            self._homotopy = homotopy
            self._t = t

        def evaluate(self, point: Sequence) -> HomotopyEvaluation:
            return self._homotopy.evaluate_at(point, self._t)

    def at(self, t: float) -> "Homotopy._Frozen":
        """Freeze ``t``: the result satisfies the evaluator interface used by
        :class:`~repro.tracking.newton.NewtonCorrector`."""
        return Homotopy._Frozen(self, t)


# ----------------------------------------------------------------------
# lane-batched homotopy: every path carries its own continuation parameter
# ----------------------------------------------------------------------
@dataclass
class BatchHomotopyEvaluation:
    """Per-lane values, Jacobian and t-derivative of the batched homotopy.

    ``values[i]`` and ``t_derivative[i]`` are ``(B,)`` batch arrays,
    ``jacobian[i][j]`` likewise.
    """

    values: List
    jacobian: List[List]
    t_derivative: List


class BatchHomotopy:
    """The gamma-trick homotopy over an ``(n, B)`` lane batch of points.

    Unlike the scalar :class:`Homotopy`, which composes two evaluator
    *objects*, the batched variant is built from the two *systems*
    directly.  Every lane carries its own ``t`` (the batch tracker advances
    paths at independent rates), so the convex weights ``gamma (1 - t)``
    and ``t`` are per-lane complex vectors that broadcast across the value
    and Jacobian rows.

    ``use_plan`` (default True) runs the compiled
    :class:`~repro.core.evalplan.HomotopyPlan`; False blends two
    :class:`~repro.core.batch.VectorisedBatchEvaluator` walks instead -- the
    differential reference, selected per instance.
    """

    def __init__(self, start_system, target_system, *,
                 gamma: Optional[complex] = None,
                 context: NumericContext = DOUBLE,
                 backend: Optional[ComplexBatchBackend] = None,
                 use_plan: bool = True):
        self.context = context
        self.backend = backend or backend_for_context(context)
        self.gamma = _checked_gamma(gamma)
        # Both routes refuse here: the plan compiles only on first use.
        if not (start_system.is_square() and target_system.is_square()):
            raise ConfigurationError("batched evaluation needs a square system")
        if start_system.dimension != target_system.dimension:
            raise ConfigurationError("start and target systems must share a dimension")
        self.dimension = target_system.dimension
        self.use_plan = use_plan
        self._plan = None
        self._walk = None
        self._systems = (start_system, target_system)

    @property
    def plan(self) -> HomotopyPlan:
        """The fused :class:`~repro.core.evalplan.HomotopyPlan` of the
        start+target pair (compiled on first use, cached)."""
        if self._plan is None:
            self._plan = HomotopyPlan(self._systems[0], self._systems[1],
                                      gamma=self.gamma, backend=self.backend)
        return self._plan

    @property
    def walk(self) -> Tuple[VectorisedBatchEvaluator, VectorisedBatchEvaluator]:
        """The walk-the-terms evaluators of the start and target systems,
        the ``use_plan=False`` route (built on first use, cached)."""
        if self._walk is None:
            self._walk = tuple(VectorisedBatchEvaluator(system, backend=self.backend)
                               for system in self._systems)
        return self._walk

    def evaluate_batch(self, points, t) -> BatchHomotopyEvaluation:
        """Evaluate ``h``, ``dh/dx`` and ``dh/dt`` at per-lane parameters.

        The plan runs the whole evaluation -- both system passes, the
        convex blend and ``dh/dt`` -- as one instruction tape
        (:mod:`repro.core.tape`), natively where the compiled kernels serve
        the backend: supports and power tables are shared across the two
        systems and the blend lands in place over the sparse Jacobian union
        instead of materialising ``n^2 + 2n`` blended temporaries.  The
        walk evaluates both systems term by term and blends them densely.

        Raises
        ------
        ConfigurationError
            When ``points`` is not an ``(n, B)`` lane batch, or any ``t``
            lies outside ``[0, 1]``, is NaN, or ``t`` does not broadcast to
            the ``B`` lanes (:func:`~repro.core.evalplan.
            require_lane_parameters`, shared by both routes).
        """
        if self.use_plan:
            values, jacobian, t_derivative = self.plan.execute(points, t)
            return BatchHomotopyEvaluation(values=values, jacobian=jacobian,
                                           t_derivative=t_derivative)
        require_lane_batch(points, self.dimension)
        t = require_lane_parameters(t, points.shape[1])
        g, f = (evaluator.evaluate(points) for evaluator in self.walk)

        weight_g = self.gamma * (1.0 - t).astype(np.complex128)
        weight_f = t.astype(np.complex128)

        n = self.dimension
        values = [g.values[i] * weight_g + f.values[i] * weight_f for i in range(n)]
        jacobian = [
            [g.jacobian[i][j] * weight_g + f.jacobian[i][j] * weight_f
             for j in range(n)]
            for i in range(n)
        ]
        # dh/dt = f(x) - gamma g(x), independent of t.
        t_derivative = [f.values[i] - g.values[i] * self.gamma for i in range(n)]
        return BatchHomotopyEvaluation(values=values, jacobian=jacobian,
                                       t_derivative=t_derivative)

    class _Frozen:
        """Adapter exposing a batched evaluator interface for fixed ``t``.

        ``t`` is copied and range-checked once, here; the evaluations of
        its lane subsets do not check it again.
        """

        def __init__(self, homotopy: "BatchHomotopy", t: np.ndarray):
            self._homotopy = homotopy
            t = checked_lane_parameters(t)
            # A scalar or length-1 t holds for every lane.
            self._t = t.reshape(()) if t.size == 1 else t

        def evaluate(self, points, lanes=None) -> BatchHomotopyEvaluation:
            """Evaluate ``points``; ``lanes`` selects the matching subset of
            the frozen per-lane parameters when the caller compressed the
            batch (the Newton corrector retiring converged lanes).

            Raises
            ------
            ConfigurationError
                When the frozen per-lane ``t`` has no entry for a lane.
            """
            t = self._t
            if t.ndim == 0:
                t = np.broadcast_to(t, getattr(points, "shape", ())[-1:],
                                    subok=True)
            elif lanes is not None:
                try:
                    t = t[lanes]
                except IndexError:
                    raise ConfigurationError(
                        f"frozen continuation parameters of shape "
                        f"{t.shape} have no entry for lane "
                        f"{int(np.max(lanes))}") from None
            return self._homotopy.evaluate_batch(points, t)

    def at(self, t: np.ndarray) -> "BatchHomotopy._Frozen":
        """Freeze the per-lane parameters for the batched Newton corrector;
        a scalar or length-1 ``t`` applies to every lane.

        Raises
        ------
        ConfigurationError
            When any ``t`` lies outside ``[0, 1]`` or is NaN.
        """
        return BatchHomotopy._Frozen(self, t)
