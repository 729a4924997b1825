"""Batch evaluation: many points through the same device-resident system.

The paper's timings are for 100,000 evaluations of one system -- the pattern
of a path tracker, which keeps the coefficients, support tables and the padded
``Mons`` array on the device for the whole run and only uploads a new point
``x`` before each evaluation.  :class:`BatchEvaluator` packages that usage:

* it wraps a :class:`~repro.core.evaluator.GPUEvaluator` (or any object with
  the same ``evaluate`` interface) and feeds it a sequence of points;
* it aggregates the launch statistics of the whole batch and extrapolates the
  predicted device time to an arbitrary number of evaluations, which is how
  the benchmark harness regenerates the tables without simulating 100,000
  evaluations in Python;
* it cross-checks a configurable fraction of the batch against the sequential
  reference, which is how a long production run would guard against silent
  corruption.

:class:`VectorisedBatchEvaluator` is the structure-of-arrays sibling that the
batched path tracker drives: it evaluates the system and its Jacobian at *B*
points at once, with the points stored lane-wise in an ``(n, B)`` batch array
(see :mod:`repro.multiprec.backend`).  Per monomial it applies exactly the
paper's factorisation -- the common factor ``x^(a-1)`` of kernel 1 and the
Speelpenning forward/backward sweep of kernel 2, reusing
:func:`repro.polynomials.speelpenning.speelpenning_gradient` verbatim on
arrays -- so every lane performs the same operation sequence a per-path
kernel launch would.  It is the walk-the-terms reference: the compiled
:class:`~repro.core.evalplan.EvaluationPlan` must reproduce it bit for bit,
and the differential tests and the plan-vs-walk bench evaluate through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..multiprec.backend import ComplexBatchBackend, backend_for_context
from ..multiprec.numeric import DOUBLE, NumericContext
from ..polynomials.speelpenning import speelpenning_gradient
from ..polynomials.system import PolynomialSystem
from .evalplan import require_lane_batch

if TYPE_CHECKING:
    from ..gpusim.costmodel import CPUCostModel, GPUCostModel
    from .evaluator import GPUEvaluation, GPUEvaluator

__all__ = [
    "BatchStatistics",
    "BatchResult",
    "BatchEvaluator",
    "BatchSystemEvaluation",
    "VectorisedBatchEvaluator",
]


@dataclass
class BatchStatistics:
    """Aggregate of the launch statistics over a batch of evaluations."""

    evaluations: int = 0
    kernel_launches: int = 0
    total_multiplications: int = 0
    total_additions: int = 0
    global_transactions: int = 0
    shared_bank_conflicts: int = 0
    divergent_warps: int = 0
    predicted_device_seconds: float = 0.0

    def accumulate(self, evaluation: GPUEvaluation, model: GPUCostModel,
                   context: NumericContext) -> None:
        self.evaluations += 1
        self.kernel_launches += len(evaluation.launch_stats)
        for stats in evaluation.launch_stats:
            self.total_multiplications += stats.total_multiplications
            self.total_additions += stats.total_additions
            self.global_transactions += stats.global_transactions
            self.shared_bank_conflicts += stats.shared_bank_conflicts
            self.divergent_warps += stats.divergent_warps
        self.predicted_device_seconds += model.evaluation_time(evaluation.launch_stats, context)

    @property
    def predicted_seconds_per_evaluation(self) -> float:
        if self.evaluations == 0:
            return 0.0
        return self.predicted_device_seconds / self.evaluations

    def extrapolate(self, evaluations: int) -> float:
        """Predicted device seconds for ``evaluations`` runs of this system."""
        return self.predicted_seconds_per_evaluation * evaluations


@dataclass
class BatchResult:
    """Values, Jacobians and statistics of one batch run."""

    values: List[List]
    jacobians: List[List[List]]
    statistics: BatchStatistics
    validation_failures: int = 0

    def __len__(self) -> int:
        return len(self.values)


class BatchEvaluator:
    """Evaluate one system at many points, with aggregated statistics.

    Parameters
    ----------
    system:
        The regular polynomial system.
    context:
        Working arithmetic.
    evaluator:
        Optional pre-built evaluator (a :class:`GPUEvaluator` by default).
    validate_every:
        Cross-check every ``validate_every``-th point against the naive CPU
        reference (0 disables validation).
    validation_tolerance:
        Relative tolerance for those cross checks.
    """

    def __init__(self, system: PolynomialSystem, *,
                 context: NumericContext = DOUBLE,
                 evaluator: Optional[GPUEvaluator] = None,
                 cost_model: Optional[GPUCostModel] = None,
                 validate_every: int = 0,
                 validation_tolerance: float = 1e-10,
                 **evaluator_kwargs):
        # The simulated device and the cost model load only for the
        # evaluator that runs on them (a solve never builds one).
        from ..gpusim.costmodel import GPUCostModel
        from .cpu_reference import CPUReferenceEvaluator
        from .evaluator import GPUEvaluator

        self.system = system
        self.context = context
        self.evaluator = evaluator or GPUEvaluator(system, context=context, **evaluator_kwargs)
        self.cost_model = cost_model or GPUCostModel()
        if validate_every < 0:
            raise ConfigurationError("validate_every must be non-negative")
        self.validate_every = int(validate_every)
        self.validation_tolerance = float(validation_tolerance)
        self._reference = (CPUReferenceEvaluator(system, context=context, algorithm="naive")
                           if self.validate_every else None)

    def evaluate_batch(self, points: Iterable[Sequence]) -> BatchResult:
        """Evaluate the system and Jacobian at every point of the batch."""
        from .validation import compare_evaluations

        statistics = BatchStatistics()
        values: List[List] = []
        jacobians: List[List[List]] = []
        failures = 0

        for index, point in enumerate(points):
            evaluation = self.evaluator.evaluate(point)
            statistics.accumulate(evaluation, self.cost_model, self.context)
            values.append(evaluation.values)
            jacobians.append(evaluation.jacobian)

            if self._reference is not None and index % self.validate_every == 0:
                reference = self._reference.evaluate(point)
                report = compare_evaluations(evaluation.values, evaluation.jacobian,
                                             reference.values, reference.jacobian,
                                             context=self.context)
                if not report.within(self.validation_tolerance):
                    failures += 1

        return BatchResult(values=values, jacobians=jacobians,
                           statistics=statistics, validation_failures=failures)

    def predicted_run_times(self, evaluations: int,
                            statistics: BatchStatistics,
                            cpu_model: Optional[CPUCostModel] = None) -> dict:
        """Predicted GPU and single-core CPU seconds for a production run.

        The CPU prediction reuses the operation tally of one sequential
        factored evaluation, exactly as the benchmark harness does.
        """
        from ..gpusim.costmodel import CPUCostModel
        from .cpu_reference import CPUReferenceEvaluator

        cpu_model = cpu_model or CPUCostModel()
        reference = CPUReferenceEvaluator(self.system, context=self.context,
                                          algorithm="factored")
        operations = reference.operations_per_evaluation()
        gpu_seconds = statistics.extrapolate(evaluations)
        cpu_seconds = cpu_model.evaluation_time(operations, self.context) * evaluations
        return {
            "evaluations": evaluations,
            "predicted_gpu_seconds": gpu_seconds,
            "predicted_cpu_seconds": cpu_seconds,
            "predicted_speedup": (cpu_seconds / gpu_seconds) if gpu_seconds else float("inf"),
        }


# ----------------------------------------------------------------------
# structure-of-arrays evaluation for the batched tracker
# ----------------------------------------------------------------------
@dataclass
class BatchSystemEvaluation:
    """Values and Jacobian of one system at ``B`` points, lane-wise.

    ``values[i]`` is a ``(B,)`` batch array; ``jacobian[i][j]`` likewise.
    """

    values: List
    jacobian: List[List]

    @property
    def dimension(self) -> int:
        return len(self.values)


class VectorisedBatchEvaluator:
    """Evaluate a polynomial system and Jacobian at a lane batch of points.

    Parameters
    ----------
    system:
        Any square :class:`~repro.polynomials.system.PolynomialSystem`
        (regularity is *not* required -- unlike the simulated device, the
        structure-of-arrays path handles ragged supports).
    backend:
        A :class:`~repro.multiprec.backend.ComplexBatchBackend`; defaults to
        the backend of ``context``.
    context:
        Scalar arithmetic used when no backend is given.

    Every call walks the terms afresh and builds fresh accumulator arrays,
    so the returned rows belong to the caller outright.  For the compiled
    schedule of the same system build an
    :class:`~repro.core.evalplan.EvaluationPlan`.
    """

    def __init__(self, system: PolynomialSystem, *,
                 backend: Optional[ComplexBatchBackend] = None,
                 context: NumericContext = DOUBLE):
        if not system.is_square():
            raise ConfigurationError("batched evaluation needs a square system")
        self.system = system
        self.backend = backend or backend_for_context(context)
        self.dimension = system.dimension
        # Flatten each polynomial into (coeff, positions, exponents) triples
        # once; evaluate() walks this flat structure per batch.
        self._terms: List[List[Tuple[complex, Tuple[int, ...], Tuple[int, ...]]]] = [
            [(coeff, mono.positions, mono.exponents) for coeff, mono in poly.terms]
            for poly in system
        ]

    def evaluate(self, points) -> BatchSystemEvaluation:
        """Evaluate at an ``(n, B)`` batch array of points.

        Per monomial ``x^a`` the batch computes, vectorised over the lanes:

        1. the common factor ``cf = x^(a-1)`` (kernel 1's job),
        2. the Speelpenning product of the occurring variables and all its
           partial derivatives by the forward/backward sweep (kernel 2),
        3. ``value = coeff * cf * product`` and
           ``d/dx_p = coeff * a_p * cf * grad_p`` accumulated into the value
           row and Jacobian rows (kernel 3's summation).

        Raises
        ------
        ConfigurationError
            When ``points`` is not an ``(n, B)`` lane batch (a bare 1-D
            point used to be silently misread as ``n`` lanes).
        """
        require_lane_batch(points, self.dimension)

        backend = self.backend
        n = self.dimension
        lanes = points.shape[1]

        values: List = []
        jacobian: List[List] = []
        for poly_terms in self._terms:
            value = None
            row: List = [None] * n
            for coeff, positions, exponents in poly_terms:
                k = len(positions)
                if k == 0:
                    constant = backend.full((lanes,), coeff)
                    # Accumulators are freshly built per evaluation, so the
                    # backend may fold new terms into them in place.
                    value = constant if value is None else backend.iadd(value, constant)
                    continue

                factors = [points[p] for p in positions]

                # Kernel 1: the common factor x^(a-1) over the occurring
                # variables (absent when every exponent is 1).
                common = None
                for factor, exponent in zip(factors, exponents):
                    if exponent > 1:
                        power = factor ** (exponent - 1)
                        common = power if common is None else common * power

                # Kernel 2: Speelpenning product and gradient, the generic
                # scalar algorithm applied to (B,) arrays.  The last
                # gradient entry is the forward product of all-but-the-last
                # factor, so the full product costs one more multiplication.
                gradient, _ = speelpenning_gradient(factors)
                if k == 1:
                    product = factors[0]
                else:
                    product = gradient[-1] * factors[-1]

                monomial_value = product if common is None else common * product
                term_value = coeff * monomial_value
                value = term_value if value is None else backend.iadd(value, term_value)

                for j, (p, exponent) in enumerate(zip(positions, exponents)):
                    grad_j = gradient[j]
                    scale = coeff * exponent
                    if isinstance(grad_j, (int, float)):
                        # k == 1: the product's derivative is the constant 1.
                        contribution = (common * scale if common is not None
                                        else backend.full((lanes,), scale))
                    else:
                        base = grad_j if common is None else common * grad_j
                        contribution = scale * base
                    row[p] = (contribution if row[p] is None
                              else backend.iadd(row[p], contribution))

            values.append(value if value is not None else backend.zeros((lanes,)))
            jacobian.append([entry if entry is not None else backend.zeros((lanes,))
                             for entry in row])
        return BatchSystemEvaluation(values=values, jacobian=jacobian)
