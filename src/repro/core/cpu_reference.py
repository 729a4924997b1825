"""Single-core CPU baselines for system-plus-Jacobian evaluation.

The speedups in the paper's Tables 1 and 2 compare the Tesla C2050 against a
single core of the host CPU running the same evaluation algorithm.  Two CPU
evaluators are provided:

* :class:`CPUReferenceEvaluator` with ``algorithm="factored"`` (default): the
  common-factor + Speelpenning algorithm of section 3, run sequentially --
  this is the baseline the paper times;
* ``algorithm="naive"``: direct term-by-term evaluation of all ``n^2 + n``
  polynomials from their analytic derivatives, the simplest correct program,
  used as ground truth in tests and to quantify how much the algorithmic
  differentiation scheme saves even before any parallelism.

Both report wall-clock measured in-process (Python time, useful for relative
comparisons between arithmetics) and an operation count that the calibrated
:class:`~repro.gpusim.costmodel.CPUCostModel` converts into predicted Xeon
X5690 seconds for the table reproduction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..errors import ConfigurationError
from ..multiprec.numeric import DOUBLE, NumericContext
from ..polynomials.evaluation import EvaluationResult, evaluate_factored, evaluate_naive
from ..polynomials.speelpenning import OperationCount
from ..polynomials.system import PolynomialSystem

if TYPE_CHECKING:
    from ..gpusim.costmodel import CPUCostModel

__all__ = ["CPUEvaluation", "CPUReferenceEvaluator"]


@dataclass
class CPUEvaluation:
    """Result of one CPU evaluation."""

    values: List
    jacobian: List[List]
    operations: OperationCount
    elapsed_seconds: float

    def predicted_host_time(self, cost_model: Optional[CPUCostModel] = None,
                            context: NumericContext = DOUBLE) -> float:
        """Predicted single-core Xeon X5690 time for this evaluation."""
        from ..gpusim.costmodel import CPUCostModel

        model = cost_model or CPUCostModel()
        return model.evaluation_time(self.operations, context)


class CPUReferenceEvaluator:
    """Sequential evaluation of a system and its Jacobian on the host."""

    ALGORITHMS = ("factored", "naive")

    def __init__(self, system: PolynomialSystem, *,
                 context: NumericContext = DOUBLE,
                 algorithm: str = "factored"):
        if algorithm not in self.ALGORITHMS:
            raise ConfigurationError(
                f"algorithm must be one of {self.ALGORITHMS}, got {algorithm!r}"
            )
        self.system = system
        self.context = context
        self.algorithm = algorithm

    def evaluate(self, point: Sequence) -> CPUEvaluation:
        """Evaluate ``f`` and ``J_f`` at one point."""
        ctx = self.context
        converted = [ctx.from_complex(complex(x)) if isinstance(x, (int, float, complex)) else x
                     for x in point]
        start = time.perf_counter()
        if self.algorithm == "factored":
            result: EvaluationResult = evaluate_factored(self.system, converted, context=ctx)
        else:
            result = evaluate_naive(self.system, converted, context=ctx)
        elapsed = time.perf_counter() - start
        return CPUEvaluation(
            values=result.values,
            jacobian=result.jacobian,
            operations=result.operations,
            elapsed_seconds=elapsed,
        )

    def evaluate_complex(self, point: Sequence):
        """Evaluate and round back to hardware complex doubles."""
        result = self.evaluate(point)
        to_c = self.context.to_complex
        values = [to_c(v) for v in result.values]
        jacobian = [[to_c(v) for v in row] for row in result.jacobian]
        return values, jacobian

    def operations_per_evaluation(self, point: Optional[Sequence] = None) -> OperationCount:
        """Operation tally of one evaluation (evaluating at a default point)."""
        if point is None:
            point = [complex(1.0, 0.0)] * self.system.dimension
        return self.evaluate(point).operations
