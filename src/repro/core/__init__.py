"""The paper's contribution: massively parallel evaluation and differentiation.

* :class:`~repro.core.evaluator.GPUEvaluator` -- the three-kernel evaluation
  pipeline on the simulated Tesla C2050;
* :mod:`~repro.core.layout` -- the ``Sm`` / ``Coeffs`` / ``Mons`` data layouts
  and the device-capacity checks;
* the three kernels (:mod:`~repro.core.common_factor_kernel`,
  :mod:`~repro.core.speelpenning_kernel`, :mod:`~repro.core.summation_kernel`);
* :class:`~repro.core.cpu_reference.CPUReferenceEvaluator` and
  :class:`~repro.core.multicore.MulticoreEvaluator` -- the sequential and
  multicore baselines;
* :mod:`~repro.core.opcounts` -- the closed-form ``5k-4`` / ``3k-6`` cost
  formulas;
* :mod:`~repro.core.validation` -- GPU-vs-CPU cross checking.
"""

from .batch import BatchEvaluator, BatchResult, BatchStatistics
from .evalplan import EvaluationPlan, HomotopyPlan, PlanOpCounts
from .common_factor_kernel import CommonFactorFromScratchKernel, CommonFactorKernel
from .cpu_reference import CPUEvaluation, CPUReferenceEvaluator
from .evaluator import GPUEvaluation, GPUEvaluator
from .layout import (
    ARRAY_COEFFS,
    ARRAY_COMMON_FACTORS,
    ARRAY_EXPONENTS,
    ARRAY_MONS,
    ARRAY_PACKED_SUPPORTS,
    ARRAY_POSITIONS,
    ARRAY_RESULTS,
    ARRAY_X,
    MonomialRecord,
    SharedMemoryBudget,
    SystemLayout,
    shared_memory_budget,
)
from .multicore import (
    MulticoreEvaluator,
    partition_lanes,
    partition_monomials,
)
from .packed_kernels import PackedCommonFactorKernel, PackedSpeelpenningKernel
from .opcounts import (
    KernelOperationCounts,
    expected_counts,
    kernel1_multiplications_per_thread,
    kernel2_multiplications_per_thread,
    sharing_report,
    speelpenning_multiplications,
)
from .speelpenning_kernel import SpeelpenningKernel
from .summation_kernel import SummationKernel
from .validation import ComparisonReport, compare_evaluations, validate_evaluator

__all__ = [
    "ARRAY_COEFFS",
    "ARRAY_COMMON_FACTORS",
    "ARRAY_EXPONENTS",
    "ARRAY_MONS",
    "ARRAY_PACKED_SUPPORTS",
    "ARRAY_POSITIONS",
    "ARRAY_RESULTS",
    "ARRAY_X",
    "BatchEvaluator",
    "BatchResult",
    "BatchStatistics",
    "CommonFactorFromScratchKernel",
    "CommonFactorKernel",
    "ComparisonReport",
    "CPUEvaluation",
    "CPUReferenceEvaluator",
    "EvaluationPlan",
    "GPUEvaluation",
    "GPUEvaluator",
    "HomotopyPlan",
    "KernelOperationCounts",
    "MonomialRecord",
    "MulticoreEvaluator",
    "PackedCommonFactorKernel",
    "PlanOpCounts",
    "PackedSpeelpenningKernel",
    "SharedMemoryBudget",
    "SpeelpenningKernel",
    "SummationKernel",
    "SystemLayout",
    "compare_evaluations",
    "expected_counts",
    "kernel1_multiplications_per_thread",
    "kernel2_multiplications_per_thread",
    "partition_lanes",
    "partition_monomials",
    "shared_memory_budget",
    "sharing_report",
    "speelpenning_multiplications",
    "validate_evaluator",
]
