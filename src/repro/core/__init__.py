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

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "ARRAY_COEFFS": "layout",
    "ARRAY_COMMON_FACTORS": "layout",
    "ARRAY_EXPONENTS": "layout",
    "ARRAY_MONS": "layout",
    "ARRAY_PACKED_SUPPORTS": "layout",
    "ARRAY_POSITIONS": "layout",
    "ARRAY_RESULTS": "layout",
    "ARRAY_X": "layout",
    "BatchEvaluator": "batch",
    "BatchResult": "batch",
    "BatchStatistics": "batch",
    "CommonFactorFromScratchKernel": "common_factor_kernel",
    "CommonFactorKernel": "common_factor_kernel",
    "ComparisonReport": "validation",
    "CPUEvaluation": "cpu_reference",
    "CPUReferenceEvaluator": "cpu_reference",
    "EvaluationPlan": "evalplan",
    "GPUEvaluation": "evaluator",
    "GPUEvaluator": "evaluator",
    "HomotopyPlan": "evalplan",
    "KernelOperationCounts": "opcounts",
    "MonomialRecord": "layout",
    "MulticoreEvaluator": "multicore",
    "PackedCommonFactorKernel": "packed_kernels",
    "PlanOpCounts": "evalplan",
    "PackedSpeelpenningKernel": "packed_kernels",
    "SharedMemoryBudget": "layout",
    "SpeelpenningKernel": "speelpenning_kernel",
    "SummationKernel": "summation_kernel",
    "SystemLayout": "layout",
    "compare_evaluations": "validation",
    "expected_counts": "opcounts",
    "kernel1_multiplications_per_thread": "opcounts",
    "kernel2_multiplications_per_thread": "opcounts",
    "partition_monomials": "multicore",
    "shared_memory_budget": "layout",
    "sharing_report": "opcounts",
    "speelpenning_multiplications": "opcounts",
    "validate_evaluator": "validation",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
