"""repro: evaluating polynomials in several variables and their derivatives
on a (simulated) GPU computing processor.

A from-scratch Python reproduction of Verschelde & Yoffe, *Evaluating
polynomials in several variables and their derivatives on a GPU computing
processor* (IPDPS workshops 2012, arXiv:1201.0499): the three-kernel massively
parallel evaluation of a sparse polynomial system and its Jacobian matrix,
together with every substrate it relies on -- a functional SIMT simulator of
the Tesla C2050, QD-style double-double / quad-double arithmetic, sparse
polynomial algebra, and a homotopy-continuation path tracker.

Typical use::

    from repro import GPUEvaluator, random_regular_system, random_point

    system = random_regular_system(dimension=32, monomials_per_polynomial=32,
                                   variables_per_monomial=9, max_variable_degree=2,
                                   seed=7)
    evaluator = GPUEvaluator(system)
    result = evaluator.evaluate(random_point(32, seed=1))
    values, jacobian = result.values, result.jacobian

See ``examples/`` for end-to-end scenarios and ``benchmarks/`` for the
regeneration of the paper's Tables 1 and 2.

The names below resolve on first use (:mod:`repro._lazy`): ``import repro``
loads no subpackage, so a solve never loads the simulated GPU, the bench
sweeps or the service.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

#: Public name -> the subpackage (or module) that exports it.
_EXPORTS = {
    "CPUReferenceEvaluator": "core",
    "GPUEvaluation": "core",
    "GPUEvaluator": "core",
    "MulticoreEvaluator": "core",
    "SystemLayout": "core",
    "validate_evaluator": "core",
    "ConfigurationError": "errors",
    "ConstantMemoryOverflow": "errors",
    "ConvergenceError": "errors",
    "DeviceCapacityError": "errors",
    "KernelExecutionError": "errors",
    "LaunchConfigurationError": "errors",
    "MemoryAccessError": "errors",
    "PathTrackingError": "errors",
    "ReproError": "errors",
    "SharedMemoryOverflow": "errors",
    "SingularMatrixError": "errors",
    "CPUCostModel": "gpusim",
    "GPUCostModel": "gpusim",
    "TESLA_C2050": "gpusim",
    "XEON_X5690": "gpusim",
    "DOUBLE": "multiprec",
    "DOUBLE_DOUBLE": "multiprec",
    "QUAD_DOUBLE": "multiprec",
    "ComplexDD": "multiprec",
    "DoubleDouble": "multiprec",
    "QuadDouble": "multiprec",
    "Monomial": "polynomials",
    "Polynomial": "polynomials",
    "PolynomialSystem": "polynomials",
    "random_point": "polynomials",
    "random_regular_system": "polynomials",
    "table1_system": "polynomials",
    "table2_system": "polynomials",
    "Homotopy": "tracking",
    "NewtonCorrector": "tracking",
    "PathTracker": "tracking",
}

__all__ = [
    *_EXPORTS,
    "bench",
    "core",
    "gpusim",
    "multiprec",
    "polynomials",
    "service",
    "tracking",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
