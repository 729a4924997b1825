"""Homotopy continuation substrate: Newton, homotopies, path tracking.

The paper's kernels exist to feed Newton's corrector inside a polynomial
homotopy path tracker.  This subpackage provides that application layer so
the evaluators can be exercised end to end:

* :mod:`~repro.tracking.linsolve` -- generic dense LU over any scalar type;
* :mod:`~repro.tracking.newton` -- the corrector;
* :mod:`~repro.tracking.start_systems` -- start strategies: total-degree,
  diagonal binomial, generic-member seeding;
* :mod:`~repro.tracking.parameter` -- parameter homotopy families served
  from one solved generic member;
* :mod:`~repro.tracking.homotopy` -- the gamma-trick convex homotopy;
* :mod:`~repro.tracking.predictor` / :mod:`~repro.tracking.tracker` -- the
  adaptive predictor-corrector loop;
* :mod:`~repro.tracking.quality_up` -- the precision-for-parallelism
  accounting of the paper's introduction.
"""

from .batch_linsolve import batched_solve
from .batch_tracker import (
    BatchTracker,
    BatchTrackResult,
    LaneCheckpoint,
    PathBatch,
    PathStatus,
)
from .homotopy import BatchHomotopy, BatchHomotopyEvaluation, Homotopy, HomotopyEvaluation
from .linsolve import lu_factor, lu_solve, residual_norm, solve, vector_norm
from .newton import (
    BatchNewtonCorrector,
    BatchNewtonResult,
    NewtonCorrector,
    NewtonResult,
    NewtonStep,
)
from .predictor import (
    BatchSecantPredictor,
    BatchTangentPredictor,
    SecantPredictor,
    TangentPredictor,
)
from .quality_up import (
    QualityUpEntry,
    affordable_precision,
    measured_overhead_factor,
    offset_factor,
    quality_up_table,
)
from .parameter import ParameterFamily
from .solver import EscalationPolicy, Solution, SolveReport, solve_system
from .start_systems import (
    DiagonalStart,
    GenericMemberStart,
    StartPlan,
    StartStrategy,
    TotalDegreeStart,
    sample_start_solutions,
    start_solutions,
    total_degree,
    total_degree_start_system,
)
from .tracker import (
    DivergenceTest,
    PathPoint,
    PathResult,
    PathTracker,
    StepControl,
    TrackerOptions,
)

__all__ = [
    "BatchHomotopy",
    "BatchHomotopyEvaluation",
    "BatchNewtonCorrector",
    "BatchNewtonResult",
    "BatchSecantPredictor",
    "BatchTangentPredictor",
    "BatchTracker",
    "BatchTrackResult",
    "Homotopy",
    "HomotopyEvaluation",
    "LaneCheckpoint",
    "PathBatch",
    "PathStatus",
    "StepControl",
    "DivergenceTest",
    "batched_solve",
    "DiagonalStart",
    "EscalationPolicy",
    "GenericMemberStart",
    "ParameterFamily",
    "StartPlan",
    "StartStrategy",
    "TotalDegreeStart",
    "NewtonCorrector",
    "NewtonResult",
    "NewtonStep",
    "PathPoint",
    "PathResult",
    "PathTracker",
    "QualityUpEntry",
    "SecantPredictor",
    "Solution",
    "SolveReport",
    "TangentPredictor",
    "TrackerOptions",
    "solve_system",
    "affordable_precision",
    "lu_factor",
    "lu_solve",
    "measured_overhead_factor",
    "offset_factor",
    "quality_up_table",
    "residual_norm",
    "sample_start_solutions",
    "solve",
    "start_solutions",
    "total_degree",
    "total_degree_start_system",
    "vector_norm",
]
