"""Escalation benchmark: the quality-up argument as an operational pipeline.

The paper's quality-up tables say *which* extended precision a given parallel
speedup pays for; the adaptive d -> dd -> qd escalation of
:class:`~repro.tracking.solver.EscalationPolicy` turns that into a running
policy: track everything in the cheapest arithmetic, re-track only the failed
residue wider -- and, since the checkpointing tracker can export per-lane
state, *resume* that residue from its last accepted ``(x, t)`` instead of
replaying the whole path.  This benchmark measures what the policy buys under
the calibrated GPU cost model:

1. all paths of the benchmark system are batch-tracked at each rung of the
   ladder, each rung receiving only the previous rung's failures, paths at
   infinity excepted: the solver's own walk
   (:func:`~repro.tracking.escalation.run_escalation_ladder` over
   :func:`~repro.tracking.escalation.track_rung`).  The tolerance is
   chosen so plain double precision genuinely fails.  The escalated rungs
   run twice from the shared first-rung outcome: once *warm* (resumed from
   the failed lanes' :class:`~repro.tracking.batch_tracker.LaneCheckpoint`
   state) and once *cold* (re-tracked from ``t = 0``), so the warm
   restart's saving is a measured difference, not a model;
2. every rung's *measured* evaluation log is priced as batched kernel
   launches in that rung's arithmetic -- start and target system stats are
   both measured (the irregular start system through the padded layout);
3. the conservative all-paths-at-the-widest baseline is *measured* too: the
   widest rung actually tracks every path and its own evaluation log is
   priced, replacing the former first-rung-profile extrapolation.  The
   summary compares escalated against widest-only in two components: the
   *total* predicted seconds are dominated by the fixed launch overhead at
   benchmark sizes, which batching amortises identically for every
   arithmetic -- the paper's quality-up regime, where the wide arithmetic is
   nearly free and the totals of the two pipelines are close; the
   *software-arithmetic* seconds isolate the precision-sensitive work (the
   dd ~8x / qd ~40x factors), where the escalated pipeline wins by roughly
   the fraction of paths that never needed the wide arithmetic.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..gpusim.costmodel import GPUCostModel
from ..multiprec.numeric import DOUBLE, DOUBLE_DOUBLE, NumericContext
from ..polynomials.system import PolynomialSystem
from ..tracking.batch_tracker import BatchTracker, BatchTrackResult
from ..tracking.escalation import (RungOutcome, run_escalation_ladder,
                                   track_rung)
from ..tracking.start_systems import start_solutions, total_degree_start_system
from ..tracking.tracker import TrackerOptions
from .batch_tracking import cyclic_quadratic_system, measured_homotopy_stats

__all__ = ["EscalationRow", "EscalationSummary", "run_escalation_bench",
           "run_scenario_escalation_bench"]


@dataclass
class EscalationRow:
    """One rung of the (warm) escalation ladder.

    ``resumed`` counts paths this rung continued mid-track from a cheaper
    rung's checkpoint; ``restarted`` counts paths tracked from ``t = 0``
    (the whole first rung, plus any start-correction failures later).
    ``mean_resume_t`` is the average continuation parameter the resumed
    paths continued from -- near 1.0 it means the rung only replayed
    endgames.
    """

    context: str
    overhead_factor: float
    paths_attempted: int
    paths_converged: int
    recovered: int
    batched_evaluations: int
    lane_evaluations: int
    predicted_device_seconds: float
    arithmetic_seconds: float
    paths_per_second: float
    tracker_wall_seconds: float
    resumed: int = 0
    restarted: int = 0
    mean_resume_t: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "context": self.context,
            "overhead": self.overhead_factor,
            "attempted": self.paths_attempted,
            "converged": self.paths_converged,
            "recovered": self.recovered,
            "resumed": self.resumed,
            "restarted": self.restarted,
            "mean_resume_t": self.mean_resume_t,
            "batched_evals": self.batched_evaluations,
            "lane_evals": self.lane_evaluations,
            "device_s": self.predicted_device_seconds,
            "arith_s": self.arithmetic_seconds,
            "paths_per_s": self.paths_per_second,
            "wall_s": self.tracker_wall_seconds,
        }


@dataclass
class EscalationSummary:
    """Aggregate outcome of one escalated solve.

    ``rows`` and the ``escalated_*`` fields describe the *warm* pipeline
    (checkpoint-resumed escalation, the production configuration); the
    ``cold_*`` fields describe the same ladder with every escalated rung
    re-tracked from ``t = 0`` (sharing the identical first rung), and the
    ``widest_only_*`` fields a *measured* run of every path at the widest
    arithmetic from the start.  All device/arithmetic seconds are the GPU
    cost model's pricing of measured evaluation logs; the ``*_wall_seconds``
    are host wall-clock of the tracking itself.
    """

    rows: List[EscalationRow]
    paths_total: int
    paths_converged: int
    recovered_by_escalation: int
    escalated_device_seconds: float
    escalated_arithmetic_seconds: float
    escalated_wall_seconds: float
    escalated_lane_evaluations: int
    cold_device_seconds: float
    cold_arithmetic_seconds: float
    cold_wall_seconds: float
    cold_lane_evaluations: int
    widest_only_device_seconds: float
    widest_only_arithmetic_seconds: float
    widest_only_wall_seconds: float
    widest_only_lane_evaluations: int
    widest_only_converged: int

    @property
    def saving_factor(self) -> float:
        """Total-seconds saving over the measured all-at-the-widest run.

        Close to (even slightly below) 1 at benchmark sizes: the fixed
        launch overhead dominates and batching amortises it for every
        arithmetic alike -- precision is wall-clock free, the quality-up
        regime.
        """
        if self.escalated_device_seconds == 0:
            return float("inf")
        return self.widest_only_device_seconds / self.escalated_device_seconds

    @property
    def arithmetic_saving_factor(self) -> float:
        """Software-arithmetic saving over all-at-the-widest.

        This isolates the precision-sensitive work the escalation policy
        economises: paths that converge on an early rung never pay the wide
        arithmetic's ~8x / ~40x factor.
        """
        if self.escalated_arithmetic_seconds == 0:
            return float("inf")
        return (self.widest_only_arithmetic_seconds
                / self.escalated_arithmetic_seconds)

    @property
    def warm_restart_saving_factor(self) -> float:
        """Predicted-seconds saving of warm over cold on the escalated rungs.

        Both pipelines share the identical first rung, so that rung's
        seconds are subtracted from both sides before taking the ratio --
        otherwise the factor would be diluted toward 1.0 whenever the first
        rung dominates (the common case: most paths never escalate).  What
        remains is the restart policy itself: a warm rung resumes each
        failed lane from its checkpoint (usually ``t = 1``, endgame only)
        while a cold rung replays the path from ``t = 0``.
        """
        first = self.rows[0].predicted_device_seconds if self.rows else 0.0
        warm_tail = self.escalated_device_seconds - first
        cold_tail = self.cold_device_seconds - first
        if warm_tail <= 0:
            return float("inf")
        return cold_tail / warm_tail

    def as_dict(self) -> Dict[str, object]:
        return {
            "rows": [row.as_dict() for row in self.rows],
            "paths_total": self.paths_total,
            "paths_converged": self.paths_converged,
            "recovered_by_escalation": self.recovered_by_escalation,
            "escalated_device_s": self.escalated_device_seconds,
            "escalated_arithmetic_s": self.escalated_arithmetic_seconds,
            "escalated_wall_s": self.escalated_wall_seconds,
            "widest_only_device_s": self.widest_only_device_seconds,
            "widest_only_arithmetic_s": self.widest_only_arithmetic_seconds,
            "saving_factor": self.saving_factor,
            "arithmetic_saving_factor": self.arithmetic_saving_factor,
            "widest_only": {
                "measured": True,
                "device_s": self.widest_only_device_seconds,
                "arith_s": self.widest_only_arithmetic_seconds,
                "wall_s": self.widest_only_wall_seconds,
                "lane_evals": self.widest_only_lane_evaluations,
                "converged": self.widest_only_converged,
            },
            "warm_vs_cold": {
                "warm_tracking_s": self.escalated_wall_seconds,
                "cold_tracking_s": self.cold_wall_seconds,
                "warm_device_s": self.escalated_device_seconds,
                "cold_device_s": self.cold_device_seconds,
                "warm_arith_s": self.escalated_arithmetic_seconds,
                "cold_arith_s": self.cold_arithmetic_seconds,
                "warm_lane_evals": self.escalated_lane_evaluations,
                "cold_lane_evals": self.cold_lane_evaluations,
                "warm_restart_saving_factor": self.warm_restart_saving_factor,
            },
        }


def _priced(model: GPUCostModel, stats, lanes: int,
            context: NumericContext) -> tuple:
    """(total, arithmetic+memory) seconds of one batched homotopy evaluation."""
    total = 0.0
    precision_sensitive = 0.0
    for s in stats:
        breakdown = model.batched_kernel_time(s, lanes, context)
        total += breakdown.total
        precision_sensitive += breakdown.arithmetic + breakdown.memory_throughput
    return total, precision_sensitive


def _priced_log(model: GPUCostModel, stats, log: Sequence[int],
                context: NumericContext) -> Tuple[float, float]:
    """Price a whole measured evaluation log in one arithmetic."""
    total = 0.0
    arith = 0.0
    for lanes in log:
        t, a = _priced(model, stats, lanes, context)
        total += t
        arith += a
    return total, arith


@dataclass
class _MeasuredRun:
    """One tracked-and-priced rung: the outcome plus its pricing."""

    context: NumericContext
    rung: RungOutcome
    outcome: BatchTrackResult
    wall_seconds: float
    device_seconds: float
    arithmetic_seconds: float


def _tracked(start: PolynomialSystem, target: PolynomialSystem,
             context: NumericContext, opts: TrackerOptions,
             batch_size: Optional[int], model: GPUCostModel, stats,
             pending: Sequence[Tuple[int, object]],
             checkpoints_by_index: Optional[Dict[int, object]] = None
             ) -> _MeasuredRun:
    """Track one rung (from the starts or resumed) and price its
    evaluation log."""
    tracker = BatchTracker(start, target, context=context, options=opts,
                           batch_size=batch_size)
    began = time.perf_counter()
    rung, outcome = track_rung(tracker, pending, checkpoints_by_index)
    wall = time.perf_counter() - began
    device, arith = _priced_log(model, stats, outcome.evaluation_log, context)
    return _MeasuredRun(context=context, rung=rung, outcome=outcome,
                        wall_seconds=wall, device_seconds=device,
                        arithmetic_seconds=arith)


def run_escalation_bench(dimension: int = 4,
                         ladder: Sequence[NumericContext] = (DOUBLE, DOUBLE_DOUBLE),
                         end_tolerance: float = 5e-17,
                         batch_size: Optional[int] = None,
                         options: Optional[TrackerOptions] = None,
                         cost_model: Optional[GPUCostModel] = None,
                         system: Optional[PolynomialSystem] = None,
                         ) -> EscalationSummary:
    """Escalated batch tracking of the benchmark system, priced per rung.

    The default ``end_tolerance`` of ``5e-17`` sits right at the
    double-precision roundoff floor, so a *fraction* of the paths genuinely
    fails at ``d`` and is recovered at ``dd`` -- the regime escalation is
    designed for.  Tighten it (1e-17 fails nearly everything at ``d``;
    below ~1e-32 even ``dd`` fails, pushing the residue into ``qd`` when the
    ladder includes :data:`~repro.multiprec.numeric.QUAD_DOUBLE`).

    Three pipelines run on the same workload: warm escalation (rungs above
    the first resume failed lanes from their checkpoints), cold escalation
    (same ladder, failed lanes re-tracked from ``t = 0``; the first rung is
    shared, so the difference is purely the restart policy), and the
    measured widest-only baseline (every path at ``ladder[-1]`` from the
    start).
    """
    if not ladder:
        raise ConfigurationError(
            "the escalation bench needs a ladder with at least one rung"
        )
    model = cost_model or GPUCostModel()
    target = system or cyclic_quadratic_system(dimension)
    start = total_degree_start_system(target)
    opts = options or TrackerOptions(end_tolerance=end_tolerance,
                                     end_iterations=12)

    # Measured launch templates per arithmetic (wider operands move more
    # memory transactions, so the counts are context-dependent): regular
    # target plus padded start system, one measurement per rung.
    stats_by_context = {ctx.name: measured_homotopy_stats(target, start, ctx)
                        for ctx in ladder}
    starts = list(start_solutions(target))
    runs: Dict[str, List[_MeasuredRun]] = {"warm": [], "cold": []}

    def walk(arm: str):
        """The ladder walk of one arm; the cold one re-tracks every
        escalated rung from ``t = 0`` and shares the warm first rung."""
        def run_rung(level, rung, pending, checkpoints_by_index):
            if arm == "cold" and level == 0:
                run = runs["warm"][0]
            else:
                run = _tracked(start, target, rung, opts, batch_size, model,
                               stats_by_context[rung.name], pending,
                               checkpoints_by_index
                               if arm == "warm" and level else None)
            runs[arm].append(run)
            return run.rung
        return run_escalation_ladder(ladder, starts, run_rung)

    warm = walk("warm")
    walk("cold")

    rows: List[EscalationRow] = []
    for level, run in enumerate(runs["warm"]):
        name = run.context.name
        attempted = warm.paths_by_context[name]
        converged = warm.converged_by_context[name]
        resume_ts = warm.resume_t_by_context[name]
        rows.append(EscalationRow(
            context=name,
            overhead_factor=model.arithmetic_cost_factor(run.context),
            paths_attempted=attempted,
            paths_converged=converged,
            recovered=converged if level else 0,
            batched_evaluations=run.outcome.batched_evaluations,
            lane_evaluations=run.outcome.lane_evaluations,
            predicted_device_seconds=run.device_seconds,
            arithmetic_seconds=run.arithmetic_seconds,
            paths_per_second=(attempted / run.device_seconds
                              if run.device_seconds else float("inf")),
            tracker_wall_seconds=run.wall_seconds,
            resumed=warm.resumed_by_context[name],
            restarted=warm.restarted_by_context[name],
            mean_resume_t=(sum(resume_ts) / len(resume_ts)
                           if resume_ts else 0.0),
        ))

    # ------------------------------------------------------------------
    # the conservative baseline, measured: every path tracked at the widest
    # arithmetic from the start, priced on its own evaluation log
    # ------------------------------------------------------------------
    widest = ladder[-1]
    baseline = _tracked(start, target, widest, opts, batch_size, model,
                        stats_by_context[widest.name],
                        list(enumerate(starts)))

    def total(arm: str, attribute: str):
        return sum(getattr(run, attribute) for run in runs[arm])

    return EscalationSummary(
        rows=rows,
        paths_total=len(starts),
        paths_converged=len(warm.solved),
        recovered_by_escalation=warm.recovered,
        escalated_device_seconds=total("warm", "device_seconds"),
        escalated_arithmetic_seconds=total("warm", "arithmetic_seconds"),
        escalated_wall_seconds=total("warm", "wall_seconds"),
        escalated_lane_evaluations=sum(run.outcome.lane_evaluations
                                       for run in runs["warm"]),
        cold_device_seconds=total("cold", "device_seconds"),
        cold_arithmetic_seconds=total("cold", "arithmetic_seconds"),
        cold_wall_seconds=total("cold", "wall_seconds"),
        cold_lane_evaluations=sum(run.outcome.lane_evaluations
                                  for run in runs["cold"]),
        widest_only_device_seconds=baseline.device_seconds,
        widest_only_arithmetic_seconds=baseline.arithmetic_seconds,
        widest_only_wall_seconds=baseline.wall_seconds,
        widest_only_lane_evaluations=baseline.outcome.lane_evaluations,
        widest_only_converged=baseline.outcome.paths_converged,
    )


def run_scenario_escalation_bench(scenarios=None,
                                  ladder: Sequence[NumericContext] = (
                                      DOUBLE, DOUBLE_DOUBLE),
                                  end_tolerance: float = 5e-17,
                                  batch_size: Optional[int] = None,
                                  options: Optional[TrackerOptions] = None,
                                  cost_model: Optional[GPUCostModel] = None,
                                  ) -> Dict[str, Dict[str, object]]:
    """Sweep the scenario registry through the escalation pipeline.

    One entry per scenario (defaults to
    :func:`repro.bench.scenarios.bench_scenarios`): paths, converged count,
    how many paths the wider rungs recovered, and both saving factors.  On
    scenarios with divergent paths (the noon family) the converged count
    must equal the classically known root count, not the Bezout number --
    the divergent residue retires at infinity on the first rung and never
    escalates, which is exactly the failure-accounting shape the single
    cyclic workload never exercised.
    """
    from .scenarios import bench_scenarios

    matrix: Dict[str, Dict[str, object]] = {}
    for scenario in (scenarios if scenarios is not None
                     else bench_scenarios()):
        summary = run_escalation_bench(
            ladder=ladder, end_tolerance=end_tolerance,
            batch_size=batch_size, options=options, cost_model=cost_model,
            system=scenario.build_system())
        entry = scenario.as_dict()
        entry.update({
            "paths_total": summary.paths_total,
            "paths_converged": summary.paths_converged,
            "recovered_by_escalation": summary.recovered_by_escalation,
        })
        # The factors are infinite when nothing escalated (zero escalated
        # seconds); the bench checker rejects non-finite measurements, so
        # only the meaningful values are recorded.
        for key, value in (
                ("saving_factor", summary.saving_factor),
                ("arithmetic_saving_factor",
                 summary.arithmetic_saving_factor),
                ("warm_restart_saving_factor",
                 summary.warm_restart_saving_factor)):
            if math.isfinite(value):
                entry[key] = value
        matrix[scenario.name] = entry
    return matrix
