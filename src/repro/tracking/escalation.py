"""The escalation rung loop shared by the solver, the sharded service and
the escalation benchmark.

:func:`repro.tracking.solver.solve_system`,
:func:`repro.service.sharded.solve_system_sharded` and
:func:`repro.bench.escalation.run_escalation_bench` walk the same ladder:
track every pending path at the current rung, fold the outcomes into the
per-context accounting (``paths_by_context`` / ``converged_by_context`` /
resume statistics), move failures to the next rung with their
checkpoints, and count recoveries.  A path retired as diverging to
infinity stays among the failures but never moves up: no wider arithmetic
brings it back.  The decision reads the rung's
:class:`~repro.tracking.tracker.PathResult`, the view
:meth:`~repro.tracking.batch_tracker.LaneCheckpoint.result` of each
path's checkpoint, whichever route ran the rung.  Only *how a rung is run* differs -- in process
(:func:`track_rung`) versus fanned out over a shard pool with crash
retries -- so that part stays with the caller as a callback and everything
else lives here, once.  Every rung tracks with the batched tracker, so
every rung hands back one checkpoint per path for the next rung to resume
from.

The bookkeeping is deliberately order-preserving: pending paths are kept
in ascending path-index order and rung names are inserted in ladder order,
so a report built from :class:`LadderState` is bit-for-bit the same
whichever route ran the rungs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["LadderState", "RungOutcome", "run_escalation_ladder",
           "track_rung"]


@dataclass
class RungOutcome:
    """What one rung run hands back to the shared ladder loop.

    ``results`` and ``checkpoints`` are aligned with the pending list the
    callback received.  ``resumed_mid_ts`` carries the resume ``t`` of
    every lane the rung continued mid-path from a checkpoint; every other
    pending path counts as restarted from ``t = 0``.  The first rung
    resumes nothing and leaves it empty.
    """

    results: List[object]
    checkpoints: List[object]
    resumed_mid_ts: List[float] = field(default_factory=list)


@dataclass
class LadderState:
    """Accumulated accounting of a full ladder walk.

    The field names mirror the :class:`~repro.tracking.solver.SolveReport`
    fields they populate.
    """

    solved: Dict[int, object] = field(default_factory=dict)
    still_failing: Dict[int, object] = field(default_factory=dict)
    checkpoints_by_index: Dict[int, object] = field(default_factory=dict)
    paths_by_context: Dict[str, int] = field(default_factory=dict)
    converged_by_context: Dict[str, int] = field(default_factory=dict)
    resumed_by_context: Dict[str, int] = field(default_factory=dict)
    restarted_by_context: Dict[str, int] = field(default_factory=dict)
    resume_t_by_context: Dict[str, List[float]] = field(default_factory=dict)
    recovered: int = 0

    def converged_results(self) -> List[object]:
        """Successful path results in ascending path-index order."""
        return [self.solved[i] for i in sorted(self.solved)]

    def failed_results(self) -> List[object]:
        """Still-failing path results in ascending path-index order."""
        return [self.still_failing[i] for i in sorted(self.still_failing)]


def run_escalation_ladder(
    ladder: Sequence[object],
    starts: Sequence[object],
    run_rung: Callable[[int, object, List[Tuple[int, object]],
                        Dict[int, object]], RungOutcome],
) -> LadderState:
    """Walk the precision ladder over ``starts``, sharing the accounting.

    ``run_rung(level, rung, pending, checkpoints_by_index)`` tracks the
    pending ``(path_index, start)`` pairs at ``rung`` however the caller
    likes (in process or sharded; past the first rung it resumes them from
    the checkpoint map, which holds every path's last known checkpoint)
    and returns a :class:`RungOutcome` aligned with ``pending``.
    The loop folds each outcome into a :class:`LadderState`: per-rung path
    and convergence counts, resumed/restarted splits, checkpoint rollover,
    and the solved/failing partition that decides what the next rung sees:
    every failed path except those at infinity.
    """
    state = LadderState()
    pending: List[Tuple[int, object]] = list(enumerate(starts))
    for level, rung in enumerate(ladder):
        if not pending:
            break
        outcome = run_rung(level, rung, pending, state.checkpoints_by_index)
        name = rung.name
        state.paths_by_context[name] = len(pending)
        state.converged_by_context[name] = sum(
            1 for r in outcome.results if r.success)
        mid_path = list(outcome.resumed_mid_ts)
        state.resumed_by_context[name] = len(mid_path)
        state.restarted_by_context[name] = len(pending) - len(mid_path)
        state.resume_t_by_context[name] = mid_path
        next_pending: List[Tuple[int, object]] = []
        for position, ((index, start), result) in enumerate(
                zip(pending, outcome.results)):
            state.checkpoints_by_index[index] = outcome.checkpoints[position]
            if result.success:
                state.solved[index] = result
                if level > 0:
                    state.recovered += 1
                    state.still_failing.pop(index, None)
            else:
                state.still_failing[index] = result
                if not result.at_infinity:
                    next_pending.append((index, start))
        pending = next_pending
    return state


def track_rung(tracker, pending: List[Tuple[int, object]],
               checkpoints_by_index: Optional[Dict[int, object]] = None):
    """One rung in process on ``tracker``, the rung's
    :class:`~repro.tracking.batch_tracker.BatchTracker`: the pending paths
    resume from ``checkpoints_by_index`` when given and start at ``t = 0``
    otherwise.  Returns the :class:`RungOutcome` and the tracker's
    :class:`~repro.tracking.batch_tracker.BatchTrackResult`."""
    if checkpoints_by_index is None:
        outcome = tracker.track_batches([start for _, start in pending])
        resumed_mid_ts: List[float] = []
    else:
        resume = [checkpoints_by_index[index] for index, _ in pending]
        outcome = tracker.track_batches(resume_from=resume)
        resumed_mid_ts = [cp.t for cp in resume if cp.resumes_mid_path]
    return RungOutcome(results=outcome.results,
                       checkpoints=outcome.checkpoints(),
                       resumed_mid_ts=resumed_mid_ts), outcome
