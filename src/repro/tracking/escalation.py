"""The escalation rung loop shared by the solver and the sharded service.

:func:`repro.tracking.solver.solve_system` and
:func:`repro.service.sharded.solve_system_sharded` walk the same ladder:
track every pending path at the current rung, fold the outcomes into the
per-context accounting (``paths_by_context`` / ``converged_by_context`` /
resume statistics / endgame skips), move failures to the next rung with
their checkpoints, and count recoveries.  A path retired as diverging to
infinity stays among the failures but never moves up: no wider arithmetic
brings it back.  The decision reads the rung's
:class:`~repro.tracking.tracker.PathResult`, which both callers return
(the sharded one rebuilt from its portable record).  Only *how a rung is
run* differs -- in process versus fanned out over a shard pool with crash
retries -- so that part stays with the caller as a callback and everything
else lives here, once.  Both callers track every rung with the batched tracker, so
every rung hands back one checkpoint per path for the next rung to resume
from.

The bookkeeping is deliberately order-preserving: pending paths are kept
in ascending path-index order and rung names are inserted in ladder order,
so a report built from :class:`LadderState` is bit-for-bit what the two
previously duplicated inline loops produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = ["LadderState", "RungOutcome", "run_escalation_ladder"]


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
    endgame_skips: int = 0
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
    endgame_skips_by_context: Dict[str, int] = field(default_factory=dict)
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
        state.endgame_skips_by_context[name] = outcome.endgame_skips
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
