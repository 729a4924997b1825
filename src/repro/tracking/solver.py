"""Blackbox solver: find all isolated solutions of a square polynomial system.

This is the top of the application stack the paper's introduction describes:
homotopy continuation methods "have led to efficient numerical solvers of
polynomial systems" and the evaluation/differentiation kernels are the
computational engine inside them.  :func:`solve_system` wires the pieces of
:mod:`repro.tracking` together the way PHCpack-style blackbox solvers do:

1. prepare a start system with known solutions through a pluggable
   :class:`~repro.tracking.start_systems.StartStrategy` (the classical
   total-degree construction by default; diagonal binomial and
   generic-member parameter-homotopy starts track fewer paths on the
   targets that support them);
2. construct the gamma-trick homotopy from the start system to the target;
3. track every path (optionally only a sample of them) through the
   structure-of-arrays :class:`~repro.tracking.batch_tracker.BatchTracker`,
   which needs a batch backend for every rung's context;
4. optionally *escalate*: re-track the failed-path residue at the next wider
   arithmetic of an :class:`EscalationPolicy` ladder (d -> dd -> qd),
   except the paths retired as diverging to infinity, the
   operational form of the paper's quality-up argument -- parallel batching
   pays for the software-arithmetic overhead, so precision is raised only
   where double precision actually fails;
5. sharpen the end points with Newton's method and de-duplicate the results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..multiprec.backend import backend_for_context
from ..multiprec.numeric import DOUBLE, DOUBLE_DOUBLE, QUAD_DOUBLE, NumericContext
from ..polynomials.system import PolynomialSystem
from .batch_tracker import BatchTracker
from .escalation import LadderState, run_escalation_ladder, track_rung
from .quality_up import affordable_precision
from .start_systems import (StartPlan, StartStrategy, TotalDegreeStart,
                            total_degree)
from .tracker import PathResult, TrackerOptions

__all__ = ["EscalationPolicy", "Solution", "SolveReport", "solve_system"]

#: The canonical precision ladder: hardware doubles, then the two software
#: arithmetics of the QD library the paper builds on.
DEFAULT_LADDER: Tuple[NumericContext, ...] = (DOUBLE, DOUBLE_DOUBLE, QUAD_DOUBLE)


@dataclass(frozen=True)
class EscalationPolicy:
    """How :func:`solve_system` widens the arithmetic for failed paths.

    The ladder is walked front to back: all paths start in ``ladder[0]``;
    whatever fails there is resumed in ``ladder[1]``, and so on, except the
    paths retired as diverging to infinity, which stay failed.  The
    entries must be distinct contexts ordered from cheapest to widest
    arithmetic.

    A failed path is *resumed* at the wider rung from its
    :class:`~repro.tracking.batch_tracker.LaneCheckpoint` -- the last
    accepted ``(x, t)`` of the cheaper run, converted into the wider
    arithmetic through the batch backends -- instead of being re-tracked
    from ``t = 0``.  Failed lanes typically fail near ``t = 1`` (a
    tightening endgame or a final sharpening that double precision cannot
    certify), so the resume reuses almost all of the cheap-rung work.  A
    path reaches a wider rung only short of ``t = 1`` or after an endgame
    whose measured residual exceeded ``end_tolerance``, so a resumed lane
    parked at ``t >= 1`` always re-enters the endgame in the wider
    arithmetic.

    Use :meth:`from_speedup` to let the quality-up analysis pick the starting
    rung: with enough parallel speedup the wider arithmetic is free in
    wall-clock terms, so the ladder starts there and only the residue pays
    for anything wider.

    Raises
    ------
    ConfigurationError
        When the ladder is empty, repeats a context or is not ordered from
        cheapest to widest.
    """

    ladder: Tuple[NumericContext, ...] = DEFAULT_LADDER

    def __post_init__(self):
        ladder = tuple(self.ladder)
        if not ladder:
            raise ConfigurationError("an escalation ladder needs at least one context")
        names = [ctx.name for ctx in ladder]
        for name in names:
            if names.count(name) > 1:
                raise ConfigurationError(
                    f"escalation ladder repeats context {name!r}, got "
                    f"{names}; each rung's accounting is keyed by its name")
        factors = [ctx.mul_cost_factor for ctx in ladder]
        if factors != sorted(factors):
            raise ConfigurationError(
                "escalation ladder must be ordered from cheapest to widest "
                f"arithmetic, got {names}"
            )
        object.__setattr__(self, "ladder", ladder)

    @property
    def start_context(self) -> NumericContext:
        return self.ladder[0]

    @classmethod
    def from_speedup(cls, speedup: float,
                     ladder: Optional[Sequence[NumericContext]] = None
                     ) -> "EscalationPolicy":
        """Start the ladder at the widest arithmetic the speedup pays for.

        Parameters
        ----------
        speedup:
            The parallel speedup over a sequential double run (the Tables'
            7.6 .. 19.6);
            :func:`~repro.tracking.quality_up.affordable_precision` turns it
            into the widest context whose overhead it covers.  Contexts
            cheaper than that starting rung are dropped -- they are strictly
            worse: same wall-clock budget, less precision.
        ladder:
            Candidate rungs, cheapest first; :data:`DEFAULT_LADDER` if
            omitted.

        Returns
        -------
        EscalationPolicy
            A policy whose first rung is the affordable arithmetic.
        """
        rungs = tuple(ladder) if ladder is not None else DEFAULT_LADDER
        start = affordable_precision(speedup, rungs)
        names = [ctx.name for ctx in rungs]
        index = names.index(start.name) if start.name in names else 0
        return cls(ladder=rungs[index:])


@dataclass(frozen=True)
class Solution:
    """One isolated solution found by the solver."""

    point: tuple
    residual: float
    multiplicity: int = 1

    def as_complex(self, context: NumericContext = DOUBLE) -> List[complex]:
        return [context.to_complex(x) if not isinstance(x, (int, float, complex))
                else complex(x) for x in self.point]


@dataclass
class SolveReport:
    """Everything :func:`solve_system` found out about a system.

    ``paths_tracked`` counts distinct start solutions; escalated re-tracks of
    the same path are visible in ``paths_by_context`` (paths *attempted* per
    arithmetic) and ``converged_by_context`` (how many of those succeeded).
    ``recovered_by_escalation`` counts paths that failed at the starting
    arithmetic but converged at a wider one.  ``failures`` holds every path
    that did not converge; :attr:`paths_at_infinity` counts those retired as
    diverging to infinity, which the ladder never escalates.

    The resume accounting splits every rung's attempts into
    ``resumed_by_context`` (paths continued mid-path from a cheaper rung's
    checkpoint, i.e. with ``t > 0`` of tracked progress reused) and
    ``restarted_by_context`` (paths tracked from ``t = 0``: the first rung,
    start-correction failures and, in the sharded service, shards
    cold-restarted after a checkpoint reload failed).
    ``resume_t_by_context`` records, per rung, the continuation parameter
    each resumed path continued from -- on typical workloads these cluster
    at ``t = 1.0``, which is exactly why warm restarts win: the wide
    arithmetic only replays the endgame.

    ``degradations`` lists, human-readably, every place the solve did
    something weaker than asked.  Only the sharded service records any
    (see below); an empty list means the solve ran exactly as configured.

    The sharded solve service (:func:`repro.service.sharded.
    solve_system_sharded`) fills the per-shard accounting: ``shards`` is
    the number of worker-process shards the path batch was partitioned
    into (1 for a single-process solve), ``worker_retries`` how many
    shard-rung tasks had to be rescheduled after a worker crash or
    timeout, and ``resumed_after_crash`` how many of those reschedules
    continued from persisted checkpoints instead of cold-restarting.
    The supervised runtime adds its verdicts: ``quarantined_shards``
    (shard tasks isolated after repeated worker kills -- their lanes are
    reported failed, the rest of the solve completes), ``hangs_detected``
    (workers killed for missed heartbeats), ``deadline_cancels``
    (cooperative per-job deadline cancellations sent),
    ``cold_restarts_after_corruption`` (resumes abandoned because the
    persisted checkpoints failed to decode or read), and
    ``inprocess_fallbacks`` (shard tasks run inline on the coordinator
    because no worker could be spawned).  Every one of those verdicts is
    also described in ``degradations``.

    ``start_strategy`` names the :class:`~repro.tracking.start_systems.
    StartStrategy` that produced the start system -- ``"total-degree"``
    unless a ``start=`` was passed -- so serving logs show which start a
    result (and its ``paths_tracked``) came from.
    """

    system: PolynomialSystem
    bezout_number: int
    paths_tracked: int
    paths_converged: int
    solutions: List[Solution] = field(default_factory=list)
    failures: List[PathResult] = field(default_factory=list)
    paths_by_context: Dict[str, int] = field(default_factory=dict)
    converged_by_context: Dict[str, int] = field(default_factory=dict)
    recovered_by_escalation: int = 0
    resumed_by_context: Dict[str, int] = field(default_factory=dict)
    restarted_by_context: Dict[str, int] = field(default_factory=dict)
    resume_t_by_context: Dict[str, List[float]] = field(default_factory=dict)
    degradations: List[str] = field(default_factory=list)
    shards: int = 1
    worker_retries: int = 0
    resumed_after_crash: int = 0
    quarantined_shards: List[int] = field(default_factory=list)
    hangs_detected: int = 0
    deadline_cancels: int = 0
    cold_restarts_after_corruption: int = 0
    inprocess_fallbacks: int = 0
    start_strategy: str = "total-degree"

    @property
    def success_rate(self) -> float:
        if self.paths_tracked == 0:
            return 0.0
        return self.paths_converged / self.paths_tracked

    @property
    def paths_at_infinity(self) -> int:
        """Failed paths retired as diverging to infinity."""
        return sum(1 for failure in self.failures if failure.at_infinity)

    @property
    def contexts_used(self) -> List[str]:
        """Names of the arithmetics that actually tracked paths, in order."""
        return list(self.paths_by_context)

    def distinct_solutions(self) -> List[Solution]:
        return list(self.solutions)


# ----------------------------------------------------------------------
# de-duplication: bucket on a rounded-coordinate key, scan within buckets
# ----------------------------------------------------------------------
#: Above this many candidate probe keys the dedup falls back to a full scan
#: for that one point (only reachable when many coordinates sit on cell
#: boundaries simultaneously).
_MAX_PROBES = 64


def _roundings(value: float, cell: float) -> List[int]:
    """Grid cell(s) of ``value``: its own, plus the neighbour when within a
    quarter cell of the boundary (two in-tolerance points differ by at most
    an eighth of a cell, so matching points always share a candidate)."""
    quotient = value / cell
    nearest = round(quotient)
    candidates = [nearest]
    fraction = quotient - nearest
    if fraction > 0.25:
        candidates.append(nearest + 1)
    elif fraction < -0.25:
        candidates.append(nearest - 1)
    return candidates


def _coordinate_candidates(z: complex, tolerance: float) -> List[tuple]:
    """Bucket-key candidates of one coordinate: (band, re cell, im cell).

    The cell size is ``8 * tolerance * 2^band`` with ``band`` the
    power-of-two magnitude band of ``max(1, |z|)``, mirroring the relative
    ``tolerance * max(1, |b|)`` matching rule.  Near band or cell
    boundaries the neighbouring band/cell is included, so two points within
    tolerance of each other are guaranteed to share at least one candidate
    (the first candidate is the *primary* key a cluster registers under).
    """
    scale = max(1.0, abs(z))
    if not math.isfinite(scale):
        return [("inf",)]
    mantissa, band = math.frexp(scale)
    bands = [band]
    if mantissa > 0.75:
        bands.append(band + 1)
    elif mantissa < 0.625 and band > 1:
        bands.append(band - 1)
    out = []
    for b in bands:
        cell = 8.0 * tolerance * math.ldexp(1.0, b)
        for re_cell in _roundings(z.real, cell):
            for im_cell in _roundings(z.imag, cell):
                out.append((b, re_cell, im_cell))
    return out


def _probe_keys(point: Sequence[complex], tolerance: float) -> List[tuple]:
    """All candidate bucket keys of a point, primary key first.

    Returns an empty list when the candidate product explodes (many
    coordinates on boundaries at once); the caller then scans every cluster
    for that point.
    """
    per_coordinate = [_coordinate_candidates(z, tolerance) for z in point]
    total = 1
    for candidates in per_coordinate:
        total *= len(candidates)
        if total > _MAX_PROBES:
            return []
    keys = [()]
    for candidates in per_coordinate:
        keys = [key + (c,) for key in keys for c in candidates]
    return keys


def _deduplicate(solutions: Sequence[PathResult], context: NumericContext,
                 tolerance: float) -> List[Solution]:
    """Cluster path end points that agree to ``tolerance`` in every coordinate.

    Clusters register under the primary rounded-coordinate key of their
    representative; a new end point probes its candidate keys and runs the
    exact tolerance scan only against the clusters found there -- O(1)
    probes per path instead of the former O(paths) scan per path.
    """
    found: List[Solution] = []
    rounded: List[List[complex]] = []
    buckets: Dict[tuple, List[int]] = {}
    # Clusters whose representative produced no probe keys (degenerate
    # boundary pile-ups): not reachable through any bucket, so every point
    # additionally scans these few.
    unbucketed: List[int] = []

    def matches(point, existing) -> bool:
        return all(abs(a - b) <= tolerance * max(1.0, abs(b))
                   for a, b in zip(point, existing))

    for result in solutions:
        point = [context.to_complex(x) if not isinstance(x, (int, float, complex))
                 else complex(x) for x in result.solution]
        keys = _probe_keys(point, tolerance)
        match = None
        if keys:
            seen_clusters = set(unbucketed)
            candidates = list(unbucketed)
            for key in keys:
                for index in buckets.get(key, ()):
                    if index not in seen_clusters:
                        seen_clusters.add(index)
                        candidates.append(index)
        else:  # degenerate point: exact full scan
            candidates = range(len(rounded))
        for index in candidates:
            if matches(point, rounded[index]):
                match = index
                break
        if match is None:
            if keys:
                buckets.setdefault(keys[0], []).append(len(found))
            else:
                unbucketed.append(len(found))
            rounded.append(point)
            found.append(Solution(point=tuple(result.solution), residual=result.residual))
        else:
            old = found[match]
            found[match] = Solution(point=old.point,
                                    residual=min(old.residual, result.residual),
                                    multiplicity=old.multiplicity + 1)
    return found


def prepare_starts(system: PolynomialSystem, start: Optional[StartStrategy],
                   max_paths: Optional[int], seed: Optional[int],
                   deduplication_tolerance: float
                   ) -> Tuple[StartPlan, List[Sequence]]:
    """Prepare the start system of ``start`` (total degree by default) and
    the start solutions to track: all of them, or a seeded sample of
    ``max_paths``.  Shared by :func:`solve_system` and the sharded
    service.

    Raises
    ------
    ConfigurationError
        When ``deduplication_tolerance`` is not finite and positive: it is
        used only after every path is tracked, so it is refused here.
    """
    if not (math.isfinite(deduplication_tolerance)
            and deduplication_tolerance > 0):
        raise ConfigurationError(
            f"deduplication_tolerance must be finite and > 0, got "
            f"{deduplication_tolerance!r}")
    plan = (start if start is not None else TotalDegreeStart()).prepare(system)
    if max_paths is not None and max_paths < plan.path_count:
        return plan, plan.sample_solutions(max_paths, seed=seed)
    return plan, list(plan.solutions())


def assemble_report(system: PolynomialSystem, plan: StartPlan,
                    starts: Sequence, state: LadderState,
                    ladder: Sequence[NumericContext],
                    deduplication_tolerance: float,
                    **service) -> SolveReport:
    """The :class:`SolveReport` of a finished ladder walk: de-duplicated
    roots, failures and per-rung accounting.  ``service`` carries the
    sharded service's own fields.  Shared by :func:`solve_system` and the
    sharded service."""
    converged = state.converged_results()
    return SolveReport(
        system=system,
        bezout_number=total_degree(system),
        paths_tracked=len(starts),
        paths_converged=len(converged),
        solutions=_deduplicate(converged, ladder[-1],
                               deduplication_tolerance),
        failures=state.failed_results(),
        paths_by_context=state.paths_by_context,
        converged_by_context=state.converged_by_context,
        recovered_by_escalation=state.recovered,
        resumed_by_context=state.resumed_by_context,
        restarted_by_context=state.restarted_by_context,
        resume_t_by_context=state.resume_t_by_context,
        start_strategy=plan.strategy,
        **service,
    )


def solve_system(system: PolynomialSystem, *,
                 context: NumericContext = DOUBLE,
                 options: Optional[TrackerOptions] = None,
                 max_paths: Optional[int] = None,
                 gamma: Optional[complex] = None,
                 deduplication_tolerance: float = 1e-6,
                 seed: Optional[int] = 0,
                 batch_size: Optional[int] = None,
                 escalation: Optional[EscalationPolicy] = None,
                 start: Optional[StartStrategy] = None) -> SolveReport:
    """Find isolated solutions of ``system`` by homotopy continuation.

    Parameters
    ----------
    system:
        The square target system ``f(x) = 0``.
    start:
        The :class:`~repro.tracking.start_systems.StartStrategy` that
        builds the start system and its solutions.  Default
        :class:`~repro.tracking.start_systems.TotalDegreeStart` -- the
        classical Bezout construction, bit-for-bit the historical
        behaviour.  :class:`~repro.tracking.start_systems.DiagonalStart`
        tracks only the diagonal-degree product on targets with dominant
        diagonal terms;
        :class:`~repro.tracking.start_systems.GenericMemberStart` seeds
        from a solved family member (see
        :class:`~repro.tracking.parameter.ParameterFamily`).  The chosen
        strategy is recorded in :attr:`SolveReport.start_strategy`.
    context:
        Working arithmetic for evaluation, linear algebra and tracking.
        Ignored when ``escalation`` is given (the ladder's first rung is the
        starting arithmetic then).
    options:
        Tracker options; sensible defaults otherwise.
    max_paths:
        Track only a random sample of this many start solutions (the Bezout
        number grows fast); ``None`` tracks every path.
    gamma:
        The homotopy's accessibility constant; random-but-fixed by default.
    deduplication_tolerance:
        Relative tolerance under which two path end points count as the same
        solution.
    seed:
        Seed for the start-solution sampling when ``max_paths`` is given.
    batch_size:
        Maximum lanes per batch for the batched engine; ``None`` tracks all
        paths in one batch.
    escalation:
        Optional :class:`EscalationPolicy`.  Paths that fail at one rung of
        the ladder are resumed at the next wider arithmetic from their last
        accepted ``(x, t)`` checkpoint rather than re-tracked from
        ``t = 0``; paths retired as diverging to infinity stay failed.
        The report's ``paths_by_context`` / ``converged_by_context`` /
        ``recovered_by_escalation`` fields record the outcome per rung, and
        ``resumed_by_context`` / ``restarted_by_context`` /
        ``resume_t_by_context`` record how much cheap-rung progress each
        wider rung reused.

    Returns
    -------
    SolveReport
        Distinct solutions with residuals and multiplicities, plus failures
        and the per-arithmetic path accounting.

    Raises
    ------
    ConfigurationError
        Before any path is tracked, when a ladder rung's context has no
        batch backend (the error names the context) or
        ``deduplication_tolerance`` is not finite and positive.
    """
    ladder = list(escalation.ladder) if escalation is not None else [context]
    for rung in ladder:
        backend_for_context(rung)  # refuse a backendless rung up front
    plan, starts = prepare_starts(system, start, max_paths, seed,
                                  deduplication_tolerance)

    def run_rung(level, rung, pending, checkpoints_by_index):
        tracker = BatchTracker(plan.start_system, system, context=rung,
                               options=options, batch_size=batch_size,
                               gamma=gamma)
        # Past the first rung, resume the residue from the checkpoints the
        # cheaper rung left for every path it tracked.
        return track_rung(tracker, pending,
                          checkpoints_by_index if level else None)[0]

    state = run_escalation_ladder(ladder, starts, run_rung)
    return assemble_report(system, plan, starts, state, ladder,
                           deduplication_tolerance)
