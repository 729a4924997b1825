"""Batched many-path tracking: a structure of arrays over the whole batch.

The paper accelerates evaluation and differentiation in double-double
arithmetic precisely so that *many* homotopy paths can be processed on
massively parallel hardware.  The scalar :class:`~repro.tracking.tracker.
PathTracker` walks one path at a time; this module drives ``B`` paths in
lock step:

* :class:`PathBatch` holds the state of all paths as columns (*lanes*) of
  ``(n, B)`` batch arrays -- a structure of arrays over
  :class:`~repro.multiprec.ddarray.ComplexDDArray` (or ``complex128``), the
  layout a device would keep resident between kernel launches;
* :class:`BatchTracker` runs the predictor -> Newton-corrector -> step
  control loop for the whole batch at once.  Every lane carries its own
  continuation parameter ``t`` and step ``dt``; per-lane boolean masks let
  converged, failed and finished paths *retire* without stalling the rest,
  among them paths that diverge to infinity, named in the endgame zone by
  :class:`~repro.tracking.tracker.DivergenceTest` (``AT_INFINITY``).
  A round runs on the whole batch under its live-lane mask, and the Newton
  corrector compresses to the lanes still working before every evaluation
  and solve, so retired lanes cost no evaluation;
* one batched homotopy evaluation replaces ``B`` scalar evaluations, which
  is what lets the cost model price one kernel launch per batch instead of
  one per path (see
  :meth:`repro.gpusim.costmodel.GPUCostModel.batched_kernel_time`);
* every lane's final state is exportable as a :class:`LaneCheckpoint` -- the
  last accepted ``(x, t)`` with ``x`` as the batch's float planes, the step
  size, the work counters and the failure cause -- and
  :meth:`BatchTracker.track_batches` accepts ``resume_from=`` checkpoints
  so a batch can start *mid-path*.  Checkpoints convert between
  arithmetics through the batch backends
  (:func:`repro.multiprec.backend.convert_batch`), which is what lets the
  escalation pipeline resume a failed path one precision rung wider
  instead of re-tracking it from ``t = 0``.

The checkpoint is the one per-path record of a run: the tracker reports
each path as :meth:`LaneCheckpoint.result`, a plain
:class:`~repro.tracking.tracker.PathResult`, so callers (and the
differential tests) can compare its roots directly with the scalar
engine's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import CheckpointCorruptError, ConfigurationError
from ..multiprec.backend import (
    ComplexBatchBackend,
    backend_for_context,
    backend_named,
    convert_batch,
    masked_lane_errstate,
)
from ..multiprec.numeric import DOUBLE, NumericContext
from .batch_linsolve import lane_norms
from .homotopy import BatchHomotopy
from .newton import BatchNewtonCorrector
from .predictor import BatchSecantPredictor, BatchTangentPredictor
from .tracker import (AT_INFINITY_REASON, DivergenceTest, PathResult,
                      StepControl, TrackerOptions)

__all__ = ["PathStatus", "LaneCheckpoint", "PathBatch", "BatchTrackResult",
           "BatchTracker"]


class PathStatus(IntEnum):
    """Per-lane life cycle of a batched path."""

    TRACKING = 0
    SUCCESS = 1
    START_FAILED = 2
    STEP_UNDERFLOW = 3
    MAX_STEPS = 4
    ENDGAME_FAILED = 5
    AT_INFINITY = 6


_FAILURE_REASONS = {
    PathStatus.START_FAILED: "start point does not satisfy the start system",
    PathStatus.STEP_UNDERFLOW: "step size underflow",
    PathStatus.MAX_STEPS: "maximum number of steps exceeded",
    PathStatus.ENDGAME_FAILED: "end game did not converge",
    PathStatus.AT_INFINITY: AT_INFINITY_REASON,
}


@dataclass(frozen=True)
class LaneCheckpoint:
    """The exportable state of one lane of a :class:`PathBatch`.

    A checkpoint captures everything the tracker needs to continue the path
    from where the lane retired: the last *accepted* point and its
    continuation parameter (on a failed step the batch never moves, so
    ``point`` is always on the path to working accuracy), the predictor
    history, the adaptive step state and the retirement cause.  Checkpoints
    are plain floats and ints -- the points are the lane's float planes in
    the capturing arithmetic (``context_name``) -- so they outlive their
    batch, cross process boundaries as they are and can seed a batch in a
    *different* arithmetic: :meth:`PathBatch.from_checkpoints` packs and
    widens them (:func:`repro.multiprec.backend.convert_batch`).  Only
    :meth:`result` turns ``point`` into context scalars.

    Attributes
    ----------
    context_name:
        Name of the numeric context the checkpoint was captured in
        (``"d"``, ``"dd"`` or ``"qd"``).
    point / t:
        The last accepted solution ``x`` as one tuple of float planes per
        coordinate (storage order: ``(re, im)`` at ``d``, 4 floats at
        ``dd``, 8 at ``qd``) and its continuation parameter.
    prev_point / prev_t / has_prev:
        The secant predictor's memory: the previously accepted point (as
        planes, like ``point``), or a copy of ``point`` with
        ``has_prev=False`` when no step was accepted.
    dt:
        The adaptive step size at retirement.
    residual:
        The last measured per-lane residual norm (double-rounded).
    status:
        The lane's :class:`PathStatus` at capture -- the failure cause for
        retired lanes, ``TRACKING`` for lanes interrupted mid-path.
    steps_accepted / steps_rejected / newton_iterations:
        The lane's work counters, carried into the resumed batch so path
        results accumulate across rungs.
    growth_exponent:
        The lane's last in-zone growth-exponent estimate of
        :class:`~repro.tracking.tracker.DivergenceTest`, NaN before the
        first one; a same-arithmetic resume compares its next estimate
        with it, as the uninterrupted run would.
    """

    context_name: str
    point: tuple
    t: float
    prev_point: tuple
    prev_t: float
    has_prev: bool
    dt: float
    residual: float
    status: PathStatus
    steps_accepted: int
    steps_rejected: int
    newton_iterations: int
    growth_exponent: float = math.nan

    @property
    def failed(self) -> bool:
        """Whether the lane retired with a failure cause."""
        return self.status not in (PathStatus.SUCCESS, PathStatus.TRACKING)

    @property
    def failure_reason(self) -> Optional[str]:
        """Human-readable failure cause, ``None`` for healthy lanes."""
        return _FAILURE_REASONS.get(self.status)

    @property
    def resumes_mid_path(self) -> bool:
        """Whether resuming this checkpoint reuses tracked progress
        (``t > 0``) rather than restarting the path from scratch."""
        return self.t > 0.0

    def result(self) -> PathResult:
        """The lane's outcome: its point as context scalars, measured
        residual, work counters and failure cause as a
        :class:`~repro.tracking.tracker.PathResult`."""
        decode = backend_named(self.context_name).scalar_from_planes
        return PathResult(
            success=self.status is PathStatus.SUCCESS,
            solution=[decode(planes) for planes in self.point],
            residual=self.residual,
            steps_accepted=self.steps_accepted,
            steps_rejected=self.steps_rejected,
            newton_iterations=self.newton_iterations,
            failure_reason=self.failure_reason,
        )

    def _defect(self) -> Optional[str]:
        """Why this checkpoint's state cannot resume, naming the field, or
        ``None``: a context without a batch backend, a coordinate whose
        plane count is not the context's, or a ``prev_point`` whose
        dimension is not ``point``'s."""
        try:
            width = backend_named(self.context_name).planes_per_scalar
        except ConfigurationError as exc:
            return f"'context': {exc}"
        want = [width] * len(self.point)
        for name in ("point", "prev_point"):
            got = [len(planes) for planes in getattr(self, name)]
            if got != want:
                return (f"{name!r} has {got} planes per coordinate; a "
                        f"{self.context_name!r} point of dimension "
                        f"{len(self.point)} has {want}")
        return None

    # ------------------------------------------------------------------
    # portable state: plain floats/ints, exact across d/dd/qd
    # ------------------------------------------------------------------
    def to_portable(self) -> Dict[str, object]:
        """This checkpoint as a dict of plain floats, ints and bools.

        The points' planes become lists, so the whole state is
        JSON/npz-friendly while :meth:`from_portable` reconstructs the
        checkpoint bit-for-bit -- inf/NaN lanes and signed zeros included.
        This is the storage format of the sharded solve service
        (:mod:`repro.service.store`); nothing else encodes a checkpoint.
        """
        return {
            "context": self.context_name,
            "point": [list(planes) for planes in self.point],
            "t": float(self.t),
            "prev_point": [list(planes) for planes in self.prev_point],
            "prev_t": float(self.prev_t),
            "has_prev": bool(self.has_prev),
            "dt": float(self.dt),
            "residual": float(self.residual),
            "status": int(self.status),
            "steps_accepted": int(self.steps_accepted),
            "steps_rejected": int(self.steps_rejected),
            "newton_iterations": int(self.newton_iterations),
            "growth_exponent": float(self.growth_exponent),
        }

    @classmethod
    def from_portable(cls, state: Dict[str, object]) -> "LaneCheckpoint":
        """Rebuild a checkpoint from :meth:`to_portable` output.

        Raises
        ------
        CheckpointCorruptError
            When the state does not revive -- a missing or non-numeric
            entry, a context without a batch backend, planes that do not
            fit it or ``point`` -- naming the field.  The record is
            poison: resume nothing from it.
        """
        try:
            checkpoint = cls(
                context_name=str(state["context"]),
                point=tuple(tuple(map(float, planes))
                            for planes in state["point"]),
                t=float(state["t"]),
                prev_point=tuple(tuple(map(float, planes))
                                 for planes in state["prev_point"]),
                prev_t=float(state["prev_t"]),
                has_prev=bool(state["has_prev"]),
                dt=float(state["dt"]),
                residual=float(state["residual"]),
                status=PathStatus(int(state["status"])),
                steps_accepted=int(state["steps_accepted"]),
                steps_rejected=int(state["steps_rejected"]),
                newton_iterations=int(state["newton_iterations"]),
                growth_exponent=float(state["growth_exponent"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CheckpointCorruptError(
                f"portable checkpoint does not revive "
                f"({type(exc).__name__}: {exc})") from exc
        defect = checkpoint._defect()
        if defect is not None:
            raise CheckpointCorruptError(
                f"portable checkpoint does not revive ({defect})")
        return checkpoint


@dataclass
class PathBatch:
    """Structure-of-arrays state of ``B`` homotopy paths.

    ``points`` and ``prev_points`` are ``(n, B)`` batch arrays; every other
    array field is a ``(B,)`` NumPy array.  Lane ``b`` of every array belongs
    to path ``b`` for the batch's whole life: the tracker runs every round
    on these arrays under the :attr:`active` mask, and no per-path objects
    or lane subsets are ever materialised.  A lane retires by its ``status``
    alone.  ``growth_exponent`` holds each lane's last in-zone estimate of
    :class:`~repro.tracking.tracker.DivergenceTest` (NaN before the first
    one).  ``rounds`` counts the lock-step rounds the tracker ran on this
    batch and ``endgame_skipped`` the resumed lanes that retired without
    re-entering the endgame.

    A batch is constructed either fresh at ``t = 0``
    (:meth:`from_start_solutions`) or mid-path from per-lane
    :class:`LaneCheckpoint` state (:meth:`from_checkpoints`), and every lane
    can be exported back out as a checkpoint (:meth:`checkpoints`) -- the
    round trip behind warm-restarted precision escalation.
    """

    backend: ComplexBatchBackend
    points: object
    prev_points: object
    t: np.ndarray
    prev_t: np.ndarray
    dt: np.ndarray
    has_prev: np.ndarray
    status: np.ndarray
    residual: np.ndarray
    steps_accepted: np.ndarray
    steps_rejected: np.ndarray
    newton_iterations: np.ndarray
    growth_exponent: np.ndarray
    rounds: int = 0
    endgame_skipped: int = 0

    @classmethod
    def from_start_solutions(cls, backend: ComplexBatchBackend,
                             starts: Sequence[Sequence],
                             initial_step: float) -> "PathBatch":
        """Pack start solutions into a fresh batch at ``t = 0``.

        Parameters
        ----------
        backend:
            The batch array backend holding the lane arrays.
        starts:
            ``B`` start solutions (sequences of scalars the backend accepts).
        initial_step:
            The step size every lane begins with.

        Raises
        ------
        ConfigurationError
            When ``starts`` is empty.
        """
        if not starts:
            raise ConfigurationError("a path batch needs at least one start solution")
        points = backend.from_points(starts)
        lanes = len(starts)
        return cls(
            backend=backend,
            points=points,
            prev_points=backend.copy(points),
            t=np.zeros(lanes),
            prev_t=np.zeros(lanes),
            dt=np.full(lanes, float(initial_step)),
            has_prev=np.zeros(lanes, dtype=bool),
            status=np.full(lanes, int(PathStatus.TRACKING), dtype=np.int8),
            residual=np.full(lanes, np.inf),
            steps_accepted=np.zeros(lanes, dtype=np.int64),
            steps_rejected=np.zeros(lanes, dtype=np.int64),
            newton_iterations=np.zeros(lanes, dtype=np.int64),
            growth_exponent=np.full(lanes, np.nan),
        )

    @classmethod
    def from_checkpoints(cls, backend: ComplexBatchBackend,
                         checkpoints: Sequence[LaneCheckpoint],
                         initial_step: float) -> "PathBatch":
        """Rebuild a batch mid-path from per-lane checkpoints.

        Checkpoint planes are packed by their capturing context's backend
        and converted into ``backend``'s arithmetic: lanes are grouped by
        that context and each group moves as one structure-of-arrays
        :func:`~repro.multiprec.backend.convert_batch` call, so the common
        case -- a whole residue escalating one rung wider -- costs a handful
        of NumPy plane copies.  Widening (``d -> dd -> qd``) preserves every
        checkpointed value bit-for-bit.

        The resumed lane state follows the checkpoint exactly, with two
        policy exceptions:

        * all lanes restart as ``TRACKING`` (resuming *is* the retry), and
        * a lane that retired by ``STEP_UNDERFLOW`` gets a fresh
          ``initial_step`` -- its recorded ``dt`` had collapsed below the
          giving-up threshold under the old arithmetic, which would cripple
          the retry; every other lane keeps its earned step size so a
          same-arithmetic resume continues the cold run bit-for-bit.

        Lanes checkpointed at ``t >= 1`` are created inactive: they skip the
        predictor-corrector loop entirely and go straight to the endgame.

        Parameters
        ----------
        backend:
            The batch array backend of the *resuming* batch (its arithmetic
            may be wider than any checkpoint's).
        checkpoints:
            One :class:`LaneCheckpoint` per lane to resume.
        initial_step:
            Replacement step size for step-underflow lanes.

        Raises
        ------
        ConfigurationError
            When ``checkpoints`` is empty, the checkpoint dimensions
            disagree, a checkpoint's context has no batch backend or its
            planes do not fit it (naming the lane), or a lane's ``t`` lies
            outside ``[0, 1]`` or its resumed ``dt`` is not positive (NaN
            included).
        """
        if not checkpoints:
            raise ConfigurationError("a path batch needs at least one checkpoint")
        n = len(checkpoints[0].point)
        if any(len(cp.point) != n for cp in checkpoints):
            raise ConfigurationError("all checkpoints must share a dimension")
        for lane, cp in enumerate(checkpoints):
            defect = cp._defect()
            if defect is not None:
                raise ConfigurationError(
                    f"checkpoint {lane} cannot resume: {defect}")
        lanes = len(checkpoints)
        t = np.array([cp.t for cp in checkpoints], dtype=np.float64)
        dt = StepControl.resumed(
            np.array([cp.dt for cp in checkpoints], dtype=np.float64),
            np.array([cp.status is PathStatus.STEP_UNDERFLOW
                      for cp in checkpoints], dtype=bool),
            float(initial_step))
        # Every round range-checks each lane's next parameter min(1, t + dt),
        # retired lanes included.
        bad = np.flatnonzero(~((t >= 0.0) & (t <= 1.0) & (dt > 0.0)))
        if bad.size:
            lane = int(bad[0])
            raise ConfigurationError(
                f"checkpoint {lane} cannot resume: t = {t[lane]!r} must lie "
                f"in [0, 1] and dt = {dt[lane]!r} must be positive")

        # Pack lane planes per capturing context, whole groups at a time.
        points = backend.zeros((n, lanes))
        prev_points = backend.zeros((n, lanes))
        by_context: Dict[str, List[int]] = {}
        for lane, cp in enumerate(checkpoints):
            by_context.setdefault(cp.context_name, []).append(lane)
        for name, group in by_context.items():
            source = backend_named(name)
            idx = (slice(None), np.asarray(group, dtype=np.intp))
            points[idx] = convert_batch(source.from_lane_planes(
                [checkpoints[lane].point for lane in group]), source, backend)
            prev_points[idx] = convert_batch(source.from_lane_planes(
                [checkpoints[lane].prev_point for lane in group]), source,
                backend)

        return cls(
            backend=backend,
            points=points,
            prev_points=prev_points,
            t=t,
            prev_t=np.array([cp.prev_t for cp in checkpoints], dtype=np.float64),
            dt=dt,
            has_prev=np.array([cp.has_prev for cp in checkpoints], dtype=bool),
            status=np.full(lanes, int(PathStatus.TRACKING), dtype=np.int8),
            residual=np.array([cp.residual for cp in checkpoints], dtype=np.float64),
            steps_accepted=np.array([cp.steps_accepted for cp in checkpoints],
                                    dtype=np.int64),
            steps_rejected=np.array([cp.steps_rejected for cp in checkpoints],
                                    dtype=np.int64),
            newton_iterations=np.array([cp.newton_iterations for cp in checkpoints],
                                       dtype=np.int64),
            growth_exponent=np.array([cp.growth_exponent for cp in checkpoints],
                                     dtype=np.float64),
        )

    @property
    def n_paths(self) -> int:
        return int(self.t.shape[0])

    @property
    def active(self) -> np.ndarray:
        """The live lanes: still tracking and short of ``t = 1``."""
        return (self.status == int(PathStatus.TRACKING)) & (self.t < 1.0)

    def retire(self, mask: np.ndarray, status: PathStatus) -> None:
        """Mark lanes under ``mask`` finished with the given status."""
        self.status[np.asarray(mask, dtype=bool)] = int(status)

    def status_counts(self) -> dict:
        """Histogram of lane statuses (for reporting)."""
        return {PathStatus(code).name.lower(): int(count)
                for code, count in zip(*np.unique(self.status, return_counts=True))}

    def checkpoints(self) -> List[LaneCheckpoint]:
        """Every lane's state as a :class:`LaneCheckpoint`, in lane order.

        Retired lanes are never touched again by the tracker (a round
        writes only the lanes under its live-lane mask, and the endgame
        only those that reached ``t = 1``), so checkpoints taken after
        tracking finished are exactly the lanes' states at retirement: the
        last accepted point, the step size the step control had earned,
        and the failure cause.
        """
        backend = self.backend
        lanes = zip(backend.lane_planes(self.points), self.t.tolist(),
                    backend.lane_planes(self.prev_points),
                    self.prev_t.tolist(), self.has_prev.tolist(),
                    self.dt.tolist(), self.residual.tolist(),
                    map(PathStatus, self.status.tolist()),
                    self.steps_accepted.tolist(),
                    self.steps_rejected.tolist(),
                    self.newton_iterations.tolist(),
                    self.growth_exponent.tolist())
        # Positional in LaneCheckpoint's field order.
        return [LaneCheckpoint(backend.name, *lane) for lane in lanes]


@dataclass
class BatchTrackResult:
    """Outcome of a tracking run, per-lane and aggregate.

    ``batches`` holds one :class:`PathBatch` per chunk the start set was
    split into; :meth:`checkpoints`, ``results``, ``rounds`` and
    ``evaluation_log`` aggregate over all of them.  ``results[i]`` is
    ``checkpoints()[i].result()``.
    """

    batches: List[PathBatch]
    evaluation_log: List[int] = field(default_factory=list)
    rounds: int = 0
    #: resumed lanes whose checkpointed residual already certified the
    #: endgame tolerance, so their endgame re-entry round was skipped.
    endgame_reentries_skipped: int = 0

    def __post_init__(self):
        self._checkpoints = [cp for batch in self.batches
                             for cp in batch.checkpoints()]
        self.results: List[PathResult] = [cp.result()
                                          for cp in self._checkpoints]

    @property
    def paths_converged(self) -> int:
        return sum(1 for r in self.results if r.success)

    def status_counts(self) -> dict:
        """Histogram of lane statuses across every tracked batch."""
        counts: dict = {}
        for batch in self.batches:
            for name, count in batch.status_counts().items():
                counts[name] = counts.get(name, 0) + count
        return counts

    @property
    def batched_evaluations(self) -> int:
        """Number of batched homotopy evaluations performed."""
        return len(self.evaluation_log)

    @property
    def lane_evaluations(self) -> int:
        """Total per-lane evaluations (what a scalar tracker would pay)."""
        return int(sum(self.evaluation_log))

    def checkpoints(self) -> List[LaneCheckpoint]:
        """Per-path checkpoints across every tracked batch, aligned with
        ``results`` -- ``checkpoints()[i]`` is the final lane state of the
        path behind ``results[i]``."""
        return list(self._checkpoints)


class BatchTracker:
    """Track many homotopy paths in lock step with per-lane retirement.

    Parameters
    ----------
    start_system / target_system:
        The systems of the gamma-trick homotopy (evaluated with the
        structure-of-arrays evaluator; regularity is not required).
    context:
        Scalar arithmetic: ``d``, ``dd`` or ``qd``, the contexts with a
        batch backend.
    options:
        The same :class:`~repro.tracking.tracker.TrackerOptions` the scalar
        tracker takes -- both engines share the step-control policy.
    batch_size:
        Maximum lanes per batch; larger start sets are chunked.  ``None``
        tracks all paths in one batch.
    gamma:
        Accessibility constant, defaulted like the scalar homotopy.
    """

    def __init__(self, start_system, target_system, *,
                 context: NumericContext = DOUBLE,
                 options: Optional[TrackerOptions] = None,
                 batch_size: Optional[int] = None,
                 gamma: Optional[complex] = None):
        self.context = context
        self.options = options or TrackerOptions()
        self.backend = backend_for_context(context)
        self.homotopy = BatchHomotopy(start_system, target_system,
                                      gamma=gamma, context=context,
                                      backend=self.backend)
        if batch_size is not None and batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        self.batch_size = batch_size
        self._step_control = StepControl.from_options(self.options)
        #: lane counts of every batched homotopy evaluation of the last run
        #: (corrector and tangent-predictor evaluations alike)
        self.evaluation_log: List[int] = []
        if self.options.predictor == "tangent":
            self._predictor = BatchTangentPredictor(
                self.backend, evaluation_log=self.evaluation_log)
        else:
            self._predictor = BatchSecantPredictor(self.backend)

    # ------------------------------------------------------------------
    def track_many(self, start_solutions: Optional[Sequence[Sequence]] = None, *,
                   resume_from: Optional[Sequence[LaneCheckpoint]] = None
                   ) -> List[PathResult]:
        """Track paths from scratch or resume them from checkpoints.

        Parameters
        ----------
        start_solutions:
            Start solutions to track from ``t = 0``.
        resume_from:
            :class:`LaneCheckpoint` list to continue mid-path instead;
            mutually exclusive with ``start_solutions``.  Checkpoints
            captured in a different arithmetic are converted through the
            batch backends on entry.  A lane checkpointed at ``t >= 1``
            whose measured residual already meets ``end_tolerance`` retires
            as a success without re-entering the endgame, so resuming a
            finished run in the same arithmetic returns it unchanged at
            zero evaluations; endgame failures always re-enter.  Skips are
            counted in :attr:`BatchTrackResult.endgame_reentries_skipped`.

        Returns
        -------
        list of PathResult
            One result per start solution or checkpoint, in order.  Resumed
            results *accumulate*: step and Newton counters include the work
            recorded in the checkpoint.

        Raises
        ------
        ConfigurationError
            When both or neither of ``start_solutions`` / ``resume_from``
            are given, a checkpoint's dimension is not the system's, or a
            checkpoint's ``t`` or ``dt`` is out of range
            (:meth:`PathBatch.from_checkpoints`).
        """
        return self.track_batches(start_solutions,
                                  resume_from=resume_from).results

    def track_batches(self, start_solutions: Optional[Sequence[Sequence]] = None, *,
                      resume_from: Optional[Sequence[LaneCheckpoint]] = None
                      ) -> BatchTrackResult:
        """Like :meth:`track_many` but returning the full
        :class:`BatchTrackResult` diagnostics (batches, evaluation log,
        per-path checkpoints)."""
        if (start_solutions is None) == (resume_from is None):
            raise ConfigurationError(
                "pass exactly one of start_solutions or resume_from"
            )
        checkpoints = None if resume_from is None else list(resume_from)
        items = list(start_solutions) if checkpoints is None else checkpoints
        foreign = sorted({len(cp.point) for cp in checkpoints or ()}
                         - {self.homotopy.dimension})
        if foreign:
            raise ConfigurationError(
                f"cannot resume checkpoints of dimension {foreign[0]} on a "
                f"system of dimension {self.homotopy.dimension}")
        if not items:
            return BatchTrackResult(batches=[])
        # clear() rather than rebinding: the predictor and correctors hold
        # a reference to this very list.
        self.evaluation_log.clear()
        chunk = self.batch_size or len(items)
        batches: List[PathBatch] = []
        for offset in range(0, len(items), chunk):
            piece = items[offset:offset + chunk]
            if checkpoints is None:
                batches.append(self._track_one_batch(piece))
            else:
                batches.append(self._track_one_batch(checkpoints=piece))
        return BatchTrackResult(batches=batches,
                                evaluation_log=list(self.evaluation_log),
                                rounds=sum(b.rounds for b in batches),
                                endgame_reentries_skipped=sum(
                                    b.endgame_skipped for b in batches))

    # ------------------------------------------------------------------
    def _corrector(self, t: np.ndarray, tolerance: float,
                   iterations: int) -> BatchNewtonCorrector:
        return BatchNewtonCorrector(self.homotopy.at(t), self.backend,
                                    tolerance=tolerance,
                                    max_iterations=iterations,
                                    evaluation_log=self.evaluation_log)

    def _track_one_batch(self, starts: Optional[Sequence[Sequence]] = None,
                         checkpoints: Optional[Sequence[LaneCheckpoint]] = None
                         ) -> PathBatch:
        opts = self.options
        # Lanes that diverge or retire carry inf/NaN through the masked
        # batch arithmetic (predictor, corrector, endgame); the errstate
        # scope keeps them from spraying RuntimeWarnings while the status
        # masks report the failures.
        with masked_lane_errstate():
            if checkpoints is None:
                batch = PathBatch.from_start_solutions(self.backend, starts,
                                                       opts.initial_step)
                # Make sure the start points actually lie on the path at
                # t = 0.
                self._correct_and_land(batch, batch.active, batch.t,
                                       opts.corrector_tolerance,
                                       PathStatus.START_FAILED)
            else:
                batch = PathBatch.from_checkpoints(self.backend, checkpoints,
                                                   opts.initial_step)
                # Checkpointed lanes already sit on the path at their t -- a
                # cold run corrected them there -- so re-correcting would
                # both waste evaluations and break bit-for-bit
                # same-arithmetic resumes.  The exception is a lane whose
                # *start correction* failed: its point is the raw start
                # solution, so retry the correction (in this batch's
                # possibly wider arithmetic).
                status = np.array([cp.status for cp in checkpoints])
                needs_start = status == PathStatus.START_FAILED
                if needs_start.any():
                    self._correct_and_land(batch, needs_start, batch.t,
                                           opts.corrector_tolerance,
                                           PathStatus.START_FAILED)
                # A path at infinity stays there: no arithmetic brings it
                # back, so its checkpoint is already its final state.
                batch.retire(status == PathStatus.AT_INFINITY,
                             PathStatus.AT_INFINITY)
                # A finished lane's checkpointed residual is its endgame
                # certificate: re-entering would only measure it again.
                certified = ((batch.t >= 1.0)
                             & (batch.status == int(PathStatus.TRACKING))
                             & (batch.residual <= opts.end_tolerance))
                if certified.any():
                    batch.retire(certified, PathStatus.SUCCESS)
                    batch.endgame_skipped = int(certified.sum())

            while batch.active.any() and batch.rounds < opts.max_steps:
                batch.rounds += 1
                self._advance(batch)

            batch.retire(batch.active, PathStatus.MAX_STEPS)
            self._endgame(batch)
        return batch

    def _correct_and_land(self, batch: PathBatch, lanes: np.ndarray, t,
                          tolerance: float, failure: PathStatus) -> np.ndarray:
        """Correct the ``lanes`` of ``batch`` at ``t`` with the end Newton
        budget, move the converged ones onto their corrected points and
        retire the rest with ``failure``; returns the converged mask."""
        corrector = self._corrector(t, tolerance, self.options.end_iterations)
        corrected = corrector.correct(batch.points, lanes)
        batch.newton_iterations += corrected.iterations
        batch.residual = np.where(lanes, corrected.residual_norm,
                                  batch.residual)
        batch.points = self.backend.where(corrected.converged,
                                          corrected.solution, batch.points)
        batch.retire(lanes & ~corrected.converged, failure)
        return corrected.converged

    def _advance(self, batch: PathBatch) -> None:
        """One predictor-corrector-stepcontrol round on the live lanes.

        The round runs on the whole batch and writes only the lanes under
        its masks; the corrector compresses to the live lanes itself.
        """
        opts = self.options
        backend = self.backend
        control = self._step_control
        live = batch.active

        next_t = np.minimum(1.0, batch.t + batch.dt)
        predicted = self._predictor.predict(
            self.homotopy, batch.points, batch.prev_points,
            batch.t, batch.prev_t, next_t - batch.t, batch.has_prev, live)

        corrector = self._corrector(next_t, opts.corrector_tolerance,
                                    opts.corrector_iterations)
        corrected = corrector.correct(predicted, live)
        batch.newton_iterations += corrected.iterations
        batch.residual = np.where(live, corrected.residual_norm,
                                  batch.residual)

        accepted = live & corrected.converged
        rejected = live & ~corrected.converged

        if accepted.any():
            # The scalar tracker remembers the pre-step point for the secant
            # predictor before moving; do the same lane-wise.  Lanes that
            # reach t = 1 leave the live mask; the endgame sharpens them
            # together afterwards.
            batch.prev_points = backend.where(accepted, batch.points,
                                              batch.prev_points)
            batch.prev_t = np.where(accepted, batch.t, batch.prev_t)
            batch.has_prev |= accepted
            batch.points = backend.where(accepted, corrected.solution,
                                         batch.points)
            batch.t = np.where(accepted, next_t, batch.t)
            batch.steps_accepted += accepted
            batch.dt = np.where(accepted, control.grown(batch.dt, batch.t),
                                batch.dt)
            near = accepted & DivergenceTest.near_end(batch.t)
            if near.any():
                self._retire_divergent(batch, near)

        if rejected.any():
            batch.steps_rejected += rejected
            batch.dt = np.where(rejected, control.shrunk(batch.dt), batch.dt)
            batch.retire(rejected & control.underflowed(batch.dt),
                         PathStatus.STEP_UNDERFLOW)

    def _retire_divergent(self, batch: PathBatch, near: np.ndarray) -> None:
        """Estimate the growth exponent of the ``near`` lanes that just
        accepted a point in the endgame zone and retire those
        :class:`~repro.tracking.tracker.DivergenceTest` names divergent."""
        zone = near & DivergenceTest.in_zone(batch.t)
        if not zone.any():
            return
        rate = DivergenceTest.estimate(
            lane_norms(batch.points, self.backend),
            lane_norms(batch.prev_points, self.backend),
            batch.t, batch.prev_t)
        batch.retire(zone & DivergenceTest.diverges(rate, batch.growth_exponent),
                     PathStatus.AT_INFINITY)
        batch.growth_exponent = np.where(zone, rate, batch.growth_exponent)

    def _endgame(self, batch: PathBatch) -> None:
        """Sharpen every lane that reached t = 1 with a batched end Newton."""
        pending = (batch.status == int(PathStatus.TRACKING)) & (batch.t >= 1.0)
        if pending.any():
            converged = self._correct_and_land(batch, pending, 1.0,
                                               self.options.end_tolerance,
                                               PathStatus.ENDGAME_FAILED)
            batch.retire(converged, PathStatus.SUCCESS)
