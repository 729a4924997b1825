"""Sharded, crash-tolerant blackbox solving over a supervised worker pool.

:func:`solve_system_sharded` is :func:`repro.tracking.solver.solve_system`
scaled out and hardened: the solve's path batch is partitioned into
contiguous lane shards (:func:`partition_lanes`), each shard-rung of the
escalation ladder runs as a task on a persistent
:class:`~repro.service.workerpool.WorkerPool` (long-lived processes that
cache the shipped systems and the constructed
:class:`~repro.tracking.batch_tracker.BatchTracker` -- compiled evaluation
plans included -- across rungs *and across solves*), and after every rung
each shard's :class:`~repro.tracking.batch_tracker.LaneCheckpoint` state is
persisted to a pluggable :class:`~repro.service.store.CheckpointStore`.
Workers receive and return checkpoints as they are; only the store
encodes them (the put writes ``to_portable()``, a retry's reload revives
each lane once with ``from_portable()``).

The :class:`~repro.service.supervisor.Supervisor` drives each rung: workers
emit heartbeats from inside the tracker's lock-step rounds, so the
coordinator can tell *crashed* (pipe EOF / dead sentinel) from *hung* (no
beats -- SIGKILL and retry) from merely *slow* (beats keep coming -- wait);
per-job deadlines are cancelled cooperatively; retries and respawns back
off with capped jitter (:mod:`repro.service.backoff`) without ever sleeping
the coordinator thread; idle workers steal whatever shard-rung task is
queued next.  A retried shard resumes from checkpoints *reloaded from the
store*; a reload that fails to decode
(:class:`~repro.errors.CheckpointCorruptError`) or read (``OSError``) falls
back to a cold restart of only that shard and is recorded in
:attr:`SolveReport.degradations`.  A shard that kills
``quarantine_after_kills`` consecutive workers is *quarantined*: its lanes
are reported as failed paths, the rest of the solve completes exactly.

Determinism is the load-bearing property: lane trajectories of the batched
tracker are independent of batch composition (elementwise arithmetic,
per-lane pivoted elimination, masked updates), the lane partition is a
contiguous slice of the global path order, the portable checkpoint
encoding round-trips every float exactly, and the default gamma is a fixed
constant.  A sharded solve's distinct solutions are therefore **bit-for-bit
identical** to the single-process :func:`~repro.tracking.solver.solve_system`
on the same seed/gamma -- crash, hang, or no fault at all.  The two
explicit exceptions are recorded degradations: a quarantined shard's lanes
are missing, and a cold-restarted shard's lanes were re-tracked from
``t = 0`` at the wide rung.

Every rung tracks with the batched tracker, so every rung's context needs
a batch backend: without one its checkpoints could be neither
produced nor honoured, and the crash-resume promise would break.  That is
checked up front and refused with a
:class:`~repro.errors.ConfigurationError`, never degraded silently.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import (
    CheckpointCorruptError,
    ConfigurationError,
    ShardFailedError,
)
from ..multiprec.backend import backend_for_context
from ..multiprec.numeric import DOUBLE, CONTEXTS, NumericContext
from ..polynomials.system import PolynomialSystem
from ..tracking.batch_tracker import LaneCheckpoint
from ..tracking.escalation import RungOutcome, run_escalation_ladder
from ..tracking.solver import (
    EscalationPolicy,
    SolveReport,
    assemble_report,
    prepare_starts,
)
from ..tracking.start_systems import StartStrategy
from ..tracking.tracker import PathResult, TrackerOptions
from .backoff import BackoffPolicy
from .store import CheckpointStore, InMemoryCheckpointStore
from .supervisor import Supervisor
from .workerpool import WorkerPool

__all__ = ["FaultInjection", "solve_system_sharded"]

#: The fault modes :class:`FaultInjection` can drill (the chaos matrix).
FAULT_MODES = ("kill", "hang", "slow", "corrupt-checkpoint",
               "store-io-error")


def partition_lanes(count: int, shards: int) -> List[List[int]]:
    """Split ``count`` lane indices into ``shards`` contiguous balanced runs.

    The sharded solve partitions each rung's pending paths across worker
    processes with this: contiguous runs keep each shard's lanes a slice of
    the global index space, so merged results concatenate back into global
    path order.  The first ``count % shards`` shards receive one extra
    lane; shards beyond ``count`` come back empty (callers skip them).

    Raises
    ------
    ConfigurationError
        When ``shards`` is not at least 1 or ``count`` is negative.
    """
    if shards < 1:
        raise ConfigurationError("shards must be at least 1")
    if count < 0:
        raise ConfigurationError("cannot partition a negative lane count")
    base, extra = divmod(count, shards)
    out: List[List[int]] = []
    begin = 0
    for shard in range(shards):
        size = base + (1 if shard < extra else 0)
        out.append(list(range(begin, begin + size)))
        begin += size
    return out


@dataclass(frozen=True)
class FaultInjection:
    """Inject one failure mode into a shard-rung, for recovery drills.

    The coordinator arms the fault on the first ``times`` dispatches of
    shard ``shard`` at ladder level ``level``; the armed worker counts the
    batch tracker's rounds (lock-step advances and the endgame round both)
    and triggers the mode once ``kill_after_rounds`` rounds have run
    (``0`` triggers on entry to the first round).  Modes:

    ``kill``
        ``os._exit(1)`` -- an un-catchable hard crash, exactly what a
        preempted or OOM-killed worker looks like.  Recovery: respawn and
        retry, resumed warm from the store.
    ``hang``
        one dead ``sleep(delay_seconds)`` with no heartbeats -- a worker
        stuck in a syscall.  Recovery: the supervisor SIGKILLs it after
        ``heartbeat_timeout`` and retries warm.
    ``slow``
        sleeps ``delay_seconds`` per round *while emitting heartbeats* --
        alive but slow.  Correct behaviour is no intervention at all.
    ``corrupt-checkpoint``
        a ``kill``, plus the persisted records are truncated/mangled
        before the retry reloads them -- shared-storage bit rot.
        Recovery: :class:`~repro.errors.CheckpointCorruptError` on reload,
        cold restart of only that shard, recorded degradation.
    ``store-io-error``
        a ``kill``, plus the store raises ``OSError`` on the retry's first
        read.  Recovery: as for ``corrupt-checkpoint``.

    Retries of the shard are *not* re-armed once the ``times`` budget is
    spent, so every recovery path is exercised end to end.
    """

    shard: int
    level: int = 0
    kill_after_rounds: int = 2
    times: int = 1
    mode: str = "kill"
    delay_seconds: float = 1.0

    def __post_init__(self):
        if self.mode not in FAULT_MODES:
            raise ConfigurationError(
                f"unknown fault mode {self.mode!r}; "
                f"available: {list(FAULT_MODES)}")

    def worker_fault(self) -> Dict[str, object]:
        """The worker-side fault payload for this mode (the coordinator
        keeps the store-side half of the corrupt/store-error modes)."""
        if self.mode in ("kill", "corrupt-checkpoint", "store-io-error"):
            return {"mode": "kill",
                    "kill_after_rounds": self.kill_after_rounds}
        return {"mode": self.mode,
                "kill_after_rounds": self.kill_after_rounds,
                "delay_seconds": self.delay_seconds}


class _FaultyReadStore(CheckpointStore):
    """Delegating store whose reads can be armed to raise ``OSError`` --
    the coordinator-side half of the ``store-io-error`` drill."""

    def __init__(self, inner: CheckpointStore):
        self.inner = inner
        self.fail_reads = 0

    def put(self, job_id, shard, state):
        self.inner.put(job_id, shard, state)

    def get(self, job_id, shard):
        if self.fail_reads > 0:
            self.fail_reads -= 1
            raise OSError(
                f"injected store read failure for {job_id!r}/{shard}")
        return self.inner.get(job_id, shard)

    def shards(self, job_id):
        return self.inner.shards(job_id)

    def delete_job(self, job_id):
        self.inner.delete_job(job_id)


def _corrupt_stored_records(store: CheckpointStore, job_id: str) -> int:
    """Damage every persisted record of the job, the way shared storage
    does: file-backed records are truncated on disk, in-memory records get
    their checkpoint payloads mangled.  Returns how many were hit."""
    hit = 0
    for shard in store.shards(job_id):
        path_fn = getattr(store, "record_path", None)
        if callable(path_fn):
            path = path_fn(job_id, shard)
            data = path.read_bytes()
            path.write_bytes(data[: max(1, len(data) // 3)])
        else:
            record = store.get(job_id, shard) or {}
            record["checkpoints"] = {
                key: {"truncated": True}
                for key in record.get("checkpoints", {})}
            store.put(job_id, shard, record)
        hit += 1
    return hit


def solve_system_sharded(system: PolynomialSystem, *,
                         shards: int = 2,
                         max_workers: Optional[int] = None,
                         store: Optional[CheckpointStore] = None,
                         job_id: Optional[str] = None,
                         cleanup: bool = True,
                         context: NumericContext = DOUBLE,
                         options: Optional[TrackerOptions] = None,
                         max_paths: Optional[int] = None,
                         gamma: Optional[complex] = None,
                         deduplication_tolerance: float = 1e-6,
                         seed: Optional[int] = 0,
                         batch_size: Optional[int] = None,
                         escalation: Optional[EscalationPolicy] = None,
                         start: Optional[StartStrategy] = None,
                         max_retries: int = 2,
                         backoff_seconds: float = 0.05,
                         timeout: Optional[float] = None,
                         heartbeat_timeout: float = 30.0,
                         cancel_grace: float = 1.0,
                         quarantine_after_kills: Optional[int] = 3,
                         allow_inprocess_fallback: bool = True,
                         fault_injection: Optional[FaultInjection] = None,
                         mp_context=None,
                         pool: Optional[WorkerPool] = None) -> SolveReport:
    """Solve ``system`` like :func:`~repro.tracking.solver.solve_system`,
    sharded over a supervised persistent worker pool with crash recovery.

    The solver-facing parameters (``context`` .. ``start``) mean
    exactly what they mean on :func:`solve_system` -- including the
    pluggable :class:`~repro.tracking.start_systems.StartStrategy` -- and
    the distinct solutions of the returned report are bit-for-bit
    identical to a single-process solve with the same ones.  The service
    parameters:

    Parameters
    ----------
    shards:
        How many contiguous lane shards to partition the path batch into.
        Each rung's *pending* lanes are repartitioned, so late rungs keep
        every worker busy instead of tracking one skewed residue; shards
        beyond the pending count come back empty and are dropped
        (:attr:`SolveReport.shards` records the level-0 populated count).
    max_workers:
        Worker pool size; defaults to the populated shard count.  With
        fewer workers than shards, idle workers steal queued shard tasks.
    store:
        Where per-shard rung state is persisted
        (:class:`~repro.service.store.CheckpointStore`); a fresh
        :class:`~repro.service.store.InMemoryCheckpointStore` by default.
    job_id:
        Key the shard records are stored under; generated when omitted.
    cleanup:
        Drop the job's store records once the solve completes (default).
        Pass ``False`` to keep them -- e.g. to inspect persisted state, or
        to leave a durable trail in a :class:`FileCheckpointStore`.
    max_retries:
        How many times one shard-rung task may be rescheduled after a
        crash/hang/deadline/worker error before the solve gives up with
        :class:`~repro.errors.ShardFailedError`.
    backoff_seconds:
        Base wait before the first reschedule of a shard task; each
        further attempt doubles it, capped at 16x the base, without
        jitter (:meth:`~repro.service.backoff.BackoffPolicy.
        from_legacy_seconds`).  The wait is scheduled, never slept on the
        coordinator thread; 0 disables waiting.
    timeout:
        Per-task deadline in seconds: a worker past it receives a
        cooperative cancel between tracker rounds and is killed only if it
        ignores the cancel past ``cancel_grace``; ``None`` means no
        deadline.
    heartbeat_timeout:
        Seconds of heartbeat silence after which a busy worker is
        declared *hung* and killed (its task retries).  Workers beat from
        inside every tracker round, so a slow-but-alive worker is never
        killed by this.
    cancel_grace:
        Seconds a deadline-cancelled worker gets to acknowledge before it
        is killed.
    quarantine_after_kills:
        A shard-rung task that kills this many consecutive workers is
        quarantined -- its lanes are reported as failed paths with an
        explicit degradation -- instead of failing the whole solve.
        ``None`` disables quarantine (exhausted retries then raise).
    allow_inprocess_fallback:
        When every worker slot has been retired (respawn keeps failing),
        run the remaining shard tasks inline on the coordinator (faults
        stripped) and record the degradation, instead of raising.
    fault_injection:
        Optional :class:`FaultInjection` drill -- see its mode table.
    mp_context:
        Multiprocessing start method name (or context object) for worker
        processes; defaults to ``"fork"`` where available.
    pool:
        An external :class:`~repro.service.workerpool.WorkerPool` to run
        on (and leave running): persistent workers keep their cached
        systems and compiled plans across solves, which is what makes
        repeated sharded solves beat the single process.  By default a
        pool is created for the solve and closed afterwards.

    Raises
    ------
    ConfigurationError
        When a ladder rung has no batch backend or is not
        resolvable by name in a worker process -- the service refuses up
        front rather than degrade its crash-resume guarantee -- or
        ``deduplication_tolerance`` is not finite and positive.
    ShardFailedError
        When one shard's retries are exhausted (and quarantine did not
        intervene).
    """
    ladder = list(escalation.ladder) if escalation is not None else [context]
    for rung in ladder:
        try:
            backend_for_context(rung)
        except ConfigurationError:
            raise ConfigurationError(
                f"the sharded service needs the batched tracking route at "
                f"every rung, but context {rung.name!r} has no batch "
                f"backend -- its checkpoints could be neither "
                f"produced nor honoured, breaking crash recovery"
            ) from None
        if CONTEXTS.get(rung.name) is not rung:
            raise ConfigurationError(
                f"context {rung.name!r} is not resolvable by name in a "
                f"worker process (repro.multiprec.numeric.get_context); "
                f"the sharded service ships contexts by name across the "
                f"process boundary"
            )
    plan, starts = prepare_starts(system, start, max_paths, seed,
                                  deduplication_tolerance)
    starts = [tuple(complex(x) for x in s) for s in starts]

    if store is None:
        store = InMemoryCheckpointStore()
    if job_id is None:
        job_id = uuid.uuid4().hex
    flaky: Optional[_FaultyReadStore] = None
    if fault_injection is not None and fault_injection.mode == "store-io-error":
        flaky = _FaultyReadStore(store)
        store = flaky

    retry_backoff = BackoffPolicy.from_legacy_seconds(backoff_seconds)

    owns_pool = pool is None
    if owns_pool:
        pool = WorkerPool(
            workers=max_workers or max(1, min(shards, len(starts) or 1)),
            mp_context=mp_context)
    supervisor = Supervisor(pool, heartbeat_timeout=heartbeat_timeout,
                            cancel_grace=cancel_grace)
    token = pool.register_systems(plan.start_system, system)

    degradations: List[str] = []
    quarantined_lanes: set = set()
    quarantined_shards: List[int] = []
    stats = {"worker_retries": 0, "resumed_after_crash": 0,
             "hangs_detected": 0, "deadline_cancels": 0,
             "cold_restarts": 0, "inprocess": 0}
    fault_budget = [fault_injection.times if fault_injection is not None else 0]
    level0_shards = [0]
    # The shard whose store record holds each lane's latest checkpoint.
    lane_shard: Dict[int, int] = {}

    def arm_fault(payload: Dict[str, object], shard: int,
                  level: int) -> Dict[str, object]:
        """Attach the drill's worker fault while its budget lasts."""
        if (fault_injection is not None and fault_budget[0] > 0
                and shard == fault_injection.shard
                and level == fault_injection.level):
            fault_budget[0] -= 1
            payload["fault"] = fault_injection.worker_fault()
        return payload

    def build_payload(shard: int, level: int, rung: NumericContext,
                      lane_indices: List[int],
                      resume: Optional[List[LaneCheckpoint]]
                      ) -> Dict[str, object]:
        return arm_fault({
            "token": token,
            "context": rung.name,
            "options": options,
            "gamma": gamma,
            "batch_size": batch_size,
            "starts": None if resume is not None
            else [starts[i] for i in lane_indices],
            "resume": resume,
        }, shard, level)

    def run_rung(level: int, rung: NumericContext,
                 pending: List[Tuple[int, Sequence]],
                 checkpoints_by_index: Dict[int, LaneCheckpoint]
                 ) -> RungOutcome:
        """Fan one rung's pending lanes out over the supervised pool.

        The shared ladder loop owns the accounting; this callback owns the
        sharded mechanics -- pending-lane repartition, payload
        construction, crash retries with store-reloaded checkpoints (cold
        restart on corrupt/unreadable records), quarantine bookkeeping,
        and per-shard persistence -- and hands back results/checkpoints
        re-aligned with the global pending order.
        """
        pending_indices = [index for index, _ in pending]
        live = [i for i in pending_indices if i not in quarantined_lanes]
        parts = [part for part in partition_lanes(len(live), shards) if part]
        active = {tid: [live[k] for k in part]
                  for tid, part in enumerate(parts)}
        if level == 0:
            level0_shards[0] = len(active)

        resume_by_task: Dict[int, Optional[List[LaneCheckpoint]]] = {}
        payloads: Dict[int, Dict[str, object]] = {}
        for tid in sorted(active):
            lane_indices = active[tid]
            resume = ([checkpoints_by_index[i] for i in lane_indices]
                      if level > 0 else None)
            resume_by_task[tid] = resume
            payloads[tid] = build_payload(tid, level, rung, lane_indices,
                                          resume)
        cold_tasks: set = set()

        def on_retry(tid: int, attempt: int, kind: str
                     ) -> Dict[str, object]:
            """Rebuild a failed task's payload for its next attempt, with
            checkpoints RELOADED from the store -- the persistence layer,
            not coordinator memory, is what the recovery path proves out.
            """
            stats["worker_retries"] += 1
            payload = dict(payloads[tid])
            payload.pop("fault", None)
            payload.pop("systems", None)
            # The store-side half of the corrupt/store-error drills fires
            # now, after the injected kill and before the reload below.
            if (fault_injection is not None
                    and tid == fault_injection.shard
                    and level == fault_injection.level):
                if fault_injection.mode == "corrupt-checkpoint":
                    _corrupt_stored_records(store, job_id)
                elif fault_injection.mode == "store-io-error":
                    flaky.fail_reads = 1
            if resume_by_task[tid] is not None and tid not in cold_tasks:
                try:
                    # Lanes move between shards from rung to rung: read
                    # the last rung's record of each shard that ran one of
                    # this task's lanes, and no other.
                    records = {shard: store.get(job_id, shard) or {}
                               for shard in sorted({lane_shard[i]
                                                    for i in active[tid]})}
                    resume = []
                    for i in active[tid]:
                        state = records[lane_shard[i]].get(
                            "checkpoints", {}).get(str(i))
                        if state is None:
                            raise CheckpointCorruptError(
                                f"the record of shard {lane_shard[i]} holds "
                                f"no checkpoint of lane {i}")
                        # Revive each reloaded lane once, here, so a
                        # poisoned record surfaces before anything is
                        # shipped to a worker.
                        resume.append(LaneCheckpoint.from_portable(state))
                    payload["resume"] = resume
                    stats["resumed_after_crash"] += 1
                except (CheckpointCorruptError, OSError) as exc:
                    cold_tasks.add(tid)
                    stats["cold_restarts"] += 1
                    degradations.append(
                        f"shard {tid} at rung {rung.name!r} (level {level}):"
                        f" checkpoint reload failed "
                        f"({type(exc).__name__}: {exc}); cold restart from "
                        f"t=0 -- its lanes may differ from the "
                        f"single-process reference")
            if tid in cold_tasks:
                payload["resume"] = None
                payload["starts"] = [starts[i] for i in active[tid]]
            payloads[tid] = arm_fault(payload, tid, level)
            return payloads[tid]

        run = supervisor.run(
            payloads, deadline=timeout, max_retries=max_retries,
            quarantine_after=quarantine_after_kills,
            retry_backoff=retry_backoff, on_retry=on_retry,
            fallback=allow_inprocess_fallback)

        stats["hangs_detected"] += run.hangs_detected
        stats["deadline_cancels"] += run.deadline_cancels
        stats["inprocess"] += run.inprocess_tasks
        for event in run.events:
            degradations.append(f"worker pool: {event}")
        if run.inprocess_tasks:
            degradations.append(
                f"worker pool unavailable at rung {rung.name!r} (level "
                f"{level}): {run.inprocess_tasks} shard task(s) ran "
                f"in-process on the coordinator")

        for tid in sorted(active):
            outcome = run.outcomes[tid]
            if outcome.status == "failed":
                last = outcome.failures[-1] if outcome.failures else None
                raise ShardFailedError(
                    f"shard {tid} failed {outcome.attempts} time(s) at "
                    f"rung {rung.name!r} (level {level}); retries "
                    f"exhausted (max_retries={max_retries})"
                    + (f" -- last failure {last.kind}: {last.detail}"
                       if last else ""))
            if outcome.status == "quarantined":
                quarantined_lanes.update(active[tid])
                quarantined_shards.append(tid)
                degradations.append(
                    f"shard {tid} quarantined at rung {rung.name!r} "
                    f"(level {level}) after {outcome.attempts} consecutive "
                    f"worker kills; its {len(active[tid])} lane(s) are "
                    f"reported as failed paths")

        # -- merge shard outcomes back into global pending order, persist --
        results_by_index: Dict[int, PathResult] = {}
        checkpoints_this_rung: Dict[int, Optional[LaneCheckpoint]] = {}
        resume_ts: List[float] = []
        for tid in sorted(active):
            outcome = run.outcomes[tid]
            if outcome.status == "quarantined":
                continue
            lane_indices = active[tid]
            resume = resume_by_task[tid]
            if resume is not None and tid not in cold_tasks:
                resume_ts.extend(cp.t for cp in resume if cp.resumes_mid_path)
            shard_pending: List[int] = []
            for index, checkpoint in zip(lane_indices, outcome.result):
                checkpoints_this_rung[index] = checkpoint
                lane_shard[index] = tid
                results_by_index[index] = checkpoint.result()
                if not results_by_index[index].success:
                    shard_pending.append(index)
            store.put(job_id, tid, {
                "job_id": job_id,
                "shard": tid,
                "level": level,
                "context": rung.name,
                "lanes": list(lane_indices),
                "pending": shard_pending,
                "checkpoints": {str(i): checkpoints_this_rung[i].to_portable()
                                for i in lane_indices},
            })

        # Quarantined lanes (this rung's and earlier ones') are excluded
        # from dispatch; they surface as explicitly failed paths.
        for index in pending_indices:
            if index in quarantined_lanes:
                results_by_index[index] = PathResult(
                    success=False, solution=[], residual=float("inf"),
                    steps_accepted=0, steps_rejected=0, newton_iterations=0,
                    failure_reason="quarantined: shard isolated after "
                                   "repeated worker kills")
                checkpoints_this_rung[index] = checkpoints_by_index.get(index)

        return RungOutcome(
            results=[results_by_index[index] for index in pending_indices],
            checkpoints=[checkpoints_this_rung[index]
                         for index in pending_indices],
            resumed_mid_ts=resume_ts)

    try:
        state = run_escalation_ladder(ladder, starts, run_rung)
    finally:
        if owns_pool:
            pool.close()

    if cleanup:
        store.delete_job(job_id)

    return assemble_report(
        system, plan, starts, state, ladder, deduplication_tolerance,
        degradations=degradations,
        shards=level0_shards[0],
        worker_retries=stats["worker_retries"],
        resumed_after_crash=stats["resumed_after_crash"],
        quarantined_shards=quarantined_shards,
        hangs_detected=stats["hangs_detected"],
        deadline_cancels=stats["deadline_cancels"],
        cold_restarts_after_corruption=stats["cold_restarts"],
        inprocess_fallbacks=stats["inprocess"],
    )
