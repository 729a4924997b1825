"""The supervision policy loop over a :class:`~repro.service.workerpool.WorkerPool`.

:class:`Supervisor.run` drives one batch of shard-rung tasks to completion
and is the single place the failure taxonomy is decided:

==============  ============================  =============================
verdict         detection signal              recovery action
==============  ============================  =============================
crashed         pipe EOF / process sentinel   backed-off respawn, task retry
hung            heartbeats stop               SIGKILL, respawn, task retry
slow            beats keep arriving           keep waiting (slow is alive)
deadline        per-job deadline expires      cooperative cancel, then
                                              SIGKILL after a grace period
error           worker reports an exception   task retry (no kill)
==============  ============================  =============================

Everything is event-driven off :func:`multiprocessing.connection.wait`
over the worker pipes and process sentinels; the coordinator thread never
sleeps a backoff -- a retry or respawn delay is a ``not_before`` timestamp
checked by the dispatch loop, so one backing-off task cannot stall
dispatch, heartbeat monitoring, or work-stealing for the rest.  Tasks are
handed to whichever worker goes idle first (there are usually more
shard-rung tasks than workers late in an escalation ladder, where skewed
residues used to serialise behind one slow worker).

Two safety valves bound every run:

* **quarantine** -- a task that kills ``quarantine_after`` consecutive
  workers is declared poison and isolated with a ``quarantined`` outcome
  instead of burning the whole retry budget (and then the whole solve);
* **in-process fallback** -- when every worker slot has been retired
  (respawn keeps failing), remaining tasks run inline on the coordinator,
  with injected faults stripped, and the run is flagged so the caller can
  record the degradation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..errors import ConfigurationError
from .backoff import BackoffPolicy
from .workerpool import WorkerPool, WorkerSlot, execute_payload

if TYPE_CHECKING:
    from ..tracking.batch_tracker import LaneCheckpoint

__all__ = ["RunReport", "Supervisor", "TaskFailure", "TaskOutcome"]

#: Fatal failure kinds: the worker process was lost (these feed the
#: poison-task quarantine counter; a clean worker-side exception resets it).
_FATAL_KINDS = ("crashed", "hung")


@dataclass(frozen=True)
class TaskFailure:
    """One failed attempt of one task."""

    kind: str  # crashed | hung | deadline | error | spawn
    attempt: int
    detail: str


@dataclass
class TaskOutcome:
    """Terminal state of one task after supervision."""

    status: str  # done | quarantined | failed
    #: the worker's lane checkpoints (see ``execute_payload``)
    result: Optional[List["LaneCheckpoint"]] = None
    failures: List[TaskFailure] = field(default_factory=list)
    attempts: int = 0
    ran_inprocess: bool = False


@dataclass
class RunReport:
    """What one :meth:`Supervisor.run` observed, for solve-level accounting."""

    outcomes: Dict[object, TaskOutcome] = field(default_factory=dict)
    hangs_detected: int = 0
    deadline_cancels: int = 0
    inprocess_tasks: int = 0
    respawns: int = 0
    events: List[str] = field(default_factory=list)


class _Task:
    __slots__ = ("id", "payload", "not_before", "attempts",
                 "consecutive_kills", "failures", "slot")

    def __init__(self, task_id, payload):
        self.id = task_id
        self.payload = payload
        self.not_before = 0.0
        self.attempts = 0
        self.consecutive_kills = 0
        self.failures: List[TaskFailure] = []
        self.slot: Optional[WorkerSlot] = None


class Supervisor:
    """Drives batches of tasks over a pool; owns deadlines and verdicts.

    One supervisor per coordinator; the pool it drives may be shared
    across many solves (that sharing is what makes the workers' cached
    systems and compiled plans pay off).
    """

    def __init__(self, pool: WorkerPool, *,
                 heartbeat_timeout: float = 30.0,
                 cancel_grace: float = 1.0,
                 tick: float = 0.02):
        self.pool = pool
        self.heartbeat_timeout = heartbeat_timeout
        self.cancel_grace = cancel_grace
        self.tick = tick

    def run(self, payloads: Dict[object, Dict[str, object]], *,
            deadline: Optional[float] = None,
            max_retries: int = 2,
            quarantine_after: Optional[int] = 3,
            retry_backoff: Optional[BackoffPolicy] = None,
            on_retry: Optional[Callable] = None,
            fallback: bool = True) -> RunReport:
        """Run every payload to a terminal outcome; never deadlocks.

        ``on_retry(task_id, attempt, kind)`` may return a replacement
        payload for the retried attempt (e.g. with checkpoints reloaded
        from the store) or ``None`` to reuse the previous one.
        """
        backoff = retry_backoff if retry_backoff is not None else BackoffPolicy()
        tasks = {tid: _Task(tid, payloads[tid]) for tid in sorted(payloads)}
        order = list(tasks)
        report = RunReport()
        events_start = len(self.pool.events)
        respawns_start = self.pool.stats["respawns"]

        def free_slot(slot: WorkerSlot) -> Optional[_Task]:
            task = tasks.get(slot.task_id)
            slot.state = "idle"
            slot.task_id = None
            slot.cancel_sent_at = None
            slot.deadline_at = None
            if task is not None:
                task.slot = None
            return task

        def fail_task(task: _Task, kind: str, detail: str, now: float) -> None:
            task.attempts += 1
            task.failures.append(TaskFailure(kind, task.attempts, detail))
            task.slot = None
            if kind in _FATAL_KINDS:
                task.consecutive_kills += 1
            else:
                task.consecutive_kills = 0
            if quarantine_after is not None \
                    and task.consecutive_kills >= quarantine_after:
                report.outcomes[task.id] = TaskOutcome(
                    "quarantined", failures=task.failures,
                    attempts=task.attempts)
                return
            if task.attempts > max_retries:
                report.outcomes[task.id] = TaskOutcome(
                    "failed", failures=task.failures, attempts=task.attempts)
                return
            if on_retry is not None:
                replacement = on_retry(task.id, task.attempts, kind)
                if replacement is not None:
                    task.payload = replacement
            task.not_before = now + backoff.delay(task.attempts,
                                                  self.pool.rng)

        def on_crash(slot: WorkerSlot, now: float) -> None:
            task = free_slot(slot)
            self.pool.mark_crashed(slot, now)
            if task is not None and task.id not in report.outcomes:
                fail_task(task, "crashed",
                          f"worker {slot.index} process died mid-job", now)

        def on_message(slot: WorkerSlot, msg, now: float) -> None:
            kind, seq = msg[0], msg[1]
            if seq != slot.seq:
                return  # stale message from a superseded job
            if kind == "beat":
                slot.last_beat = now
                return
            if slot.task_id is None:
                return
            if kind == "result":
                task = free_slot(slot)
                slot.crash_streak = 0
                if task.id not in report.outcomes:
                    report.outcomes[task.id] = TaskOutcome(
                        "done", result=msg[2], failures=task.failures,
                        attempts=task.attempts)
            elif kind == "cancelled":
                task = free_slot(slot)
                slot.crash_streak = 0
                fail_task(task, "deadline",
                          "cooperatively cancelled past the job deadline",
                          now)
            elif kind == "error":
                name, message = msg[2], msg[3]
                task = free_slot(slot)
                if name == "MissingSystemsError":
                    # Recoverable bookkeeping miss: re-ship the systems on
                    # the next dispatch, no retry attempt charged.
                    slot.tokens.clear()
                    task.not_before = now
                    return
                slot.crash_streak = 0
                if name == "ConfigurationError":
                    raise ConfigurationError(message)
                fail_task(task, "error", f"{name}: {message}", now)

        def dispatch(slot: WorkerSlot, task: _Task, now: float) -> bool:
            slot.seq += 1
            shipped = self.pool.payload_for_slot(slot, task.payload)
            try:
                slot.conn.send(("job", slot.seq, shipped))
            except (BrokenPipeError, OSError):
                self.pool.mark_crashed(slot, now)
                return False
            slot.state = "busy"
            slot.task_id = task.id
            task.slot = slot
            slot.dispatched_at = now
            slot.last_beat = now
            slot.deadline_at = (now + deadline) if deadline else None
            slot.cancel_sent_at = None
            return True

        def run_inprocess(task: _Task, now: float) -> None:
            payload = dict(task.payload)
            payload.pop("fault", None)
            payload["systems"] = self.pool.systems_for(
                str(payload["token"]))
            try:
                result = execute_payload(payload, self.pool.local_systems,
                                         self.pool.local_trackers)
            except ConfigurationError:
                raise
            except Exception as exc:
                fail_task(task, "error", f"{type(exc).__name__}: {exc}",
                          now)
            else:
                report.inprocess_tasks += 1
                report.outcomes[task.id] = TaskOutcome(
                    "done", result=result, failures=task.failures,
                    attempts=task.attempts, ran_inprocess=True)

        while len(report.outcomes) < len(tasks):
            now = time.monotonic()
            self.pool.spawn_due(now)
            ready = [tasks[tid] for tid in order
                     if tid not in report.outcomes
                     and tasks[tid].slot is None
                     and tasks[tid].not_before <= now]

            if self.pool.all_retired():
                remaining = [tasks[tid] for tid in order
                             if tid not in report.outcomes
                             and tasks[tid].slot is None]
                if not fallback:
                    for task in remaining:
                        fail_task(task, "spawn",
                                  "worker pool exhausted and in-process "
                                  "fallback disabled", now)
                        if task.id not in report.outcomes:
                            report.outcomes[task.id] = TaskOutcome(
                                "failed", failures=task.failures,
                                attempts=task.attempts)
                    continue
                if ready:
                    for task in ready:
                        if task.id not in report.outcomes:
                            run_inprocess(task, time.monotonic())
                elif remaining:
                    next_at = min(t.not_before for t in remaining)
                    time.sleep(min(self.tick,
                                   max(0.0, next_at - time.monotonic())))
                continue

            # Work-stealing dispatch: any idle worker takes the next
            # ready task, whichever shard it belongs to.
            for slot in self.pool.idle_slots():
                if not ready:
                    break
                task = ready.pop(0)
                if not dispatch(slot, task, now):
                    ready.insert(0, task)

            conns = {s.conn: s for s in self.pool.alive_slots()
                     if s.conn is not None}
            sentinels = {s.process.sentinel: s
                         for s in self.pool.alive_slots()
                         if s.process is not None}
            waitables = list(conns) + list(sentinels)
            if waitables:
                mp_connection.wait(waitables, timeout=self.tick)
            else:
                time.sleep(self.tick)
            now = time.monotonic()

            # Drain every pipe first: a result queued by a worker that
            # died right after sending must win over the death verdict.
            for slot in list(self.pool.alive_slots()):
                broken = False
                while slot.conn is not None:
                    try:
                        if not slot.conn.poll(0):
                            break
                        msg = slot.conn.recv()
                    except (EOFError, OSError):
                        broken = True
                        break
                    on_message(slot, msg, now)
                if slot.alive and (broken or (slot.process is not None
                                              and not slot.process.is_alive())):
                    on_crash(slot, now)

            # Heartbeat and deadline verdicts for whoever is still busy.
            for slot in self.pool.slots:
                if slot.state != "busy":
                    continue
                task = tasks[slot.task_id]
                if self.heartbeat_timeout is not None \
                        and now - slot.last_beat > self.heartbeat_timeout:
                    free_slot(slot)
                    self.pool.kill_slot(slot, now)
                    report.hangs_detected += 1
                    fail_task(task, "hung",
                              f"no heartbeat for more than "
                              f"{self.heartbeat_timeout:.3g}s; worker "
                              f"{slot.index} killed", now)
                    continue
                if slot.deadline_at is not None:
                    if slot.cancel_sent_at is None and now > slot.deadline_at:
                        try:
                            slot.conn.send(("cancel", slot.seq))
                        except (BrokenPipeError, OSError):
                            on_crash(slot, now)
                        else:
                            slot.cancel_sent_at = now
                            report.deadline_cancels += 1
                    elif slot.cancel_sent_at is not None \
                            and now - slot.cancel_sent_at > self.cancel_grace:
                        free_slot(slot)
                        self.pool.kill_slot(slot, now)
                        report.hangs_detected += 1
                        fail_task(task, "hung",
                                  "ignored cooperative cancel past the "
                                  "grace period; worker killed", now)

        report.respawns = self.pool.stats["respawns"] - respawns_start
        report.events = list(self.pool.events[events_start:])
        return report
