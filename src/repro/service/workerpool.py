"""Persistent, supervised worker processes for the sharded solve service.

This module is the *mechanism* half of the supervised runtime (the policy
loop lives in :mod:`repro.service.supervisor`):

* the **wire protocol** between coordinator and worker -- plain tuples over
  a duplex :func:`multiprocessing.Pipe`:

  ====================  =============================================
  parent -> child       ``("job", seq, payload)``, ``("cancel", seq)``,
                        ``("stop",)``
  child -> parent       ``("beat", seq, rounds)``,
                        ``("result", seq, result)``,
                        ``("error", seq, name, message, traceback)``,
                        ``("cancelled", seq)``
  ====================  =============================================

  A payload's resumed lanes and a result are plain
  :class:`~repro.tracking.batch_tracker.LaneCheckpoint` records, pickled
  as they are (see :func:`execute_payload`);

* the **worker main loop** (:func:`_worker_main`): a long-lived process
  that executes one shard-rung job at a time, emits throttled heartbeats
  from inside the tracker's lock-step rounds, polls the pipe for
  cooperative cancellation between rounds, and caches both the shipped
  polynomial systems (by token) and the constructed
  :class:`~repro.tracking.batch_tracker.BatchTracker` (whose compiled
  evaluation plans are the expensive part) across jobs and across solves;

* :class:`WorkerPool`: the slot table -- spawn/respawn with capped
  jittered backoff, kill, retire-after-repeated-spawn-failure, and the
  token registry that ships each (start, target) system pair to a given
  worker at most once.

Workers are forked lazily and never recycled on a timer: the whole point
of the pool is that the fork + system-pickle + plan-compile tax is paid
once, not once per solve (the ``fresh`` vs ``persistent`` dispatch rows of
``BENCH_shard.json`` quantify exactly this).
"""

from __future__ import annotations

import os
import time
import traceback
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError

__all__ = ["WorkerPool", "execute_payload"]

#: Hard caps on the per-worker caches; tokens are evicted oldest-first so
#: a long-lived pool serving many distinct systems cannot grow unboundedly.
_MAX_CACHED_SYSTEMS = 32
_MAX_CACHED_TRACKERS = 8


class MissingSystemsError(ReproError):
    """A worker received a job token it has no systems cached for.

    Recoverable by construction: the supervisor re-ships the systems and
    re-dispatches without charging a retry attempt.  Seen when a worker
    was respawned between the registry's bookkeeping and the dispatch.
    """


class _CancelledJob(Exception):
    """Internal: the current job was cooperatively cancelled mid-round."""


# ----------------------------------------------------------------------
# round hooks: heartbeats, cooperative cancel, injected faults
# ----------------------------------------------------------------------
class _RoundHooks:
    """Per-job instrumentation threaded through the tracker's rounds.

    Wraps ``tracker._advance`` / ``tracker._endgame`` so that every
    lock-step round (the endgame round included) first polls the pipe for
    a cooperative cancel, then applies the armed fault mode, then emits a
    throttled heartbeat.  A ``kill`` fault dies with ``os._exit(1)`` -- an
    un-catchable hard crash, exactly what a preempted or OOM-killed worker
    looks like; a ``hang`` sleeps without beating (the supervisor must
    detect the silence); a ``slow`` sleeps *while beating* (the supervisor
    must keep waiting -- slow is not dead).
    """

    def __init__(self, conn, seq: int, fault: Optional[Dict[str, object]],
                 heartbeat_interval: float):
        self.conn = conn
        self.seq = seq
        self.interval = heartbeat_interval
        self.rounds = 0
        self.last_beat = 0.0
        self.fault_mode = None
        self.fault_countdown = 0
        self.fault_delay = 0.0
        if fault is not None:
            self.fault_mode = str(fault["mode"])
            self.fault_countdown = int(fault.get("kill_after_rounds", 0))
            self.fault_delay = float(fault.get("delay_seconds", 0.0))

    def beat(self, force: bool = False) -> None:
        now = time.monotonic()
        if force or now - self.last_beat >= self.interval:
            _send(self.conn, ("beat", self.seq, self.rounds))
            self.last_beat = now

    def _check_cancel(self) -> None:
        while self.conn.poll(0):
            msg = self.conn.recv()
            if msg[0] == "cancel" and msg[1] == self.seq:
                raise _CancelledJob()
            if msg[0] == "stop":
                os._exit(0)
            # Anything else is a stale message for a finished job; drop it.

    def _apply_fault(self) -> None:
        if self.fault_mode is None:
            return
        if self.fault_countdown > 0:
            self.fault_countdown -= 1
            return
        if self.fault_mode == "kill":
            os._exit(1)
        elif self.fault_mode == "hang":
            # One dead sleep, no beats: indistinguishable from a worker
            # stuck in a syscall.  Disarmed afterwards so a worker that
            # outlives the supervisor's patience does not hang again.
            time.sleep(self.fault_delay)
            self.fault_mode = None
        elif self.fault_mode == "slow":
            # Sleep in heartbeat-sized slices, beating throughout: alive
            # but slow, which the supervisor must tolerate.
            remaining = self.fault_delay
            while remaining > 0.0:
                slice_ = min(self.interval, remaining)
                time.sleep(slice_)
                remaining -= slice_
                self.beat(force=True)

    def on_round(self) -> None:
        self._check_cancel()
        self._apply_fault()
        self.rounds += 1
        self.beat()


def _around(method, hooks: _RoundHooks):
    def wrapped(batch):
        hooks.on_round()
        return method(batch)
    return wrapped


def _send(conn, message) -> None:
    try:
        conn.send(message)
    except (BrokenPipeError, OSError):
        # The coordinator is gone; there is nobody left to report to.
        os._exit(0)


# ----------------------------------------------------------------------
# job execution (worker process and in-process fallback both)
# ----------------------------------------------------------------------
def _options_key(options) -> Tuple[str, str]:
    return (type(options).__name__, repr(options))


def _tracker_for(payload: Dict[str, object],
                 systems: "OrderedDict",
                 trackers: "OrderedDict"):
    """Build (or fetch from cache) the tracker for one job payload."""
    from ..multiprec.numeric import get_context
    from ..tracking.batch_tracker import BatchTracker

    token = str(payload["token"])
    shipped = payload.get("systems")
    if shipped is not None:
        systems[token] = shipped
        systems.move_to_end(token)
        while len(systems) > _MAX_CACHED_SYSTEMS:
            evicted, _ = systems.popitem(last=False)
            for key in [k for k in trackers if k[0] == evicted]:
                del trackers[key]
    if token not in systems:
        raise MissingSystemsError(
            f"no systems cached for token {token!r}; re-ship and retry")
    systems.move_to_end(token)
    start_system, target_system = systems[token]

    key = (token, str(payload["context"]), _options_key(payload["options"]),
           payload["gamma"], payload["batch_size"])
    tracker = trackers.get(key)
    if tracker is None:
        tracker = BatchTracker(
            start_system, target_system,
            context=get_context(str(payload["context"])),
            options=payload["options"],
            batch_size=payload["batch_size"],
            gamma=payload["gamma"],
        )
        trackers[key] = tracker
    trackers.move_to_end(key)
    while len(trackers) > _MAX_CACHED_TRACKERS:
        trackers.popitem(last=False)
    return tracker


def execute_payload(payload: Dict[str, object],
                    systems: Optional["OrderedDict"] = None,
                    trackers: Optional["OrderedDict"] = None,
                    hooks: Optional[_RoundHooks] = None) -> List:
    """Track one shard-rung job; returns its lanes' checkpoints.

    This is the single execution path shared by worker processes and the
    coordinator's in-process fallback: the payload is plain picklable data
    (context shipped by *name*, the lanes' start solutions or the
    :class:`~repro.tracking.batch_tracker.LaneCheckpoint` list to resume,
    a system-cache token), and the return value is one
    :class:`~repro.tracking.batch_tracker.LaneCheckpoint` per lane, in lane
    order.  Checkpoints hold plain floats and cross the pipe as they are;
    only the coordinator's store encodes them.
    """
    if systems is None:
        systems = OrderedDict()
    if trackers is None:
        trackers = OrderedDict()
    tracker = _tracker_for(payload, systems, trackers)

    original = (tracker._advance, tracker._endgame)
    if hooks is not None:
        # Both the lock-step advance rounds and the endgame round count: a
        # rung resumed at ``t >= 1`` goes straight to the endgame, and
        # heartbeats/faults/cancellation must cover that worker too.
        tracker._advance = _around(original[0], hooks)
        tracker._endgame = _around(original[1], hooks)
        hooks.beat(force=True)
    try:
        resume = payload.get("resume")
        if resume is not None:
            outcome = tracker.track_batches(resume_from=resume)
        else:
            outcome = tracker.track_batches(payload["starts"])
    finally:
        tracker._advance, tracker._endgame = original
    return outcome.checkpoints()


def _worker_main(conn, heartbeat_interval: float) -> None:
    """Entry point of one persistent worker process."""
    systems: "OrderedDict" = OrderedDict()
    trackers: "OrderedDict" = OrderedDict()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        kind = msg[0]
        if kind == "stop":
            return
        if kind != "job":
            continue  # a stale cancel for a job that already finished
        seq, payload = msg[1], msg[2]
        hooks = _RoundHooks(conn, seq, payload.get("fault"),
                            heartbeat_interval)
        # Beat immediately: tracker construction (plan compilation on a
        # cold cache) happens before the first round's heartbeat.
        hooks.beat(force=True)
        try:
            result = execute_payload(payload, systems, trackers, hooks)
        except _CancelledJob:
            _send(conn, ("cancelled", seq))
        except BaseException as exc:  # noqa: BLE001 -- reported, not dropped
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                return
            _send(conn, ("error", seq, type(exc).__name__, str(exc),
                         traceback.format_exc()))
        else:
            _send(conn, ("result", seq, result))


# ----------------------------------------------------------------------
# the pool: worker slots, spawn/respawn/retire, the system registry
# ----------------------------------------------------------------------
def default_mp_context(name=None):
    """Resolve a multiprocessing context; prefers ``fork`` (workers inherit
    ``sys.path`` and the imported :mod:`repro` package, which keeps the
    service runnable without install)."""
    import multiprocessing
    if name is not None and not isinstance(name, str):
        return name  # an explicit multiprocessing context object
    if name is None:
        name = "fork" if "fork" in multiprocessing.get_all_start_methods() \
            else None
    return multiprocessing.get_context(name)


class WorkerSlot:
    """One worker seat: a process that is respawned in place when it dies."""

    __slots__ = ("index", "process", "conn", "state", "tokens", "seq",
                 "task_id", "last_beat", "dispatched_at", "deadline_at",
                 "cancel_sent_at", "respawn_not_before", "spawn_failures",
                 "crash_streak")

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.conn = None
        self.state = "down"  # down | idle | busy | retired
        self.tokens = set()
        self.seq = 0
        self.task_id = None
        self.last_beat = 0.0
        self.dispatched_at = 0.0
        self.deadline_at = None
        self.cancel_sent_at = None
        self.respawn_not_before = 0.0
        self.spawn_failures = 0
        self.crash_streak = 0

    @property
    def alive(self) -> bool:
        return self.state in ("idle", "busy")


class WorkerPool:
    """A table of persistent worker slots with supervised lifecycles.

    The pool owns mechanism only: spawning (lazily, on first demand),
    respawning dead slots under the capped jittered
    :class:`~repro.service.backoff.BackoffPolicy`, retiring a slot after
    ``max_spawn_attempts`` consecutive spawn failures, hard-killing a
    worker the supervisor has declared hung, and shipping each registered
    (start, target) system pair to a given worker exactly once (the
    per-worker token cache is what lets a persistent pool skip the
    system-pickle tax on every later rung and solve).  Scheduling policy
    -- deadlines, heartbeat verdicts, retries, quarantine -- lives in
    :class:`repro.service.supervisor.Supervisor`.
    """

    def __init__(self, workers: int = 2, *,
                 mp_context=None,
                 heartbeat_interval: float = 0.02,
                 respawn_backoff=None,
                 max_spawn_attempts: int = 3,
                 rng=None,
                 spawn=None):
        from random import Random
        from .backoff import BackoffPolicy
        self.mp_context = default_mp_context(mp_context)
        self.heartbeat_interval = float(heartbeat_interval)
        self.respawn_backoff = respawn_backoff if respawn_backoff is not None \
            else BackoffPolicy(base=0.05, factor=2.0, cap=1.0, jitter=0.5)
        self.max_spawn_attempts = int(max_spawn_attempts)
        self.rng = rng if rng is not None else Random(0)
        self._spawn_impl = spawn
        self.slots = [WorkerSlot(i) for i in range(max(1, int(workers)))]
        self._systems: "OrderedDict[str, Tuple[object, object]]" = OrderedDict()
        self._token_by_pair: Dict[Tuple[int, int], str] = {}
        self._token_counter = 0
        self.stats = {"spawns": 0, "respawns": 0, "kills": 0,
                      "spawn_failures": 0}
        self.events: List[str] = []
        # Caches for the supervisor's in-process fallback runner, so a
        # degraded coordinator still amortises tracker construction.
        self.local_systems: "OrderedDict" = OrderedDict()
        self.local_trackers: "OrderedDict" = OrderedDict()

    # -- system registry ------------------------------------------------
    def register_systems(self, start_system, target_system) -> str:
        """Register a (start, target) pair; returns its shipping token."""
        pair = (id(start_system), id(target_system))
        token = self._token_by_pair.get(pair)
        if token is not None and token in self._systems:
            self._systems.move_to_end(token)
            return token
        self._token_counter += 1
        token = f"sys-{self._token_counter}"
        self._systems[token] = (start_system, target_system)
        self._token_by_pair[pair] = token
        while len(self._systems) > _MAX_CACHED_SYSTEMS:
            evicted, (s, t) = self._systems.popitem(last=False)
            self._token_by_pair.pop((id(s), id(t)), None)
        return token

    def systems_for(self, token: str):
        return self._systems[token]

    def payload_for_slot(self, slot: WorkerSlot,
                         payload: Dict[str, object]) -> Dict[str, object]:
        """Attach the systems iff this worker has not seen the token yet."""
        token = str(payload["token"])
        if token in slot.tokens:
            return payload
        shipped = dict(payload)
        shipped["systems"] = self._systems[token]
        slot.tokens.add(token)
        return shipped

    # -- slot lifecycle -------------------------------------------------
    def _spawn(self, slot: WorkerSlot) -> None:
        if self._spawn_impl is not None:
            process, conn = self._spawn_impl(self)
        else:
            parent_conn, child_conn = self.mp_context.Pipe(duplex=True)
            process = self.mp_context.Process(
                target=_worker_main,
                args=(child_conn, self.heartbeat_interval),
                daemon=True, name=f"repro-worker-{slot.index}")
            process.start()
            child_conn.close()
            conn = parent_conn
        slot.process = process
        slot.conn = conn
        slot.state = "idle"
        slot.tokens = set()
        slot.task_id = None
        slot.cancel_sent_at = None
        slot.deadline_at = None

    def spawn_due(self, now: float) -> None:
        """Spawn every down slot whose respawn backoff has expired."""
        for slot in self.slots:
            if slot.state != "down" or now < slot.respawn_not_before:
                continue
            try:
                self._spawn(slot)
            except Exception as exc:
                slot.spawn_failures += 1
                self.stats["spawn_failures"] += 1
                if slot.spawn_failures >= self.max_spawn_attempts:
                    slot.state = "retired"
                    self.events.append(
                        f"worker slot {slot.index} retired after "
                        f"{slot.spawn_failures} spawn failure(s): {exc}")
                    alive = len(self.alive_slots())
                    if alive:
                        self.events.append(
                            f"pool shrunk to {alive} live worker(s)")
                else:
                    slot.respawn_not_before = now + self.respawn_backoff.delay(
                        slot.spawn_failures, self.rng)
            else:
                slot.spawn_failures = 0
                self.stats["spawns"] += 1
                if self.stats["spawns"] > len(self.slots):
                    self.stats["respawns"] += 1

    def _close_conn(self, slot: WorkerSlot) -> None:
        if slot.conn is not None:
            try:
                slot.conn.close()
            except OSError:
                pass
            slot.conn = None

    def mark_crashed(self, slot: WorkerSlot, now: float) -> None:
        """The process died on its own; schedule a backed-off respawn."""
        self._close_conn(slot)
        if slot.process is not None:
            slot.process.join(timeout=1.0)
        slot.process = None
        slot.state = "down"
        slot.task_id = None
        slot.crash_streak += 1
        slot.respawn_not_before = now + self.respawn_backoff.delay(
            min(slot.crash_streak, 8), self.rng)

    def kill_slot(self, slot: WorkerSlot, now: float) -> None:
        """Hard-kill a hung worker (SIGKILL) and schedule its respawn."""
        self.stats["kills"] += 1
        if slot.process is not None:
            try:
                slot.process.kill()
            except (OSError, AttributeError):
                if slot.process is not None:
                    slot.process.terminate()
        self.mark_crashed(slot, now)

    # -- queries --------------------------------------------------------
    def alive_slots(self) -> List[WorkerSlot]:
        return [s for s in self.slots if s.alive]

    def idle_slots(self) -> List[WorkerSlot]:
        return [s for s in self.slots if s.state == "idle"]

    def all_retired(self) -> bool:
        return all(s.state == "retired" for s in self.slots)

    def next_spawn_time(self) -> Optional[float]:
        times = [s.respawn_not_before for s in self.slots
                 if s.state == "down"]
        return min(times) if times else None

    # -- shutdown -------------------------------------------------------
    def close(self) -> None:
        """Stop every worker; graceful first, SIGKILL for stragglers."""
        for slot in self.slots:
            if slot.conn is not None:
                try:
                    slot.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        for slot in self.slots:
            if slot.process is not None:
                slot.process.join(timeout=1.0)
                if slot.process.is_alive():
                    slot.process.kill()
                    slot.process.join(timeout=1.0)
            self._close_conn(slot)
            slot.process = None
            if slot.state != "retired":
                slot.state = "down"

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
