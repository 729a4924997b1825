"""Tests for the persistent worker pool and its supervisor policies.

Tier-1 scope: real forked workers on small systems (each solve is a few
hundred ms).  The drills here are the pool-specific ones -- persistence
across solves, work-stealing, spawn-failure retirement with in-process
fallback, and deadline cancellation; the full fault-mode matrix lives in
``test_chaos_matrix.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ShardFailedError
from repro.polynomials import Monomial, Polynomial, PolynomialSystem
from repro.service import (
    BackoffPolicy,
    FaultInjection,
    WorkerPool,
    solve_system_sharded,
)
from repro.tracking import solve_system


def decoupled_quadratics(values=(2.0, 3.0)):
    polys = []
    for i, a in enumerate(values):
        polys.append(Polynomial([
            (1 + 0j, Monomial((i,), (2,))),
            (-a + 0j, Monomial((), ())),
        ]))
    return PolynomialSystem(polys)


def solution_key(report):
    """The bit-for-bit identity key of a report's distinct solutions."""
    return [(tuple(s.point), s.residual, s.multiplicity)
            for s in report.solutions]


def _never_spawns(pool):
    raise OSError("injected spawn failure")


#: Retirement drills must not sleep through respawn backoff.
_NO_BACKOFF = BackoffPolicy(base=0.0, cap=0.0, jitter=0.0)


class TestPersistentPool:
    def test_pool_survives_across_solves_bit_for_bit(self):
        """One pool, two solves: the second reuses the same workers (no
        respawns, no extra forks) and both match single-process exactly."""
        system = decoupled_quadratics()
        reference = solve_system(system)
        with WorkerPool(workers=2) as pool:
            first = solve_system_sharded(system, shards=2, pool=pool)
            assert pool.stats["spawns"] == 2
            second = solve_system_sharded(system, shards=2, pool=pool)
            assert pool.stats["spawns"] == 2  # nothing forked again
            assert pool.stats["respawns"] == 0
        assert solution_key(first) == solution_key(reference)
        assert solution_key(second) == solution_key(reference)

    def test_systems_ship_to_each_worker_at_most_once(self):
        system = decoupled_quadratics()
        with WorkerPool(workers=1) as pool:
            solve_system_sharded(system, shards=1, pool=pool)
            token = pool.register_systems(*pool.systems_for("sys-1"))
            assert token == "sys-1"  # same pair, same token
            slot = pool.slots[0]
            assert token in slot.tokens
            # A payload for a token the worker has seen is not re-shipped.
            shipped = pool.payload_for_slot(slot, {"token": token})
            assert "systems" not in shipped

    def test_idle_workers_steal_queued_shard_tasks(self):
        """More shards than workers: 4 shard tasks drain through 2
        workers, result still bit-for-bit."""
        system = decoupled_quadratics(values=(2.0, 3.0, 5.0))  # 8 paths
        reference = solve_system(system)
        with WorkerPool(workers=2) as pool:
            report = solve_system_sharded(system, shards=4, pool=pool)
        assert report.shards == 4
        assert solution_key(report) == solution_key(reference)


class TestTrackerCache:
    def test_fresh_and_resumed_payloads_share_one_tracker(self):
        """A worker keys its tracker cache by system, rung and options
        only: resuming a rung from checkpoints reuses the tracker (and its
        compiled plan) that tracked the rung from its starts."""
        from collections import OrderedDict

        from repro.service.workerpool import execute_payload
        from repro.tracking import start_solutions, total_degree_start_system

        system = decoupled_quadratics()
        start = total_degree_start_system(system)
        fresh = {"token": "sys", "systems": (start, system), "context": "d",
                 "options": None, "gamma": None, "batch_size": None,
                 "starts": [tuple(s) for s in start_solutions(system)],
                 "resume": None}
        systems, trackers = OrderedDict(), OrderedDict()
        first = execute_payload(fresh, systems, trackers)
        (tracker,) = trackers.values()

        resumed = dict(fresh, starts=None, resume=first)
        second = execute_payload(resumed, systems, trackers)
        assert list(trackers.values()) == [tracker]
        # A resume of the finished rung retires every lane unchanged, at
        # no evaluation.  The records compare as JSON text: a lane's
        # growth exponent is NaN before any in-zone estimate.
        assert tracker.evaluation_log == []
        assert json.dumps([cp.to_portable() for cp in second]) == \
            json.dumps([cp.to_portable() for cp in first])


def checkpoint_bits(checkpoints):
    """Every checkpoint field, each float as its bit pattern."""
    import numpy as np

    return [(cp.context_name, cp.status, cp.has_prev, cp.steps_accepted,
             cp.steps_rejected, cp.newton_iterations,
             np.array([*np.ravel(cp.point), *np.ravel(cp.prev_point), cp.t,
                       cp.prev_t, cp.dt, cp.residual, cp.growth_exponent],
                      dtype=np.float64).view(np.uint64).tolist())
            for cp in checkpoints]


class TestLaneCheckpointsCrossThePipe:
    @pytest.mark.parametrize("context", ["d", "dd"])
    def test_a_worker_returns_and_resumes_lane_checkpoints(self, context):
        """A job returns its lanes' LaneCheckpoints; shipped to a worker as
        they are, they resume there exactly as the in-process tracker
        resumes them, inf, NaN and -0.0 lanes included."""
        import math
        from collections import OrderedDict

        import numpy as np

        from repro.bench.batch_tracking import cyclic_quadratic_system
        from repro.multiprec import get_context
        from repro.service.supervisor import Supervisor
        from repro.service.workerpool import execute_payload
        from repro.tracking import (BatchTracker, LaneCheckpoint,
                                    TrackerOptions, start_solutions,
                                    total_degree_start_system)

        system = cyclic_quadratic_system(2)
        start = total_degree_start_system(system)
        starts = ([[np.inf, 1], [complex(-0.0, -0.0), complex(np.nan, 2.0)]]
                  + [tuple(s) for s in start_solutions(system)])
        payload = {"token": "sys", "systems": (start, system),
                   "context": "d", "options": TrackerOptions(max_steps=3),
                   "gamma": None, "batch_size": None, "starts": starts,
                   "resume": None}
        first = execute_payload(payload, OrderedDict(), OrderedDict())
        assert all(isinstance(cp, LaneCheckpoint) for cp in first)
        infinite, odd = first[:2]
        assert infinite.point[0][0] == math.inf
        assert math.copysign(1.0, odd.point[0][0]) == -1.0
        assert math.isnan(odd.point[1][0])

        with WorkerPool(workers=1) as pool:
            token = pool.register_systems(start, system)
            resume = {"token": token, "context": context, "options": None,
                      "gamma": None, "batch_size": None, "starts": None,
                      "resume": first}
            outcome = Supervisor(pool).run({0: resume}).outcomes[0]
        assert outcome.status == "done" and not outcome.ran_inprocess
        in_process = BatchTracker(start, system,
                                  context=get_context(context)) \
            .track_batches(resume_from=first).checkpoints()
        assert checkpoint_bits(outcome.result) == checkpoint_bits(in_process)


class TestPoolDegradation:
    def test_unspawnable_pool_falls_back_inprocess(self):
        """Every spawn attempt fails -> slots retire -> the shard tasks
        run inline on the coordinator, recorded as a degradation, and the
        solve still matches single-process bit-for-bit."""
        system = decoupled_quadratics()
        reference = solve_system(system)
        with WorkerPool(workers=2, spawn=_never_spawns,
                        respawn_backoff=_NO_BACKOFF,
                        max_spawn_attempts=2) as pool:
            report = solve_system_sharded(system, shards=2, pool=pool,
                                          backoff_seconds=0.0)
            assert pool.all_retired()
            assert pool.stats["spawn_failures"] >= 4  # 2 slots x 2 attempts
        assert report.inprocess_fallbacks == 2
        assert solution_key(report) == solution_key(reference)
        assert any("retired" in d for d in report.degradations)
        assert any("ran in-process" in d for d in report.degradations)

    def test_unspawnable_pool_without_fallback_raises(self):
        with WorkerPool(workers=1, spawn=_never_spawns,
                        respawn_backoff=_NO_BACKOFF,
                        max_spawn_attempts=2) as pool:
            with pytest.raises(ShardFailedError, match="spawn"):
                solve_system_sharded(decoupled_quadratics(), shards=2,
                                     pool=pool, backoff_seconds=0.0,
                                     allow_inprocess_fallback=False)


class TestDeadlines:
    def test_deadline_cancels_cooperatively_then_retry_succeeds(self):
        """A worker slowed past the deadline is cancelled between tracker
        rounds (not killed: zero pool kills) and the retried task, with
        the fault budget spent, finishes identically."""
        system = decoupled_quadratics()
        reference = solve_system(system)
        with WorkerPool(workers=2) as pool:
            report = solve_system_sharded(
                system, shards=2, pool=pool, backoff_seconds=0.0,
                timeout=0.2, cancel_grace=5.0,
                fault_injection=FaultInjection(
                    shard=0, level=0, kill_after_rounds=0, times=1,
                    mode="slow", delay_seconds=0.35))
            assert pool.stats["kills"] == 0  # cooperative, not SIGKILL
        assert report.deadline_cancels >= 1
        assert report.worker_retries >= 1
        assert solution_key(report) == solution_key(reference)
