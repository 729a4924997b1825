"""Tests for the sharded, crash-tolerant solve coordinator.

The tier-1 tests exercise the real process-pool path at 2 workers on small
systems (a pool fork is ~0.1 s); the full crash-recovery drills on the
escalation workload are marked ``slow``.
"""

from __future__ import annotations

import dataclasses
import json
import re

import pytest

import repro.service.sharded as sharded_module
from repro.bench.batch_tracking import cyclic_quadratic_system
from repro.bench.scenarios import get_scenario
from repro.errors import ConfigurationError, ShardFailedError
from repro.multiprec import DOUBLE, DOUBLE_DOUBLE
from repro.polynomials import Monomial, Polynomial, PolynomialSystem
from repro.service import (
    FaultInjection,
    FileCheckpointStore,
    InMemoryCheckpointStore,
    solve_system_sharded,
)
from repro.service.sharded import partition_lanes
from repro.tracking import EscalationPolicy, TrackerOptions, solve_system


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


ESCALATION_OPTS = TrackerOptions(end_tolerance=5e-17, end_iterations=12)
ESCALATION_POLICY = EscalationPolicy(ladder=(DOUBLE, DOUBLE_DOUBLE))


@pytest.fixture(scope="module")
def escalation_reference():
    """Single-process reference of the 16-path escalation workload."""
    return solve_system(cyclic_quadratic_system(4), options=ESCALATION_OPTS,
                        escalation=ESCALATION_POLICY)


class TestLanePartition:
    """partition_lanes: the sharded service's contiguous path partition."""

    def test_contiguous_balanced_runs(self):
        assert partition_lanes(10, 3) == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_concatenation_preserves_global_order(self):
        lanes = partition_lanes(17, 4)
        flat = [i for shard in lanes for i in shard]
        assert flat == list(range(17))

    def test_sizes_differ_by_at_most_one(self):
        sizes = [len(s) for s in partition_lanes(11, 4)]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_lanes(self):
        assert partition_lanes(2, 4) == [[0], [1], [], []]

    def test_empty_batch(self):
        assert partition_lanes(0, 3) == [[], [], []]

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            partition_lanes(4, 0)
        with pytest.raises(ConfigurationError):
            partition_lanes(-1, 2)


class TestShardedSmoke:
    """Tier-1: the process-pool path at 2 workers, end to end."""

    def test_two_worker_solve_matches_single_process_bit_for_bit(self):
        system = decoupled_quadratics()
        reference = solve_system(system)
        report = solve_system_sharded(system, shards=2)
        assert solution_key(report) == solution_key(reference)
        assert report.shards == 2
        assert report.worker_retries == 0
        assert report.resumed_after_crash == 0
        assert report.paths_tracked == reference.paths_tracked
        assert report.paths_by_context == reference.paths_by_context
        assert report.converged_by_context == reference.converged_by_context

    def test_escalated_solve_matches_including_accounting(
            self, escalation_reference):
        report = solve_system_sharded(
            cyclic_quadratic_system(4), shards=2, options=ESCALATION_OPTS,
            escalation=ESCALATION_POLICY)
        assert solution_key(report) == solution_key(escalation_reference)
        assert report.paths_by_context == \
            escalation_reference.paths_by_context
        assert report.converged_by_context == \
            escalation_reference.converged_by_context
        assert report.resumed_by_context == \
            escalation_reference.resumed_by_context
        assert report.resume_t_by_context == \
            escalation_reference.resume_t_by_context
        assert report.recovered_by_escalation == \
            escalation_reference.recovered_by_escalation

    def test_more_shards_than_paths(self):
        system = decoupled_quadratics(values=(2.0,))  # 2 paths
        report = solve_system_sharded(system, shards=5)
        assert report.shards == 2  # empty shards are dropped
        assert solution_key(report) == solution_key(solve_system(system))

    def test_sharded_diagonal_start_matches_single_process(self):
        """``start=`` flows through the shard fan-out: a diagonal start
        tracks the reduced path count and lands on the same roots."""
        from repro.polynomials import triangular_sparse_system
        from repro.tracking import DiagonalStart

        system = triangular_sparse_system(3)
        reference = solve_system(system, start=DiagonalStart())
        report = solve_system_sharded(system, shards=2,
                                      start=DiagonalStart())
        assert report.start_strategy == "diagonal"
        assert report.paths_tracked == reference.paths_tracked == 4
        assert report.bezout_number == 12
        assert solution_key(report) == solution_key(reference)


class TestValidation:
    def test_backendless_rung_is_refused(self):
        orphan = dataclasses.replace(DOUBLE_DOUBLE, name="dd-no-backend")
        with pytest.raises(ConfigurationError, match="batch backend"):
            solve_system_sharded(
                decoupled_quadratics(),
                escalation=EscalationPolicy(ladder=(DOUBLE, orphan)))

    def test_unresolvable_context_name_is_refused(self):
        # Same name as a registered context but a different object: the
        # worker would silently resolve the wrong arithmetic.
        impostor = dataclasses.replace(DOUBLE_DOUBLE, mul_cost_factor=9.0)
        with pytest.raises(ConfigurationError, match="resolvable by name"):
            solve_system_sharded(decoupled_quadratics(), context=impostor)

    @pytest.mark.parametrize("tolerance", [0.0, -1e-6, float("nan"),
                                           float("inf")])
    def test_bad_deduplication_tolerance_is_refused_before_tracking(
            self, monkeypatch, tolerance):
        def pool(*args, **kwargs):
            raise AssertionError("a worker pool was built")

        monkeypatch.setattr(sharded_module, "WorkerPool", pool)
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"got {tolerance!r}")):
            solve_system_sharded(decoupled_quadratics(),
                                 deduplication_tolerance=tolerance)


class TestCrashRecovery:
    def test_retries_exhausted_raises_shard_failed(self):
        """A shard that keeps crashing must surface ShardFailedError, not
        hang or return a partial report."""
        with pytest.raises(ShardFailedError, match="retries"):
            solve_system_sharded(
                decoupled_quadratics(), shards=2, max_retries=0,
                backoff_seconds=0.0,
                fault_injection=FaultInjection(shard=0, level=0,
                                               kill_after_rounds=0))

    @pytest.mark.parametrize("shard", [1, 2])
    def test_retry_resumes_from_the_latest_rung(self, monkeypatch, shard):
        """Lanes are repartitioned every rung, so a shard idle at the last
        rung keeps an older record in the store.  noon-2 at 1e-40 tracks 9
        lanes at d and its 3 uncertified roots at dd and qd; a killed qd
        task must reload its lane's dd checkpoint, not the stale d record
        of the shard that held the lane at d."""
        retried = []

        class RecordingSupervisor(sharded_module.Supervisor):
            def run(self, payloads, *, on_retry, **kwargs):
                def recording(tid, attempt, kind):
                    payload = on_retry(tid, attempt, kind)
                    retried.append(payload)
                    return payload
                return super().run(payloads, on_retry=recording, **kwargs)

        monkeypatch.setattr(sharded_module, "Supervisor", RecordingSupervisor)
        system = get_scenario("noon-2").build_system()
        options = TrackerOptions(end_tolerance=1e-40, end_iterations=12)
        report = solve_system_sharded(
            system, shards=9, max_workers=2, options=options,
            escalation=EscalationPolicy(), backoff_seconds=0.0,
            fault_injection=FaultInjection(shard=shard, level=2,
                                           kill_after_rounds=0))
        assert report.resumed_after_crash == 1
        (payload,) = retried
        assert [cp.context_name for cp in payload["resume"]] == ["dd"]
        reference = solve_system(system, options=options,
                                 escalation=EscalationPolicy())
        assert solution_key(report) == solution_key(reference)

    @pytest.mark.slow
    def test_killed_worker_resumes_from_persisted_checkpoints(
            self, escalation_reference):
        """The acceptance drill: 2 workers, one hard-killed mid-dd-rung;
        the reschedule resumes warm from the store and the distinct
        solutions stay bit-for-bit identical to single-process."""
        store = InMemoryCheckpointStore()
        report = solve_system_sharded(
            cyclic_quadratic_system(4), shards=2, options=ESCALATION_OPTS,
            escalation=ESCALATION_POLICY, store=store, backoff_seconds=0.0,
            fault_injection=FaultInjection(shard=0, level=1,
                                           kill_after_rounds=0))
        assert report.worker_retries >= 1
        assert report.resumed_after_crash >= 1
        assert solution_key(report) == solution_key(escalation_reference)
        assert report.paths_converged == 16
        assert not report.failures

    @pytest.mark.slow
    def test_crash_recovery_through_the_file_store(self, tmp_path,
                                                   escalation_reference):
        """Same drill, persisting through the on-disk JSON store; the
        records stay on disk with cleanup=False."""
        store = FileCheckpointStore(tmp_path)
        report = solve_system_sharded(
            cyclic_quadratic_system(4), shards=2, options=ESCALATION_OPTS,
            escalation=ESCALATION_POLICY, store=store, job_id="drill",
            cleanup=False, backoff_seconds=0.0,
            fault_injection=FaultInjection(shard=0, level=1,
                                           kill_after_rounds=0))
        assert report.worker_retries >= 1
        assert report.resumed_after_crash >= 1
        assert solution_key(report) == solution_key(escalation_reference)
        # The per-shard records survived the solve.
        assert store.shards("drill") == [0, 1]
        record = store.get("drill", 0)
        assert record["level"] == 1  # last persisted rung
        assert record["pending"] == []  # everything converged

    @pytest.mark.slow
    def test_repeated_crashes_within_the_retry_budget(self,
                                                      escalation_reference):
        """Two consecutive kills of the same shard-rung still recover."""
        report = solve_system_sharded(
            cyclic_quadratic_system(4), shards=2, options=ESCALATION_OPTS,
            escalation=ESCALATION_POLICY, max_retries=3, backoff_seconds=0.0,
            fault_injection=FaultInjection(shard=0, level=1,
                                           kill_after_rounds=0, times=2))
        assert report.worker_retries >= 2
        assert solution_key(report) == solution_key(escalation_reference)


KATSURA_OPTS = TrackerOptions(end_tolerance=1e-40, end_iterations=12)
KILL_AT_DD = FaultInjection(shard=0, level=1, kill_after_rounds=0)


class _DamagingStore(InMemoryCheckpointStore):
    """Reads back every record damaged."""

    def __init__(self, damage):
        super().__init__()
        self.damage = damage

    def get(self, job_id, shard):
        record = super().get(job_id, shard)
        if record is not None:
            self.damage(record)
        return record


def _in_every_lane(damage):
    """A record damage that applies ``damage`` to each lane's state."""
    def damage_record(record):
        for state in record.get("checkpoints", {}).values():
            damage(state)
    return damage_record


@_in_every_lane
def _drop_a_plane(state):
    state["point"][0] = state["point"][0][:-1]


@_in_every_lane
def _garble_context(state):
    state["context"] = "od"


@_in_every_lane
def _shorten_prev_point(state):
    state["prev_point"] = state["prev_point"][:-1]


def _lose_the_lanes(record):
    record["checkpoints"] = {}


class TestDamagedRecords:
    """A stored record that parses but cannot resume is poison like any
    other: the retried shard cold-restarts, once, and the report names
    the field."""

    @pytest.mark.parametrize("damage, field", [
        (_drop_a_plane, "'point'"), (_garble_context, "'context'"),
        (_shorten_prev_point, "'prev_point'"),
        (_lose_the_lanes, "no checkpoint of lane")],
        ids=["dropped-plane", "unknown-context", "short-prev-point",
             "missing-lane"])
    def test_a_record_that_does_not_revive_cold_restarts_its_shard(
            self, damage, field):
        report = solve_system_sharded(
            get_scenario("katsura-3").build_system(), shards=2,
            options=KATSURA_OPTS, escalation=EscalationPolicy(),
            store=_DamagingStore(damage), backoff_seconds=0.0,
            fault_injection=KILL_AT_DD)
        assert report.cold_restarts_after_corruption == 1
        assert report.resumed_after_crash == 0
        (degradation,) = report.degradations
        assert "shard 0 at rung 'dd'" in degradation
        assert "CheckpointCorruptError" in degradation
        assert field in degradation


class TestOneRecordToTheStore:
    """Workers ship and resume LaneCheckpoints as they are: only the store
    put encodes a checkpoint, and only a retry's reload revives one."""

    def test_a_retry_revives_each_reloaded_lane_once(self, monkeypatch):
        from repro.tracking.batch_tracker import LaneCheckpoint

        revived, retried = [], []
        from_portable = LaneCheckpoint.from_portable.__func__

        def counting(cls, state):
            revived.append(state)
            return from_portable(cls, state)

        class RecordingSupervisor(sharded_module.Supervisor):
            def run(self, payloads, *, on_retry, **kwargs):
                def recording(tid, attempt, kind):
                    retried.append(on_retry(tid, attempt, kind))
                    return retried[-1]
                return super().run(payloads, on_retry=recording, **kwargs)

        monkeypatch.setattr(LaneCheckpoint, "from_portable",
                            classmethod(counting))
        monkeypatch.setattr(sharded_module, "Supervisor", RecordingSupervisor)
        system = get_scenario("katsura-3").build_system()
        report = solve_system_sharded(
            system, shards=2, options=KATSURA_OPTS,
            escalation=EscalationPolicy(), backoff_seconds=0.0,
            fault_injection=KILL_AT_DD)
        assert report.resumed_after_crash == 1
        (payload,) = retried
        lanes = payload["resume"]
        assert len(revived) == len(lanes) > 0
        assert all(isinstance(cp, LaneCheckpoint) for cp in lanes)
        # One revival per shipped lane, each from that lane's record.
        assert [json.dumps(state) for state in revived] == \
            [json.dumps(cp.to_portable()) for cp in lanes]
        reference = solve_system(system, options=KATSURA_OPTS,
                                 escalation=EscalationPolicy())
        assert solution_key(report) == solution_key(reference)


class _CountingStore(InMemoryCheckpointStore):
    """Records each put's ``(level, shard, lanes)`` and each get's shard."""

    def __init__(self):
        super().__init__()
        self.puts, self.gets = [], []

    def put(self, job_id, shard, state):
        self.puts.append((state["level"], shard, state["lanes"]))
        super().put(job_id, shard, state)

    def get(self, job_id, shard):
        self.gets.append(shard)
        return super().get(job_id, shard)


class TestRetryReads:
    def test_a_retry_reads_only_the_records_it_resumes_from(self):
        """noon-2 to 1e-40 on 9 shards, shard 0 killed at level 1: the
        retry gets the level-0 record of each shard that ran one of its
        lanes, once, and no other record of the job."""
        store = _CountingStore()
        system = get_scenario("noon-2").build_system()
        report = solve_system_sharded(
            system, shards=9, max_workers=2, options=KATSURA_OPTS,
            escalation=EscalationPolicy(), store=store, backoff_seconds=0.0,
            fault_injection=KILL_AT_DD)
        assert report.resumed_after_crash == 1
        (retried,) = [lanes for level, shard, lanes in store.puts
                      if (level, shard) == (1, 0)]
        holders = {shard for level, shard, lanes in store.puts
                   if level == 0 and set(lanes) & set(retried)}
        assert sorted(store.gets) == sorted(holders)
        reference = solve_system(system, options=KATSURA_OPTS,
                                 escalation=EscalationPolicy())
        assert solution_key(report) == solution_key(reference)


class TestStoreLifecycle:
    def test_cleanup_removes_the_job_records(self, tmp_path):
        store = FileCheckpointStore(tmp_path)
        solve_system_sharded(decoupled_quadratics(), shards=2, store=store,
                             job_id="gone")
        assert store.shards("gone") == []
        assert not (tmp_path / "gone").exists()

    def test_cleanup_false_keeps_per_rung_state(self):
        store = InMemoryCheckpointStore()
        report = solve_system_sharded(decoupled_quadratics(), shards=2,
                                      store=store, job_id="kept",
                                      cleanup=False)
        assert store.shards("kept") == [0, 1]
        for shard in (0, 1):
            record = store.get("kept", shard)
            assert record["context"] == "d"
            assert set(record["checkpoints"]) == \
                {str(i) for i in record["lanes"]}
        assert report.shards == 2
