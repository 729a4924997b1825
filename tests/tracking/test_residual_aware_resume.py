"""Residual-aware resume: certified checkpoints skip the endgame re-entry
round.

A lane checkpointed at ``t >= 1`` whose stored residual already satisfies
the endgame tolerance carries its own convergence certificate -- the
capturing run *measured* that residual at that point -- so re-entering the
endgame corrector only spends an evaluation round re-deriving it.
``BatchTracker.track_batches(resume_from=...)`` therefore retires such a
lane as a success immediately; the count surfaces in
:attr:`BatchTrackResult.endgame_reentries_skipped`.  A lane retired at
infinity is retired again on entry, unchanged.

A same-arithmetic resume of a finished run is thus a no-op: every lane
comes back bit-for-bit unchanged, at zero evaluations.  The certificate is
conservative: endgame *failures* checkpoint with residuals above the
tolerance by construction, so the escalation ladder never skips an
endgame -- the payoff case is resuming full checkpoint sets
(interrupted-run replays), exercised directly below.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.bench.batch_tracking import cyclic_quadratic_system
from repro.bench.scenarios import get_scenario
from repro.errors import CheckpointCorruptError
from repro.multiprec.backend import backend_named
from repro.multiprec.numeric import DOUBLE, DOUBLE_DOUBLE, QUAD_DOUBLE
from repro.tracking.batch_tracker import BatchTracker, LaneCheckpoint, PathStatus
from repro.tracking.start_systems import start_solutions, total_degree_start_system
from repro.tracking.tracker import TrackerOptions


@pytest.fixture(scope="module")
def workload():
    target = cyclic_quadratic_system(3)
    start = total_degree_start_system(target)
    starts = list(start_solutions(target))
    return start, target, starts


def tracked_checkpoints(workload, options):
    start, target, starts = workload
    tracker = BatchTracker(start, target, context=DOUBLE_DOUBLE,
                           options=options)
    outcome = tracker.track_batches(starts)
    return outcome, outcome.checkpoints()


class TestSkipCertifiedEndgame:
    def test_certified_lanes_skip_the_reentry_round(self, workload):
        start, target, _ = workload
        opts = TrackerOptions(end_tolerance=1e-12)
        _, checkpoints = tracked_checkpoints(workload, opts)
        assert all(cp.status is PathStatus.SUCCESS for cp in checkpoints)
        assert all(cp.residual <= opts.end_tolerance for cp in checkpoints)

        resumer = BatchTracker(start, target, context=DOUBLE_DOUBLE,
                               options=opts)
        resumed = resumer.track_batches(resume_from=checkpoints)
        assert resumed.endgame_reentries_skipped == len(checkpoints)
        assert resumed.batched_evaluations == 0  # no re-entry round at all
        assert all(r.success for r in resumed.results)
        # The certified lanes keep their measured residual and counters.
        for cp, result in zip(checkpoints, resumed.results):
            assert result.residual == cp.residual
            assert result.steps_accepted == cp.steps_accepted

    def test_uncertified_residual_still_reenters(self, workload):
        start, target, _ = workload
        opts = TrackerOptions(end_tolerance=1e-12)
        _, checkpoints = tracked_checkpoints(workload, opts)
        # Degrade the stored residuals above the tolerance: the certificates
        # are void, so the endgame must run.
        stale = [dataclasses.replace(cp, residual=1e-6) for cp in checkpoints]
        resumer = BatchTracker(start, target, context=DOUBLE_DOUBLE,
                               options=opts)
        resumed = resumer.track_batches(resume_from=stale)
        assert resumed.endgame_reentries_skipped == 0
        assert resumed.batched_evaluations >= 1
        assert all(r.success for r in resumed.results)

    def test_nan_residual_never_certifies(self, workload):
        start, target, _ = workload
        opts = TrackerOptions(end_tolerance=1e-12)
        _, checkpoints = tracked_checkpoints(workload, opts)
        poisoned = [dataclasses.replace(cp, residual=float("nan"))
                    for cp in checkpoints]
        resumer = BatchTracker(start, target, context=DOUBLE_DOUBLE,
                               options=opts)
        resumed = resumer.track_batches(resume_from=poisoned)
        assert resumed.endgame_reentries_skipped == 0

    def test_mid_path_lanes_unaffected(self, workload):
        start, target, _ = workload
        opts = TrackerOptions(end_tolerance=1e-12)
        _, checkpoints = tracked_checkpoints(workload, opts)
        # Rewind one lane to mid-path: it must track to t = 1 normally while
        # the others skip.
        rewound = list(checkpoints)
        rewound[0] = dataclasses.replace(rewound[0], t=0.5, prev_t=0.4)
        resumer = BatchTracker(start, target, context=DOUBLE_DOUBLE,
                               options=opts)
        resumed = resumer.track_batches(resume_from=rewound)
        assert resumed.endgame_reentries_skipped == len(checkpoints) - 1
        assert all(r.success for r in resumed.results)

    @pytest.mark.parametrize("context", [DOUBLE, DOUBLE_DOUBLE, QUAD_DOUBLE],
                             ids=lambda context: context.name)
    @pytest.mark.parametrize("name", ["cyclic-3", "noon-2"])
    def test_same_arithmetic_resume_of_a_finished_run_is_a_noop(
            self, name, context):
        # noon-2 adds four lanes retired at infinity, which stay retired.
        target = (cyclic_quadratic_system(3) if name == "cyclic-3"
                  else get_scenario(name).build_system())
        tracker = BatchTracker(total_degree_start_system(target), target,
                               context=context)
        finished = tracker.track_batches(list(start_solutions(target)))
        assert all(r.success or r.at_infinity for r in finished.results)

        resumed = tracker.track_batches(resume_from=finished.checkpoints())
        assert resumed.batched_evaluations == 0
        assert resumed.rounds == 0
        assert resumed.endgame_reentries_skipped == finished.paths_converged
        scalar_to_planes = backend_named(context.name).scalar_to_planes
        for before, after in zip(finished.results, resumed.results):
            assert (after.success, after.failure_reason) == \
                (before.success, before.failure_reason)
            assert [[p.hex() for p in scalar_to_planes(x)]
                    for x in after.solution] == \
                [[p.hex() for p in scalar_to_planes(x)]
                 for x in before.solution]
            assert after.residual == before.residual
            assert (after.steps_accepted, after.steps_rejected,
                    after.newton_iterations) == \
                (before.steps_accepted, before.steps_rejected,
                 before.newton_iterations)


class TestPortableCheckpointState:
    """LaneCheckpoint.to_portable / from_portable: the exact plane encoding
    the sharded solve service persists and ships across processes."""

    CONTEXTS = ["d", "dd", "qd"]

    @staticmethod
    def _synthetic_checkpoint(context_name, values, **overrides):
        import math

        from repro.multiprec.numeric import get_context
        from repro.tracking.batch_tracker import LaneCheckpoint

        ctx = get_context(context_name)
        planes = backend_named(context_name).scalar_to_planes
        point = tuple(planes(ctx.from_complex(v)) for v in values)
        prev = tuple(planes(ctx.from_complex(v * 0.875)) for v in values)
        fields = dict(
            context_name=context_name,
            point=point, t=0.9375,
            prev_point=prev, prev_t=0.875, has_prev=True,
            dt=2.0 ** -13, residual=3.5e-17,
            status=PathStatus.TRACKING,
            steps_accepted=17, steps_rejected=3, newton_iterations=41,
        )
        fields.update(overrides)
        return LaneCheckpoint(**fields)

    @pytest.mark.parametrize("context_name", CONTEXTS)
    def test_round_trip_through_json_is_exact(self, context_name):
        import json

        from repro.tracking.batch_tracker import LaneCheckpoint

        cp = self._synthetic_checkpoint(
            context_name,
            [complex(1 / 3, -2 / 7), complex(-0.0, 1e-300)])
        wire = json.loads(json.dumps(cp.to_portable()))
        back = LaneCheckpoint.from_portable(wire)
        assert back.context_name == cp.context_name
        for planes_a, planes_b in zip(back.point + back.prev_point,
                                      cp.point + cp.prev_point):
            # Bit-for-bit: every component plane, signed zeros included.
            assert [p.hex() for p in planes_a] == [p.hex() for p in planes_b]
        assert (back.t, back.prev_t, back.dt) == (cp.t, cp.prev_t, cp.dt)
        assert back.residual == cp.residual
        assert back.status is cp.status
        assert (back.steps_accepted, back.steps_rejected,
                back.newton_iterations) == \
            (cp.steps_accepted, cp.steps_rejected, cp.newton_iterations)

    @pytest.mark.parametrize("context_name", CONTEXTS)
    def test_inf_and_nan_lanes_survive(self, context_name):
        import json
        import math

        from repro.tracking.batch_tracker import LaneCheckpoint

        cp = self._synthetic_checkpoint(
            context_name,
            [complex(float("inf"), float("-inf")),
             complex(float("nan"), 1.0)],
            residual=float("inf"), status=PathStatus.STEP_UNDERFLOW)
        wire = json.loads(json.dumps(cp.to_portable()))
        back = LaneCheckpoint.from_portable(wire)
        first, second = back.point
        assert first[0] == float("inf")
        assert math.isnan(second[0])
        assert back.residual == float("inf")
        assert back.status is PathStatus.STEP_UNDERFLOW
        # The im(-inf) plane of the first coordinate survives too.
        stride = len(first) // 2
        assert first[stride] == float("-inf")

    @pytest.mark.parametrize("context_name", CONTEXTS)
    @pytest.mark.parametrize("growth", [0.5078125, float("nan")],
                             ids=["estimate", "nan"])
    def test_at_infinity_status_and_growth_exponent_survive(
            self, context_name, growth):
        import json

        from repro.tracking.batch_tracker import LaneCheckpoint

        cp = self._synthetic_checkpoint(
            context_name, [complex(360.0, -2.5), complex(8e-6, 0.0)],
            status=PathStatus.AT_INFINITY, growth_exponent=growth)
        wire = json.loads(json.dumps(cp.to_portable()))
        back = LaneCheckpoint.from_portable(wire)
        assert back.status is PathStatus.AT_INFINITY
        assert back.failed
        assert back.failure_reason == "path diverges to infinity"
        assert np.float64(back.growth_exponent).view(np.uint64) == \
            np.float64(growth).view(np.uint64)

    @pytest.mark.parametrize("damage", ["missing-key", "truncated-planes",
                                        "non-numeric"])
    def test_a_state_that_does_not_revive_is_corrupt(self, damage):
        state = self._synthetic_checkpoint(
            "dd", [complex(1 / 3, -2 / 7), complex(0.5, 0.25)]).to_portable()
        if damage == "missing-key":
            del state["residual"]
        elif damage == "truncated-planes":
            state["point"] = [planes[0] for planes in state["point"]]
        else:
            state["prev_point"][1][2] = "0.25?"
        with pytest.raises(CheckpointCorruptError, match="does not revive"):
            LaneCheckpoint.from_portable(state)

    def test_unknown_context_and_bad_plane_counts_are_rejected(self):
        """A state that parses but cannot resume is poison too, and the
        error names the field."""
        state = self._synthetic_checkpoint(
            "dd", [complex(1 / 3, -2 / 7), complex(0.5, 0.25)]).to_portable()
        with pytest.raises(CheckpointCorruptError,
                           match="'context'.*'octuple'"):
            LaneCheckpoint.from_portable(dict(state, context="octuple"))
        three_planes = [planes[:3] for planes in state["point"]]
        with pytest.raises(CheckpointCorruptError,
                           match=r"'point' has \[3, 3\] planes"):
            LaneCheckpoint.from_portable(dict(state, point=three_planes))
        with pytest.raises(CheckpointCorruptError,
                           match=r"'prev_point' has \[4\] planes"):
            LaneCheckpoint.from_portable(
                dict(state, prev_point=state["prev_point"][:1]))

    def test_resumed_tracking_bit_for_bit_vs_in_memory_resume(self, workload):
        """Resuming from portable (JSON round-tripped) checkpoints must
        reproduce the in-memory resume exactly -- the property the whole
        sharded service's crash recovery stands on."""
        import json

        start, target, starts = workload
        opts = TrackerOptions(end_tolerance=5e-17, end_iterations=12)
        first = BatchTracker(start, target, options=opts).track_batches(starts)
        checkpoints = first.checkpoints()

        wire = json.loads(json.dumps([cp.to_portable() for cp in checkpoints]))
        restored = [LaneCheckpoint.from_portable(state) for state in wire]

        resumed_memory = BatchTracker(
            start, target, context=DOUBLE_DOUBLE, options=opts,
        ).track_batches(resume_from=checkpoints)
        resumed_wire = BatchTracker(
            start, target, context=DOUBLE_DOUBLE, options=opts,
        ).track_batches(resume_from=restored)

        scalar_to_planes = backend_named("dd").scalar_to_planes
        for a, b in zip(resumed_memory.results, resumed_wire.results):
            assert a.success == b.success
            assert a.residual == b.residual
            planes_a = [scalar_to_planes(x) for x in a.solution]
            planes_b = [scalar_to_planes(x) for x in b.solution]
            assert [[p.hex() for p in planes]
                    for planes in planes_a] == \
                [[p.hex() for p in planes] for planes in planes_b]
            assert a.steps_accepted == b.steps_accepted
            assert a.newton_iterations == b.newton_iterations
