"""Differential tests: the batched tracker against the scalar tracker.

Both engines share the homotopy, the step-control policy and the Newton
convergence rules, so on any well-conditioned system they must find the
*same solution sets* -- compared here as sorted root lists to (double-double
where applicable) tolerance.  The fixtures cover the seed start-system
shapes plus a Speelpenning instance (product monomials exercise the
forward/backward gradient sweep of the batched evaluator), and the masked
machinery: chunking, lane retirement, and failure attribution.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CPUReferenceEvaluator
from repro.errors import ConfigurationError
from repro.multiprec import DOUBLE, DOUBLE_DOUBLE, QUAD_DOUBLE
from repro.polynomials import Monomial, Polynomial, PolynomialSystem
from repro.polynomials.generators import speelpenning_system
from repro.tracking import (
    BatchTracker,
    Homotopy,
    PathStatus,
    PathTracker,
    TrackerOptions,
    start_solutions,
    total_degree_start_system,
)
from repro.tracking.batch_tracker import PathBatch


def decoupled_quadratic_system():
    """``f_i = x_i^2 - a_i``: the seed tracker-test fixture."""
    polys = []
    for i, a in enumerate([2.0, 3.0]):
        polys.append(Polynomial([
            (1 + 0j, Monomial((i,), (2,))),
            (-a + 0j, Monomial((), ())),
        ]))
    return PolynomialSystem(polys)


def speelpenning_chain_system():
    """``x0 x1 x2 = 8`` with chain couplings: a Speelpenning product drives
    the Jacobian, so the batched gradient sweep is on the critical path."""
    polys = [
        Polynomial([(1 + 0j, Monomial((0, 1, 2), (1, 1, 1))),
                    (-8 + 0j, Monomial((), ()))]),
        Polynomial([(1 + 0j, Monomial((0,), (1,))), (-1 + 0j, Monomial((1,), (1,)))]),
        Polynomial([(1 + 0j, Monomial((1,), (1,))), (-1 + 0j, Monomial((2,), (1,)))]),
    ]
    return PolynomialSystem(polys, dimension=3)


def scalar_results(system, context, options=None, starts=None):
    start = total_degree_start_system(system)
    homotopy = Homotopy(CPUReferenceEvaluator(start, context=context),
                        CPUReferenceEvaluator(system, context=context),
                        context=context)
    tracker = PathTracker(homotopy, context=context, options=options)
    return [tracker.track(s) for s in (starts or list(start_solutions(system)))]


def batch_results(system, context, options=None, batch_size=None, starts=None):
    start = total_degree_start_system(system)
    tracker = BatchTracker(start, system, context=context, options=options,
                           batch_size=batch_size)
    return tracker.track_many(starts or list(start_solutions(system)))


def sorted_roots(results, context, digits=8):
    roots = []
    for r in results:
        if not r.success:
            continue
        point = [context.to_complex(x) if not isinstance(x, (int, float, complex))
                 else complex(x) for x in r.solution]
        roots.append(tuple((round(z.real, digits), round(z.imag, digits))
                           for z in point))
    return sorted(roots)


def assert_same_solution_sets(scalar, batched, context, tolerance=1e-8):
    assert sum(r.success for r in scalar) == sum(r.success for r in batched)
    left = sorted_roots(scalar, context)
    right = sorted_roots(batched, context)
    assert len(left) == len(right)
    for a, b in zip(left, right):
        for (ar, ai), (br, bi) in zip(a, b):
            assert abs(ar - br) <= tolerance
            assert abs(ai - bi) <= tolerance


class TestDifferentialAgainstScalarTracker:
    @pytest.mark.parametrize("context", [DOUBLE, DOUBLE_DOUBLE],
                             ids=lambda c: c.name)
    def test_decoupled_quadratics(self, context):
        scalar = scalar_results(decoupled_quadratic_system(), context)
        batched = batch_results(decoupled_quadratic_system(), context)
        assert all(r.success for r in batched)
        assert_same_solution_sets(scalar, batched, context)

    def test_speelpenning_chain(self):
        system = speelpenning_chain_system()
        scalar = scalar_results(system, DOUBLE)
        batched = batch_results(system, DOUBLE)
        assert all(r.success for r in batched)
        assert_same_solution_sets(scalar, batched, DOUBLE)

    def test_speelpenning_chain_dd_matches_double_roots(self):
        system = speelpenning_chain_system()
        batched_dd = batch_results(system, DOUBLE_DOUBLE)
        scalar_d = scalar_results(system, DOUBLE)
        assert all(r.success for r in batched_dd)
        assert_same_solution_sets(scalar_d, batched_dd, DOUBLE_DOUBLE)

    def test_classic_speelpenning_example_system(self):
        # Every polynomial is the full product x0 x1 x2 minus a constant;
        # only the first path bundle converges to actual solutions of the
        # (inconsistent-looking but square) system where constants differ,
        # so compare engine against engine, not against a closed form.
        system = speelpenning_system(2)
        scalar = scalar_results(system, DOUBLE)
        batched = batch_results(system, DOUBLE)
        assert_same_solution_sets(scalar, batched, DOUBLE)

    def test_tangent_predictor_agrees_too(self):
        options = TrackerOptions(predictor="tangent")
        system = decoupled_quadratic_system()
        scalar = scalar_results(system, DOUBLE, options=options)
        batched = batch_results(system, DOUBLE, options=options)
        assert_same_solution_sets(scalar, batched, DOUBLE)

    def test_chunked_batches_agree_with_single_batch(self):
        system = speelpenning_chain_system()
        whole = batch_results(system, DOUBLE)
        chunked = batch_results(system, DOUBLE, batch_size=2)
        assert_same_solution_sets(whole, chunked, DOUBLE)


class TestLaneRetirement:
    def test_bad_start_lane_retires_without_stalling_batch(self):
        system = speelpenning_chain_system()
        good = list(start_solutions(system))
        starts = [[0j, 0j, 0j]] + good
        results = batch_results(system, DOUBLE, starts=starts)
        assert not results[0].success
        assert results[0].failure_reason == "start point does not satisfy the start system"
        assert all(r.success for r in results[1:])

    def test_max_steps_reported(self):
        system = decoupled_quadratic_system()
        options = TrackerOptions(max_steps=2, initial_step=1e-3, max_step=1e-3)
        results = batch_results(system, DOUBLE, options=options)
        assert not any(r.success for r in results)
        assert all(r.failure_reason == "maximum number of steps exceeded"
                   for r in results)

    @pytest.mark.parametrize("predictor", ["secant", "tangent"])
    def test_evaluation_log_counts_shrink_as_lanes_retire(self, predictor):
        system = decoupled_quadratic_system()
        start = total_degree_start_system(system)
        tracker = BatchTracker(start, system, context=DOUBLE,
                               options=TrackerOptions(predictor=predictor))
        # The dead start lane fails its start correction, the one
        # evaluation of all five lanes; no predictor or corrector
        # evaluation covers it again.
        starts = [[0j, 0j]] + list(start_solutions(system))
        outcome = tracker.track_batches(starts)
        assert outcome.batched_evaluations == len(outcome.evaluation_log)
        assert outcome.evaluation_log[0] == 5
        assert max(outcome.evaluation_log[1:]) <= 4
        assert min(outcome.evaluation_log) >= 1
        # the per-lane total is what a scalar tracker would have paid
        assert outcome.lane_evaluations >= outcome.batched_evaluations

    def test_status_counts(self):
        system = decoupled_quadratic_system()
        start = total_degree_start_system(system)
        tracker = BatchTracker(start, system, context=DOUBLE)
        outcome = tracker.track_batches(list(start_solutions(system)))
        assert outcome.status_counts() == {"success": 4}

    def test_status_counts_aggregate_across_chunks(self):
        system = decoupled_quadratic_system()
        start = total_degree_start_system(system)
        good = list(start_solutions(system))
        starts = [[0j, 0j]] + good  # chunk 1 holds the failing lane
        tracker = BatchTracker(start, system, context=DOUBLE, batch_size=2)
        outcome = tracker.track_batches(starts)
        assert len(outcome.batches) == 3
        counts = outcome.status_counts()
        assert counts.get("start_failed") == 1
        assert counts.get("success") == 4


def lane_bits(batch, lane):
    """A lane's exported state, every float as its bit pattern."""
    state = batch.checkpoints()[lane].to_portable()
    floats = [*np.ravel(state.pop("point")), *np.ravel(state.pop("prev_point")),
              *(state.pop(key) for key in ("t", "prev_t", "dt", "residual",
                                           "growth_exponent"))]
    return np.array(floats, dtype=np.float64).view(np.uint64).tolist(), state


@pytest.mark.parametrize("context", [DOUBLE, DOUBLE_DOUBLE],
                         ids=lambda c: c.name)
class TestRetiredLanesStayPut:
    """The rounds and the endgame run on the whole batch under its lane
    masks.  A lane retired early keeps its state bit for bit through every
    later round and the endgame: after the full run it equals the same
    run's lane cut off by ``max_steps`` right after the lane retired."""

    @staticmethod
    def tracked(context, max_steps, **inputs):
        system = decoupled_quadratic_system()
        tracker = BatchTracker(total_degree_start_system(system), system,
                               context=context,
                               options=TrackerOptions(max_steps=max_steps))
        (batch,) = tracker.track_batches(**inputs).batches
        return batch

    def test_start_failed_lane(self, context):
        starts = [[0j, 0j]] + list(start_solutions(decoupled_quadratic_system()))
        full = self.tracked(context, 500, start_solutions=starts)
        cut = self.tracked(context, 0, start_solutions=starts)
        assert full.status[0] == cut.status[0] == int(PathStatus.START_FAILED)
        assert (full.status[1:] == int(PathStatus.SUCCESS)).all()
        assert full.rounds > 1
        assert lane_bits(full, 0) == lane_bits(cut, 0)

    def test_start_failed_and_step_underflow_lanes_of_a_resumed_batch(
            self, context):
        from dataclasses import replace

        from repro.multiprec.backend import backend_for_context

        planes = backend_for_context(context).scalar_to_planes
        healthy = self.tracked(context, 3, start_solutions=list(
            start_solutions(decoupled_quadratic_system()))).checkpoints()
        zero = (planes(0j), planes(0j))
        dead = replace(healthy[0], point=zero, prev_point=zero,
                       t=0.0, prev_t=0.0, has_prev=False,
                       status=PathStatus.START_FAILED)
        # Far off its path and one step shrink from the 1e-6 minimum.
        stuck = replace(healthy[1], point=(planes(40 + 3j), planes(-25 + 1j)),
                        dt=1.5e-6)
        lanes = [dead, stuck, *healthy]
        full = self.tracked(context, 500, resume_from=lanes)
        assert full.status[:2].tolist() == [int(PathStatus.START_FAILED),
                                            int(PathStatus.STEP_UNDERFLOW)]
        assert (full.status[2:] == int(PathStatus.SUCCESS)).all()
        assert full.rounds > 1
        for lane, retired_after in ((0, 0), (1, 1)):
            cut = self.tracked(context, retired_after, resume_from=lanes)
            assert cut.status[lane] == full.status[lane]
            assert lane_bits(full, lane) == lane_bits(cut, lane)


@pytest.mark.parametrize("name", ["cyclic-4", "katsura-3", "noon-2"])
def test_the_round_returns_the_lanes_still_live(name, monkeypatch):
    # _track_one_batch carries _advance's returned mask into the next round
    # instead of deriving PathBatch.active again: after every round the two
    # must agree, through retirements at t = 1, at infinity (noon-2) and by
    # step underflow alike.
    from repro.bench.scenarios import get_scenario

    system = get_scenario(name).build_system()
    tracker = BatchTracker(total_degree_start_system(system), system)
    advance, left = tracker._advance, []

    def checked(batch, live):
        assert np.array_equal(live, batch.active)
        after = advance(batch, live)
        assert after.dtype == np.bool_
        assert np.array_equal(after, batch.active)
        left.append(int(np.count_nonzero(live & ~after)))
        return after

    monkeypatch.setattr(tracker, "_advance", checked)
    (batch,) = tracker.track_batches(list(start_solutions(system))).batches
    # One entry per round; every lane left the live mask in some round.
    assert len(left) == batch.rounds > 1
    assert sum(left) == batch.n_paths
    assert not batch.active.any()


class TestPathBatchStructure:
    def test_retire_masks_lanes(self):
        from repro.multiprec.backend import COMPLEX128_BACKEND

        batch = PathBatch.from_start_solutions(
            COMPLEX128_BACKEND, [[1 + 0j], [2 + 0j]], initial_step=0.1)
        batch.retire(np.array([True, False]), PathStatus.STEP_UNDERFLOW)
        assert batch.active.tolist() == [False, True]
        assert batch.status[0] == int(PathStatus.STEP_UNDERFLOW)

    def test_unregistered_context_is_rejected_clearly(self):
        from dataclasses import replace

        from repro.multiprec import DOUBLE

        system = decoupled_quadratic_system()
        start = total_degree_start_system(system)
        octuple = replace(DOUBLE, name="od", description="octuple double")
        with pytest.raises(ConfigurationError):
            BatchTracker(start, system, context=octuple)


def plane_hex(backend, array, lane):
    """Lane ``lane`` of an ``(n, B)`` batch array, every plane as hex."""
    return [[float(v).hex() for v in np.ravel(plane[:, lane].view(np.float64))]
            for plane in backend.component_planes(array)]


@pytest.mark.parametrize("context", [DOUBLE, DOUBLE_DOUBLE, QUAD_DOUBLE],
                         ids=lambda c: c.name)
class TestLaneScalarCodec:
    """Each backend packs scalars into planes and exports lanes as planes:
    components are taken as they are (no renormalisation, which would
    turn an infinite lane into NaN) and narrower scalars widen exactly, so
    a lane exported and packed again is bit for bit itself."""

    def test_infinite_start_lane_reports_its_start_point(self, context):
        from repro.bench.batch_tracking import cyclic_quadratic_system

        system = cyclic_quadratic_system(2)
        tracker = BatchTracker(total_degree_start_system(system), system,
                               context=context)
        result = tracker.track_batches([[np.inf, 1], [1, 1]])
        lane = result.checkpoints()[0]
        assert lane.status is PathStatus.START_FAILED
        assert [complex(x) for x in result.results[0].solution] \
            == [complex(np.inf, 0.0), 1 + 0j]

    def test_exported_lane_packs_back_bit_for_bit(self, context):
        from repro.multiprec.backend import backend_for_context

        backend = backend_for_context(context)
        points = backend.from_points([[np.inf, 1], [1, 1]])
        again = backend.from_lane_planes(backend.lane_planes(points)[:1])
        assert plane_hex(backend, again, 0) == plane_hex(backend, points, 0)

    def test_ragged_start_solutions_are_refused(self, context):
        system = decoupled_quadratic_system()
        tracker = BatchTracker(total_degree_start_system(system), system,
                               context=context)
        with pytest.raises(ConfigurationError, match="same dimension"):
            tracker.track_batches([[1, 1], [1]])


def test_double_double_scalar_widens_exactly_into_quad_double_planes():
    from repro.multiprec import ComplexDD, DoubleDouble
    from repro.multiprec.backend import COMPLEX_QD_BACKEND

    x = ComplexDD(DoubleDouble(1.0, 1e-20), DoubleDouble(2.0, -3e-21))
    want = [1.0, 1e-20, 0.0, 0.0, 2.0, -3e-21, 0.0, 0.0]
    assert list(COMPLEX_QD_BACKEND.scalar_to_planes(x)) == want
    packed = COMPLEX_QD_BACKEND.from_points([[x]])
    assert [float(plane[0, 0]) for plane
            in COMPLEX_QD_BACKEND.component_planes(packed)] == want


def float_planes(backend, array):
    """The float planes of a batch array in storage order."""
    planes = backend.component_planes(array)
    if backend.name == "d":
        (z,) = planes
        return z.real, z.imag
    return planes


def plane_bits(backend, array):
    return [np.ascontiguousarray(p).view(np.uint64).tolist()
            for p in float_planes(backend, array)]


@pytest.mark.parametrize("source, target", [
    (DOUBLE, DOUBLE), (DOUBLE_DOUBLE, DOUBLE_DOUBLE),
    (QUAD_DOUBLE, QUAD_DOUBLE), (DOUBLE, DOUBLE_DOUBLE),
    (DOUBLE_DOUBLE, QUAD_DOUBLE), (DOUBLE, QUAD_DOUBLE)],
    ids=lambda c: c.name)
def test_checkpoints_leave_and_enter_a_batch_as_planes(monkeypatch, source,
                                                       target):
    """A lane leaves a batch as its float planes and the next batch packs
    them as they are: no scalar is encoded or decoded on the way, and the
    repacked arrays are ``convert_batch`` of the exported ones bit for bit,
    inf, NaN and -0.0 lanes included."""
    from repro.bench.batch_tracking import cyclic_quadratic_system
    from repro.multiprec.backend import (Complex128Backend, PlaneBackend,
                                         backend_for_context, convert_batch,
                                         masked_lane_errstate)
    from repro.multiprec.planearray import ComplexPlaneArray

    system = cyclic_quadratic_system(2)
    tracker = BatchTracker(total_degree_start_system(system), system,
                           context=source,
                           options=TrackerOptions(max_steps=3))
    starts = ([[np.inf, 1], [complex(-0.0, -0.0), complex(np.nan, 2.0)]]
              + list(start_solutions(system)))
    (batch,) = tracker.track_batches(starts).batches
    src, dst = backend_for_context(source), backend_for_context(target)

    def refuse(*args):
        raise AssertionError("a lane moved through the scalar codec")

    for owner in (Complex128Backend, PlaneBackend, ComplexPlaneArray):
        for name in ("scalar_to_planes", "scalar_from_planes"):
            monkeypatch.setattr(owner, name, refuse)
    checkpoints = batch.checkpoints()
    planes = float_planes(src, batch.points)
    for lane, cp in enumerate(checkpoints):
        assert [[float(v).hex() for v in coordinate] for coordinate
                in cp.point] == \
            [[float(p[k, lane]).hex() for p in planes]
             for k in range(len(cp.point))]
    with masked_lane_errstate():  # widening an inf lane meets inf - inf
        rebuilt = PathBatch.from_checkpoints(dst, checkpoints,
                                             initial_step=0.1)
        points = convert_batch(batch.points, src, dst)
        prev_points = convert_batch(batch.prev_points, src, dst)
    assert plane_bits(dst, rebuilt.points) == plane_bits(dst, points)
    assert plane_bits(dst, rebuilt.prev_points) == \
        plane_bits(dst, prev_points)


class TestQuadDoubleBatchTracking:
    """The qd backend drives the batch stack end to end (seed fixtures)."""

    def test_decoupled_quadratics_match_scalar_qd_tracker(self):
        system = decoupled_quadratic_system()
        scalar = scalar_results(system, QUAD_DOUBLE)
        batched = batch_results(system, QUAD_DOUBLE)
        assert all(r.success for r in batched)
        # Both engines run the same operation sequences per lane; endpoints
        # agree far below double precision (working tolerance).
        assert_same_solution_sets(scalar, batched, QUAD_DOUBLE, tolerance=1e-14)

    def test_qd_endpoints_sharper_than_double(self):
        options = TrackerOptions(end_tolerance=1e-30, end_iterations=20)
        batched = batch_results(decoupled_quadratic_system(), QUAD_DOUBLE,
                                options=options)
        assert all(r.success for r in batched)
        assert max(r.residual for r in batched) < 1e-30

    def test_chunked_qd_batches_agree(self):
        system = decoupled_quadratic_system()
        whole = batch_results(system, QUAD_DOUBLE)
        chunked = batch_results(system, QUAD_DOUBLE, batch_size=2)
        assert_same_solution_sets(whole, chunked, QUAD_DOUBLE)

    @pytest.mark.slow
    def test_speelpenning_chain_qd(self):
        system = speelpenning_chain_system()
        scalar = scalar_results(system, QUAD_DOUBLE)
        batched = batch_results(system, QUAD_DOUBLE)
        assert_same_solution_sets(scalar, batched, QUAD_DOUBLE, tolerance=1e-14)


class TestCheckpoints:
    """Per-lane checkpoint export and warm-restarted resume."""

    @staticmethod
    def tracked(system, context, options, starts=None, resume_from=None):
        start = total_degree_start_system(system)
        tracker = BatchTracker(start, system, context=context, options=options)
        if resume_from is not None:
            return tracker.track_batches(resume_from=resume_from)
        return tracker.track_batches(starts or list(start_solutions(system)))

    def test_checkpoints_align_with_results_and_capture_state(self):
        from repro.tracking import LaneCheckpoint

        system = decoupled_quadratic_system()
        outcome = self.tracked(system, DOUBLE, None)
        cps = outcome.checkpoints()
        assert len(cps) == len(outcome.results) == 4
        for cp, result in zip(cps, outcome.results):
            assert isinstance(cp, LaneCheckpoint)
            assert cp.context_name == "d"
            assert cp.status is PathStatus.SUCCESS and not cp.failed
            assert cp.failure_reason is None
            assert cp.t == 1.0 and cp.resumes_mid_path
            assert len(cp.point) == 2
            assert cp.steps_accepted == result.steps_accepted
            assert cp.newton_iterations == result.newton_iterations

    @pytest.mark.parametrize("context", [DOUBLE, DOUBLE_DOUBLE, QUAD_DOUBLE],
                             ids=lambda c: c.name)
    def test_results_are_views_of_the_checkpoints(self, context):
        """``results[i]`` is ``checkpoints()[i].result()`` field for field,
        for every status the tracker produces: on noon-2 with a lane that
        cannot start, cut by ``max_steps``, at an end tolerance no
        arithmetic reaches, and with a corrector tolerance no step
        meets."""
        from repro.bench.scenarios import get_scenario
        from repro.multiprec.backend import backend_for_context

        scalar_to_planes = backend_for_context(context).scalar_to_planes

        def fields(result):
            return ([[p.hex() for p in scalar_to_planes(x)]
                     for x in result.solution],
                    float(result.residual).hex(), result.success,
                    result.steps_accepted, result.steps_rejected,
                    result.newton_iterations, result.failure_reason,
                    result.path)

        system = get_scenario("noon-2").build_system()
        starts = [[0j, 0j]] + list(start_solutions(system))
        seen = set()
        for options in (TrackerOptions(), TrackerOptions(max_steps=5),
                        TrackerOptions(end_tolerance=1e-80,
                                       end_iterations=2),
                        TrackerOptions(corrector_tolerance=1e-300)):
            outcome = self.tracked(system, context, options, starts=starts)
            checkpoints = outcome.checkpoints()
            assert [fields(r) for r in outcome.results] == \
                [fields(cp.result()) for cp in checkpoints]
            seen.update(cp.status for cp in checkpoints)
        assert seen == set(PathStatus) - {PathStatus.TRACKING}

    def test_failure_cause_recorded(self):
        system = decoupled_quadratic_system()
        options = TrackerOptions(max_steps=2, initial_step=1e-3, max_step=1e-3)
        cps = self.tracked(system, DOUBLE, options).checkpoints()
        assert all(cp.status is PathStatus.MAX_STEPS and cp.failed for cp in cps)
        assert all(cp.failure_reason == "maximum number of steps exceeded"
                   for cp in cps)
        assert all(0.0 < cp.t < 1.0 for cp in cps)

    def test_same_rung_resume_is_bit_for_bit(self):
        """Interrupt a run by max_steps, resume from the checkpoints at the
        same rung: endpoints AND work counters must equal the cold run's
        exactly -- the checkpoint is the complete lane state."""
        from repro.bench.batch_tracking import cyclic_quadratic_system

        system = cyclic_quadratic_system(4)
        opts = TrackerOptions(end_tolerance=5e-17, end_iterations=12)
        cold = self.tracked(system, DOUBLE, opts)

        short = TrackerOptions(end_tolerance=5e-17, end_iterations=12,
                               max_steps=4)
        interrupted = self.tracked(system, DOUBLE, short)
        assert interrupted.status_counts() == {"max_steps": 16}

        resumed = self.tracked(system, DOUBLE, opts,
                               resume_from=interrupted.checkpoints())
        assert resumed.status_counts() == cold.status_counts()
        for a, b in zip(cold.results, resumed.results):
            assert [complex(x) for x in a.solution] == \
                [complex(x) for x in b.solution]
            assert a.residual == b.residual
            assert (a.steps_accepted, a.steps_rejected, a.newton_iterations) \
                == (b.steps_accepted, b.steps_rejected, b.newton_iterations)

    def test_cross_rung_resume_replays_only_the_endgame(self):
        """d failures on the escalation acceptance workload sit at t = 1;
        resuming them at dd converges every lane at a tiny fraction of the
        cold re-track's evaluations."""
        from repro.bench.batch_tracking import cyclic_quadratic_system

        system = cyclic_quadratic_system(4)
        opts = TrackerOptions(end_tolerance=5e-17, end_iterations=12)
        at_d = self.tracked(system, DOUBLE, opts)
        failed = [(s, cp) for s, cp, r in zip(
            list(start_solutions(system)), at_d.checkpoints(), at_d.results)
            if not r.success]
        assert failed
        checkpoints = [cp for _, cp in failed]
        assert all(cp.t == 1.0 for cp in checkpoints)

        warm = self.tracked(system, DOUBLE_DOUBLE, opts,
                            resume_from=checkpoints)
        assert all(r.success for r in warm.results)
        cold = self.tracked(system, DOUBLE_DOUBLE, opts,
                            starts=[s for s, _ in failed])
        assert all(r.success for r in cold.results)
        assert warm.lane_evaluations < cold.lane_evaluations / 10
        # Warm and cold land on the same roots (dd tolerance).
        assert_same_solution_sets(cold.results, warm.results, DOUBLE_DOUBLE,
                                  tolerance=1e-10)

    def test_start_failed_checkpoint_is_recorrected_on_resume(self):
        """A START_FAILED lane has no accepted point; resuming it re-runs
        the start correction, so a checkpoint whose raw start is valid
        tracks to success."""
        from dataclasses import replace

        from repro.multiprec.backend import COMPLEX128_BACKEND

        system = decoupled_quadratic_system()
        outcome = self.tracked(system, DOUBLE, None)
        good = outcome.checkpoints()[0]
        # Pretend the start correction had failed with the raw start point.
        start_point = tuple(COMPLEX128_BACKEND.scalar_to_planes(x)
                            for x in list(start_solutions(system))[0])
        doctored = replace(good, point=start_point, prev_point=start_point,
                           t=0.0, prev_t=0.0, has_prev=False,
                           status=PathStatus.START_FAILED,
                           steps_accepted=0, steps_rejected=0,
                           newton_iterations=0)
        resumed = self.tracked(system, DOUBLE, None, resume_from=[doctored])
        assert resumed.results[0].success

    def test_step_underflow_resume_resets_dt(self):
        from dataclasses import replace

        from repro.multiprec.backend import COMPLEX128_BACKEND

        system = decoupled_quadratic_system()
        cp = self.tracked(system, DOUBLE, None).checkpoints()[0]
        underflowed = replace(cp, t=0.5, dt=1e-9,
                              status=PathStatus.STEP_UNDERFLOW)
        tracking = replace(cp, t=0.5, dt=1e-9, status=PathStatus.TRACKING)
        batch = PathBatch.from_checkpoints(
            COMPLEX128_BACKEND, [underflowed, tracking], initial_step=0.1)
        assert batch.dt[0] == 0.1      # underflow: fresh step budget
        assert batch.dt[1] == 1e-9     # mid-path interrupt: exact continuation
        assert batch.active.tolist() == [True, True]
        assert batch.status.tolist() == [int(PathStatus.TRACKING)] * 2

    def test_finished_lanes_resume_straight_to_endgame(self):
        from repro.multiprec.backend import COMPLEX128_BACKEND

        system = decoupled_quadratic_system()
        cps = self.tracked(system, DOUBLE, None).checkpoints()
        batch = PathBatch.from_checkpoints(COMPLEX128_BACKEND, cps,
                                           initial_step=0.1)
        # t = 1 lanes skip the predictor-corrector loop entirely.
        assert not batch.active.any()

    def test_checkpoint_round_trip_preserves_points_bitwise_dd(self):
        from repro.multiprec.backend import COMPLEX_DD_BACKEND

        system = decoupled_quadratic_system()
        outcome = self.tracked(system, DOUBLE_DOUBLE, None)
        batch = outcome.batches[0]
        rebuilt = PathBatch.from_checkpoints(COMPLEX_DD_BACKEND,
                                             batch.checkpoints(),
                                             initial_step=0.1)
        assert np.array_equal(rebuilt.points.real.hi, batch.points.real.hi)
        assert np.array_equal(rebuilt.points.real.lo, batch.points.real.lo)
        assert np.array_equal(rebuilt.points.imag.hi, batch.points.imag.hi)
        assert np.array_equal(rebuilt.points.imag.lo, batch.points.imag.lo)

    def test_widening_d_checkpoints_into_dd_batch_is_exact(self):
        from repro.multiprec.backend import COMPLEX_DD_BACKEND

        system = decoupled_quadratic_system()
        outcome = self.tracked(system, DOUBLE, None)
        batch = outcome.batches[0]
        widened = PathBatch.from_checkpoints(COMPLEX_DD_BACKEND,
                                             batch.checkpoints(),
                                             initial_step=0.1)
        assert np.array_equal(widened.points.real.hi, batch.points.real)
        assert not widened.points.real.lo.any()

    def test_resume_refuses_checkpoints_of_another_dimension(self):
        """Finished checkpoints of a 3-variable system would otherwise retire
        as certified successes on a 2-variable tracker, unevaluated."""
        from repro.bench.batch_tracking import cyclic_quadratic_system

        finished = self.tracked(cyclic_quadratic_system(3), DOUBLE,
                                None).checkpoints()
        assert len(finished) == 8
        system = cyclic_quadratic_system(2)
        tracker = BatchTracker(total_degree_start_system(system), system,
                               context=DOUBLE)
        with pytest.raises(ConfigurationError,
                           match="dimension 3 on a system of dimension 2"):
            tracker.track_batches(resume_from=finished)

    @pytest.mark.parametrize("field, value", [
        ("t", float("nan")), ("t", -0.25), ("dt", float("nan")), ("dt", 0.0)])
    def test_resume_refuses_a_lane_without_a_valid_next_parameter(
            self, field, value):
        """A NaN t would leave its lane TRACKING with no failure reason, and
        a NaN dt would fail the range check of every round the rest of the
        batch runs."""
        from dataclasses import replace

        system = decoupled_quadratic_system()
        cps = self.tracked(system, DOUBLE,
                           TrackerOptions(max_steps=2)).checkpoints()
        cps[0] = replace(cps[0], **{field: value})
        with pytest.raises(ConfigurationError, match="checkpoint 0 cannot resume"):
            self.tracked(system, DOUBLE, None, resume_from=cps)

    @pytest.mark.parametrize("damage, field", [
        ("unknown-context", "'context'"), ("dropped-plane", "'point'"),
        ("short-prev-point", "'prev_point'")])
    def test_resume_refuses_a_checkpoint_whose_planes_do_not_fit(
            self, damage, field):
        from dataclasses import replace

        from repro.multiprec.backend import COMPLEX128_BACKEND

        system = decoupled_quadratic_system()
        cps = self.tracked(system, DOUBLE,
                           TrackerOptions(max_steps=2)).checkpoints()
        cp = cps[1]
        if damage == "unknown-context":
            cps[1] = replace(cp, context_name="od")
        elif damage == "dropped-plane":
            cps[1] = replace(cp, point=(cp.point[0][:1],) + cp.point[1:])
        else:
            cps[1] = replace(cp, prev_point=cp.prev_point[:1])
        with pytest.raises(ConfigurationError,
                           match=f"checkpoint 1 cannot resume: {field}"):
            PathBatch.from_checkpoints(COMPLEX128_BACKEND, cps,
                                       initial_step=0.1)

    def test_both_or_neither_inputs_rejected(self):
        system = decoupled_quadratic_system()
        start = total_degree_start_system(system)
        tracker = BatchTracker(start, system, context=DOUBLE)
        starts = list(start_solutions(system))
        with pytest.raises(ConfigurationError):
            tracker.track_batches()
        cps = self.tracked(system, DOUBLE, None).checkpoints()
        with pytest.raises(ConfigurationError):
            tracker.track_batches(starts, resume_from=cps)


@pytest.mark.slow
class TestDifferentialSlow:
    """Larger differential sweeps, excluded from the tier-1 run."""

    def test_cyclic_quadratic_dimension_4_dd(self):
        from repro.bench.batch_tracking import cyclic_quadratic_system

        system = cyclic_quadratic_system(4)
        scalar = scalar_results(system, DOUBLE_DOUBLE)
        batched = batch_results(system, DOUBLE_DOUBLE, batch_size=8)
        assert_same_solution_sets(scalar, batched, DOUBLE_DOUBLE)

    def test_same_rung_resume_is_bit_for_bit_dd(self):
        """The dd plane arithmetic continues bit-for-bit across a
        checkpoint boundary too."""
        system = speelpenning_chain_system()
        start = total_degree_start_system(system)
        starts = list(start_solutions(system))
        cold = BatchTracker(start, system,
                            context=DOUBLE_DOUBLE).track_batches(starts)
        short = TrackerOptions(max_steps=3)
        interrupted = BatchTracker(start, system, context=DOUBLE_DOUBLE,
                                   options=short).track_batches(starts)
        resumed = BatchTracker(start, system, context=DOUBLE_DOUBLE) \
            .track_batches(resume_from=interrupted.checkpoints())
        for a, b in zip(cold.results, resumed.results):
            assert a.success == b.success
            for x, y in zip(a.solution, b.solution):
                assert x.real.hi == y.real.hi and x.real.lo == y.real.lo
                assert x.imag.hi == y.imag.hi and x.imag.lo == y.imag.lo
