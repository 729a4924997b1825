"""Paths that diverge to infinity: named in the endgame zone, never
escalated.

noon-n has ``2n`` of its ``3^n`` total-degree paths going to infinity.
Inside the endgame zone both trackers estimate each path's growth
exponent from its last two accepted points
(:class:`~repro.tracking.tracker.DivergenceTest`) and retire a path whose
two latest estimates agree on growth as
``PathStatus.AT_INFINITY`` ("path diverges to infinity").  The ladder
keeps such paths among the failures but never resumes them at a wider
rung, and :attr:`SolveReport.paths_at_infinity` counts them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.bench.scenarios import get_scenario
from repro.core import CPUReferenceEvaluator
from repro.multiprec import DOUBLE, DOUBLE_DOUBLE, QUAD_DOUBLE
from repro.polynomials import Monomial, Polynomial, PolynomialSystem
from repro.tracking import (
    BatchTracker,
    DivergenceTest,
    EscalationPolicy,
    Homotopy,
    PathStatus,
    PathTracker,
    TrackerOptions,
    solve_system,
    start_solutions,
    total_degree_start_system,
)
from repro.tracking.tracker import AT_INFINITY_REASON

#: The homotopy's default accessibility constant.
GAMMA = cmath.exp(1j * 0.84719633)


class TestDivergenceTest:
    """The shared rule, on floats and on lane arrays alike."""

    def test_zone_is_the_last_hundredth_short_of_one(self):
        assert DivergenceTest.in_zone(0.995)
        assert not DivergenceTest.in_zone(0.98)
        assert not DivergenceTest.in_zone(1.0)
        assert DivergenceTest.near_end(1.0)
        assert DivergenceTest.in_zone(np.array([0.98, 0.995, 1.0])).tolist() \
            == [False, True, False]

    def test_estimate_reads_the_growth_exponent(self):
        # |x| = (1 - t)^-1/2 at t = 0.98 and t = 0.99.
        estimate = DivergenceTest.estimate(0.01 ** -0.5, 0.02 ** -0.5,
                                           0.99, 0.98)
        assert estimate == pytest.approx(0.5)
        lanes = DivergenceTest.estimate(np.array([0.01 ** -0.5, 1.0]),
                                        np.array([0.02 ** -0.5, 1.0]),
                                        np.full(2, 0.99), np.full(2, 0.98))
        assert lanes == pytest.approx([0.5, 0.0])

    def test_two_agreeing_estimates_above_the_threshold_diverge(self):
        assert DivergenceTest.diverges(0.5, 0.45)
        assert not DivergenceTest.diverges(0.5, math.nan)   # first estimate
        assert not DivergenceTest.diverges(0.5, 0.7)        # disagree
        assert not DivergenceTest.diverges(0.2, 0.2)        # too slow
        assert DivergenceTest.diverges(
            np.array([0.5, 0.5, 0.5, 0.2]),
            np.array([0.45, np.nan, 0.7, 0.2])).tolist() \
            == [True, False, False, False]


def growing_root_system():
    """``(x - r)(x + 1)`` with ``r = -0.02 gamma``: the path to ``r``
    grows by half inside the endgame zone while it settles on ``r``."""
    r = -0.02 * GAMMA
    return PolynomialSystem([Polynomial([
        (1 + 0j, Monomial((0,), (2,))),
        (1 - r, Monomial((0,), (1,))),
        (-r, Monomial((), ())),
    ])], dimension=1), r


class TestFiniteRootGrowingInTheZone:
    """With small steps the path to ``r`` reads growth estimates of 1.3,
    0.84, 0.55 and 0.34 inside the zone: each above the threshold, no two
    in agreement.  A rule on one estimate, or on two without the agreement
    test, would retire it as diverging."""

    OPTIONS = TrackerOptions(max_step=0.002)

    @staticmethod
    def assert_both_roots(results, r):
        assert all(result.success for result in results)
        assert not any(result.at_infinity for result in results)
        roots = sorted((complex(result.solution[0]) for result in results),
                       key=lambda z: z.real)
        assert roots[0] == pytest.approx(-1.0, abs=1e-10)
        assert roots[1] == pytest.approx(r, abs=1e-10)

    def test_batch_tracker_keeps_the_finite_root(self):
        system, r = growing_root_system()
        tracker = BatchTracker(total_degree_start_system(system), system,
                               options=self.OPTIONS)
        self.assert_both_roots(tracker.track_many(list(start_solutions(system))),
                               r)

    def test_scalar_tracker_keeps_the_finite_root(self):
        system, r = growing_root_system()
        homotopy = Homotopy(
            CPUReferenceEvaluator(total_degree_start_system(system)),
            CPUReferenceEvaluator(system))
        tracker = PathTracker(homotopy, options=self.OPTIONS)
        self.assert_both_roots(tracker.track_many(list(start_solutions(system))),
                               r)


@pytest.mark.parametrize("context", [DOUBLE, DOUBLE_DOUBLE, QUAD_DOUBLE],
                         ids=lambda c: c.name)
@pytest.mark.parametrize("name, diverging", [("noon-2", 4), ("noon-3", 6)])
def test_noon_paths_at_infinity_are_named(name, diverging, context):
    scenario = get_scenario(name)
    report = solve_system(scenario.build_system(), context=context)
    assert len(report.solutions) == scenario.known_root_count
    assert report.paths_at_infinity == diverging
    assert [failure.failure_reason for failure in report.failures] == \
        [AT_INFINITY_REASON] * diverging


def test_the_ladder_never_escalates_paths_at_infinity():
    scenario = get_scenario("noon-2")
    report = solve_system(
        scenario.build_system(),
        options=TrackerOptions(end_tolerance=1e-40, end_iterations=12),
        escalation=EscalationPolicy())
    # Two roots certify 1e-40 at d; the other three need qd.  The four
    # paths at infinity stop at d.
    assert report.paths_by_context == {"d": 9, "dd": 3, "qd": 3}
    assert report.converged_by_context == {"d": 2, "dd": 0, "qd": 3}
    assert len(report.solutions) == 5
    assert report.paths_at_infinity == len(report.failures) == 4


class TestResumeInTheZone:
    """A noon-2 run cut by ``max_steps`` while two of its divergent lanes
    hold an in-zone estimate resumes bit for bit: the checkpoint carries
    the estimate the next one is compared with."""

    CUT = 51

    @staticmethod
    def tracked(max_steps=500, **inputs):
        system = get_scenario("noon-2").build_system()
        tracker = BatchTracker(total_degree_start_system(system), system,
                               options=TrackerOptions(max_steps=max_steps))
        if not inputs:
            inputs = {"start_solutions": list(start_solutions(system))}
        return tracker.track_batches(**inputs)

    @staticmethod
    def bits(result):
        planes = [part for z in result.solution
                  for part in (complex(z).real, complex(z).imag)]
        return ([value.hex() for value in planes], float(result.residual).hex(),
                result.steps_accepted, result.steps_rejected,
                result.newton_iterations, result.failure_reason)

    def test_cut_and_resumed_run_ends_as_the_uncut_run(self):
        uncut = self.tracked()
        cut = self.tracked(max_steps=self.CUT)
        diverging = [lane for lane, result in enumerate(uncut.results)
                     if result.at_infinity]
        assert len(diverging) == 4
        checkpoints = cut.checkpoints()
        assert all(checkpoints[lane].status is PathStatus.MAX_STEPS
                   for lane in diverging)
        in_zone = [lane for lane in diverging
                   if not math.isnan(checkpoints[lane].growth_exponent)]
        assert len(in_zone) == 2

        resumed = self.tracked(resume_from=checkpoints)
        assert [self.bits(r) for r in resumed.results] == \
            [self.bits(r) for r in uncut.results]

        # Without the stored estimates those lanes retire a step later.
        forgetful = [replace(cp, growth_exponent=math.nan)
                     for cp in checkpoints]
        again = self.tracked(resume_from=forgetful)
        for lane in in_zone:
            assert again.results[lane].at_infinity
            assert again.results[lane].steps_accepted > \
                uncut.results[lane].steps_accepted
