"""The cross-workload differential matrix over the scenario registry.

Every tier-1 scenario (one per family: cyclic, katsura, noon,
speelpenning-product, random-sparse, irregular-degree) is pushed through
the engine identities the repository's perf work depends on:

* **plan vs walk** -- the compiled evaluation schedule, run as its tape
  on a fresh and on a re-used slot buffer, must reproduce the naive walk
  *bit for bit* on a ``BatchHomotopy`` evaluation (values, t-derivative,
  full Jacobian), at double-double so the hi/lo plane arithmetic is
  exercised too;
* **batched vs scalar tracker** -- same solution sets on every family,
  including divergent-path systems (noon) where both engines must agree
  on *which* paths fail;
* **solve acceptance** -- :func:`repro.tracking.solve_system` finds
  exactly the classically known number of roots with endgame-tight
  residuals, and the same report bit for bit whether its linear solves
  and Newton updates run natively or in Python;
* **irregular fallback** -- irregular scenarios must run through the
  padded (unpacked) GPU layout and match the naive analytic evaluation,
  and the packed encoding must keep refusing to pad.

The full registry (matrix extras included) runs in
``test_matrix_full.py`` under ``-m scenario_matrix``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.eval_plan import _evaluations_identical, _lane_points
from repro.bench.scenarios import get_scenario, tier1_scenarios
from repro.core import CPUReferenceEvaluator, GPUEvaluator, SystemLayout
from repro.errors import ConfigurationError
from repro.multiprec import DOUBLE, DOUBLE_DOUBLE, compiled
from repro.multiprec.backend import backend_for_context
from repro.polynomials import evaluate_naive
from repro.tracking import (
    BatchTracker,
    Homotopy,
    PathTracker,
    TrackerOptions,
    solve_system,
    start_solutions,
    total_degree_start_system,
)
from repro.tracking.homotopy import BatchHomotopy


def scalar_results(system, context):
    """Track every total-degree path with the scalar tracker."""
    start = total_degree_start_system(system)
    homotopy = Homotopy(CPUReferenceEvaluator(start, context=context),
                        CPUReferenceEvaluator(system, context=context),
                        context=context)
    tracker = PathTracker(homotopy, context=context)
    return [tracker.track(s) for s in start_solutions(system)]


def batch_results(system, context):
    start = total_degree_start_system(system)
    tracker = BatchTracker(start, system, context=context)
    return tracker.track_many(list(start_solutions(system)))


def sorted_roots(results, context, digits=8):
    roots = []
    for r in results:
        if not r.success:
            continue
        point = [context.to_complex(x)
                 if not isinstance(x, (int, float, complex)) else complex(x)
                 for x in r.solution]
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

TIER1 = tier1_scenarios()
IRREGULAR = [s for s in TIER1 if not s.regular]
SCENARIO_IDS = [s.name for s in TIER1]

#: The endgame tolerance the solve-acceptance leg certifies.
END_TOLERANCE = 1e-10


@pytest.mark.parametrize("scenario", TIER1, ids=SCENARIO_IDS)
class TestPlanIdentity:
    """The compiled plan tape reproduces the walk path bit for bit."""

    @staticmethod
    def evaluations(scenario, context=DOUBLE_DOUBLE, lanes=6, seed=29,
                    reuse=False):
        target = scenario.build_system()
        start = total_degree_start_system(target)
        backend = backend_for_context(context)
        walk = BatchHomotopy(start, target, context=context, backend=backend,
                             use_plan=False)
        tape = BatchHomotopy(start, target, context=context, backend=backend)
        points = _lane_points(backend, target.dimension, lanes, seed=seed)
        t = np.random.default_rng(seed + 1).uniform(0.1, 0.9, size=lanes)
        if reuse:
            # Run the tape on another lane count first: the measured
            # execution lands in a re-sized buffer that held other rows.
            other = _lane_points(backend, target.dimension, lanes + 3,
                                 seed=seed + 2)
            tape.evaluate_batch(other, np.full(lanes + 3, 0.5))
        return (target.dimension, walk.evaluate_batch(points, t),
                tape.evaluate_batch(points, t))

    def test_plan_matches_walk_bit_for_bit_dd(self, scenario):
        dimension, walk, tape = self.evaluations(scenario)
        assert _evaluations_identical(walk, tape, dimension, DOUBLE_DOUBLE)

    def test_reused_tape_matches_walk_bit_for_bit_dd(self, scenario):
        dimension, walk, tape = self.evaluations(scenario, reuse=True)
        assert _evaluations_identical(walk, tape, dimension, DOUBLE_DOUBLE)


@pytest.mark.parametrize("scenario", TIER1, ids=SCENARIO_IDS)
class TestBatchedVersusScalar:
    """The batched tracker agrees with the scalar tracker on every family."""

    def test_same_solution_sets(self, scenario):
        system = scenario.build_system()
        scalar = scalar_results(system, DOUBLE)
        batched = batch_results(system, DOUBLE)
        # Divergent-path families (noon): both engines must fail the same
        # paths for the same reason, and the survivors must be the known
        # roots.
        assert sum(r.success for r in batched) >= scenario.known_root_count
        assert [r.failure_reason for r in scalar] == \
            [r.failure_reason for r in batched]
        assert_same_solution_sets(scalar, batched, DOUBLE)


@pytest.mark.parametrize("scenario", TIER1, ids=SCENARIO_IDS)
class TestSolveAcceptance:
    """solve_system lands on the classically known root count."""

    def test_root_count_and_residuals(self, scenario):
        report = solve_system(
            scenario.build_system(),
            options=TrackerOptions(end_tolerance=END_TOLERANCE,
                                   end_iterations=12))
        assert report.bezout_number == scenario.bezout_number
        assert report.paths_tracked == scenario.bezout_number
        assert len(report.solutions) == scenario.known_root_count
        assert all(s.residual <= END_TOLERANCE for s in report.solutions)
        if scenario.all_paths_converge:
            assert report.paths_converged == report.paths_tracked

    def test_native_and_python_solves_agree_bit_for_bit(self, scenario,
                                                         monkeypatch):
        if "d" not in compiled.SOLVE_CONTEXTS:
            pytest.skip("the compiled d solve does not run on this host")
        options = TrackerOptions(end_tolerance=END_TOLERANCE,
                                 end_iterations=12)
        native = solve_system(scenario.build_system(), options=options)
        monkeypatch.setattr(compiled, "SOLVE_CONTEXTS", frozenset())
        python = solve_system(scenario.build_system(), options=options)
        assert report_bits(native) == report_bits(python)


def report_bits(report):
    """A report's answers and counts, floats as their exact hex form."""
    def point(values):
        return [(complex(z).real.hex(), complex(z).imag.hex())
                for z in values]

    return (report.paths_tracked, report.paths_converged,
            [(point(s.point), s.residual.hex(), s.multiplicity)
             for s in report.solutions],
            [(point(f.solution), float(f.residual).hex(), f.failure_reason,
              f.steps_accepted, f.steps_rejected, f.newton_iterations)
             for f in report.failures],
            report.paths_by_context, report.converged_by_context)


class TestIrregularFallback:
    """Irregular scenarios pin the unpacked-layout (padded) GPU route."""

    def test_tier1_has_irregular_coverage(self):
        assert IRREGULAR  # the matrix promise: >= 1 irregular scenario

    @pytest.mark.parametrize("scenario", IRREGULAR,
                             ids=[s.name for s in IRREGULAR])
    def test_unpadded_evaluator_refuses_irregular(self, scenario):
        system = scenario.build_system()
        assert system.regularity() is None
        with pytest.raises(ConfigurationError, match="regular"):
            GPUEvaluator(system)

    @pytest.mark.parametrize("scenario", IRREGULAR,
                             ids=[s.name for s in IRREGULAR])
    def test_padded_evaluator_matches_naive(self, scenario):
        system = scenario.build_system()
        rng = np.random.default_rng(41)
        point = [complex(a, b)
                 for a, b in zip(rng.normal(size=system.dimension),
                                 rng.normal(size=system.dimension))]
        device = GPUEvaluator(system, padded=True).evaluate(point)
        naive = evaluate_naive(system, point)
        for got, want in zip(device.values, naive.values):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        for got_row, want_row in zip(device.jacobian, naive.jacobian):
            for got, want in zip(got_row, want_row):
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_packed_encoding_cannot_pad(self):
        system = get_scenario("irregular-3").build_system()
        with pytest.raises(ConfigurationError):
            SystemLayout(system, context=DOUBLE, encoding_format="packed",
                         padded=True)
