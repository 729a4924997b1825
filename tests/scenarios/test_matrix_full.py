"""The full differential matrix: every registry scenario, matrix extras
included.

Tier-1 runs one scenario per family (``test_differential_matrix.py``);
this module sweeps the *whole* registry -- the larger matrix sizes push
the same identities through deeper recursion in the plan compiler, more
lanes per batch, and bigger divergent-path fractions (noon-3 drops 6 of
27 paths).  Selected with ``-m scenario_matrix`` (or ``make
test-scenarios``); excluded from tier-1 via the ``slow`` marker.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.eval_plan import _evaluations_identical, _lane_points
from repro.bench.scenarios import SCENARIOS
from repro.multiprec import DOUBLE, DOUBLE_DOUBLE
from repro.multiprec.backend import backend_for_context
from repro.tracking import TrackerOptions, solve_system
from repro.tracking.homotopy import BatchHomotopy
from repro.tracking.start_systems import total_degree_start_system

# Same-directory import: pytest's rootdir-less (no __init__.py) layout puts
# this directory on sys.path during collection.
from test_differential_matrix import (
    END_TOLERANCE,
    assert_same_solution_sets,
    batch_results,
    scalar_results,
)

pytestmark = [pytest.mark.slow, pytest.mark.scenario_matrix]

ALL_IDS = [s.name for s in SCENARIOS]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=ALL_IDS)
def test_tape_identity_dd(scenario):
    target = scenario.build_system()
    start = total_degree_start_system(target)
    backend = backend_for_context(DOUBLE_DOUBLE)
    walk = BatchHomotopy(start, target, context=DOUBLE_DOUBLE,
                         backend=backend, use_plan=False)
    tape = BatchHomotopy(start, target, context=DOUBLE_DOUBLE,
                         backend=backend)
    points = _lane_points(backend, target.dimension, 8, seed=61)
    t = np.random.default_rng(62).uniform(0.1, 0.9, size=8)
    reference = walk.evaluate_batch(points, t)
    assert _evaluations_identical(reference, tape.evaluate_batch(points, t),
                                  target.dimension, DOUBLE_DOUBLE)
    # Again on the slot buffer after a run at another lane count.
    other = _lane_points(backend, target.dimension, 11, seed=63)
    tape.evaluate_batch(other, np.full(11, 0.5))
    assert _evaluations_identical(reference, tape.evaluate_batch(points, t),
                                  target.dimension, DOUBLE_DOUBLE)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=ALL_IDS)
def test_batched_matches_scalar(scenario):
    system = scenario.build_system()
    scalar = scalar_results(system, DOUBLE)
    batched = batch_results(system, DOUBLE)
    assert sum(r.success for r in batched) >= scenario.known_root_count
    assert_same_solution_sets(scalar, batched, DOUBLE)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=ALL_IDS)
def test_solve_finds_every_known_root(scenario):
    report = solve_system(
        scenario.build_system(),
        options=TrackerOptions(end_tolerance=END_TOLERANCE,
                               end_iterations=12))
    assert report.bezout_number == scenario.bezout_number
    assert len(report.solutions) == scenario.known_root_count
    assert all(s.residual <= END_TOLERANCE for s in report.solutions)
