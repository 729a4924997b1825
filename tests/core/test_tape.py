"""The compiled plan tape: native calls, the Python tape loop and the walk.

A plan lowered to an instruction tape runs in one native call per
evaluation (``tape_d`` / ``tape_dd`` / ``tape_qd``), or, where no native
tape applies, through the backend's ``*_into`` methods in a Python loop.
Both routes must give the same bits under the NaN contract of
``docs/compiled_kernels.md`` (NaN positions match, a NaN's sign may not),
agree with the walk-the-terms reference, and keep the slot buffer's
lifecycle: rows valid until the next execution, exactly one re-size per
lane-count change, an aborted execution leaving the plan reusable, and
instances sharing compile-cache artifacts safe across threads.
"""

from __future__ import annotations

import sys
import threading
import warnings

import numpy as np
import pytest

from repro.bench.scenarios import SCENARIOS, tier1_scenarios
from repro.core.batch import BatchSystemEvaluation, VectorisedBatchEvaluator
from repro.core import tape as tape_module
from repro.core.evalplan import EvaluationPlan, HomotopyPlan
from repro.multiprec import compiled
from repro.multiprec.backend import backend_for_context, masked_lane_errstate
from repro.multiprec.numeric import DOUBLE, DOUBLE_DOUBLE, QUAD_DOUBLE
from repro.polynomials.monomial import Monomial
from repro.polynomials.polynomial import Polynomial
from repro.polynomials.system import PolynomialSystem
from repro.tracking import EscalationPolicy, TrackerOptions, solve_system
from repro.tracking.batch_linsolve import batched_solve
from repro.tracking.homotopy import BatchHomotopy, BatchHomotopyEvaluation
from repro.tracking.start_systems import (DiagonalStart, TotalDegreeStart,
                                          total_degree_start_system)

CONTEXTS = (DOUBLE, DOUBLE_DOUBLE, QUAD_DOUBLE)

requires_tape = pytest.mark.skipif(
    compiled.KERNELS is None or compiled.TAPE_CONTEXTS != {"d", "dd", "qd"},
    reason="the native plan tapes are not loaded on this host")

#: Adversarial lane values: inf, NaN, signed zeros, subnormals and
#: components beyond the 2^996 split threshold.
ADVERSARIAL = (complex(np.inf, 1.0), complex(np.nan, 0.5),
               complex(-0.0, 0.0), complex(5e-324, -1e300),
               complex(2.0 ** 997, -3.0), complex(0.0, -np.inf))


def planes_of(array, context):
    if context.name == "d":
        return [np.asarray(array).real, np.asarray(array).imag]
    if context.name == "dd":
        return [array.real.hi, array.real.lo, array.imag.hi, array.imag.lo]
    return [getattr(part, f"c{c}") for part in (array.real, array.imag)
            for c in range(4)]


def rows_of(evaluation):
    rows = list(evaluation.values)
    rows += [entry for row in evaluation.jacobian for entry in row]
    return rows + list(getattr(evaluation, "t_derivative", []))


def snapshot(evaluation, context, lanes=slice(None)):
    """Copies of every plane of every returned row (rows are plan-owned)."""
    return [np.array(p[lanes], copy=True)
            for row in rows_of(evaluation) for p in planes_of(row, context)]


def assert_same_bits(got, want, where=""):
    """Bit equality outside NaN; NaN at the same positions."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        nan = np.isnan(a)
        assert np.array_equal(nan, np.isnan(b)), f"NaN pattern differs {where}"
        assert np.array_equal(a.view(np.int64)[~nan],
                              b.view(np.int64)[~nan]), f"bits differ {where}"


def assert_value_equal(got, want, where=""):
    """``==`` equality, NaN positions matching (signed zeros may differ)."""
    for a, b in zip(got, want):
        nan = np.isnan(a)
        assert np.array_equal(nan, np.isnan(b)), f"NaN pattern differs {where}"
        assert np.all((a == b) | nan), f"values differ {where}"


def lane_batch(backend, dimension, rng, clean=5):
    """Adversarial lanes first, then ``clean`` random ones."""
    points = [[complex(a, b) for a, b in zip(rng.normal(size=dimension),
                                             rng.normal(size=dimension))]
              for _ in range(len(ADVERSARIAL) + clean)]
    for lane, value in enumerate(ADVERSARIAL):
        points[lane][lane % dimension] = value
    with masked_lane_errstate():
        return backend.from_points(points)


def clean_lanes(backend, dimension, lanes, seed):
    """``lanes`` random finite points."""
    rng = np.random.default_rng(seed)
    points = [[complex(a, b) for a, b in zip(rng.normal(size=dimension),
                                             rng.normal(size=dimension))]
              for _ in range(lanes)]
    return backend.from_points(points)


def homotopy_for(scenario, context, use_plan=True):
    target = scenario.build_system()
    start = total_degree_start_system(target)
    return BatchHomotopy(start, target, context=context,
                         gamma=complex(-0.6, 0.8), use_plan=use_plan)


def run_plan(plan, points, t=None):
    """One execution of ``plan``, packaged like the walk's evaluation."""
    if t is None:
        return BatchSystemEvaluation(*plan.execute(points))
    return BatchHomotopyEvaluation(*plan.execute(points, t))


def walk_of(system, backend, points):
    return VectorisedBatchEvaluator(system, backend=backend).evaluate(points)


class TestRegistry:
    """The tape against the Python tape loop and the walk, on every
    registry scenario and rung."""

    @requires_tape
    @pytest.mark.parametrize("context", CONTEXTS, ids=lambda c: c.name)
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
    def test_tape_matches_python_loop_and_walk(self, scenario, context,
                                               monkeypatch):
        rng = np.random.default_rng(SCENARIOS.index(scenario))
        homotopy = homotopy_for(scenario, context)
        backend = homotopy.backend
        n = homotopy.dimension
        points = lane_batch(backend, n, rng)
        lanes = points.shape[1]
        t = np.linspace(0.0, 1.0, lanes)
        system = scenario.build_system()
        plan = EvaluationPlan(system, backend=backend)
        clean = slice(len(ADVERSARIAL), None)
        with masked_lane_errstate():
            native = snapshot(homotopy.evaluate_batch(points, t), context)
            native_system = snapshot(run_plan(plan, points), context)
            walk = snapshot(homotopy_for(scenario, context, use_plan=False)
                            .evaluate_batch(points, t), context, clean)
            walk_system = snapshot(walk_of(system, backend, points), context,
                                   clean)
            with monkeypatch.context() as patch:
                patch.setattr(compiled, "KERNELS", None)
                loop = snapshot(homotopy.evaluate_batch(points, t), context)
                loop_system = snapshot(run_plan(plan, points), context)
        assert_same_bits(native, loop, "tape vs Python loop")
        assert_same_bits(native_system, loop_system, "system tape vs loop")
        # The walk on the finite lanes only: on an inf lane the plan's
        # power ladder copies where the walk multiplies by one.
        assert_value_equal([p[clean] for p in native], walk, "tape vs walk")
        assert_same_bits([p[clean] for p in native_system], walk_system,
                         "system tape vs walk")


@requires_tape
class TestLayoutsAndLifecycle:
    @pytest.mark.parametrize("context", CONTEXTS, ids=lambda c: c.name)
    def test_column_major_lane_gather(self, context, monkeypatch):
        # The Newton corrector evaluates x[:, idx], which NumPy lays out
        # column-major: every point row is strided.
        homotopy = homotopy_for(tier1_scenarios()[0], context)
        points = lane_batch(homotopy.backend, homotopy.dimension,
                            np.random.default_rng(1))
        idx = np.array([9, 2, 7, 0, 4])
        gathered = points[:, idx]
        t = np.random.default_rng(2).uniform(0.0, 1.0, size=idx.size)
        compact = homotopy.backend.copy(gathered)
        with masked_lane_errstate():
            strided = snapshot(homotopy.evaluate_batch(gathered, t), context)
            contiguous = snapshot(homotopy.evaluate_batch(compact, t),
                                  context)
            monkeypatch.setattr(compiled, "KERNELS", None)
            loop = snapshot(homotopy.evaluate_batch(gathered, t), context)
        assert_same_bits(strided, contiguous)
        assert_same_bits(strided, loop)

    @pytest.mark.parametrize("context", CONTEXTS, ids=lambda c: c.name)
    def test_rows_mutated_by_the_solver_are_rewritten(self, context,
                                                      monkeypatch):
        homotopy = homotopy_for(tier1_scenarios()[1], context)
        backend = homotopy.backend
        rng = np.random.default_rng(3)
        n = homotopy.dimension
        points = backend.from_points(
            [[complex(a, b) for a, b in zip(rng.normal(size=n),
                                            rng.normal(size=n))]
             for _ in range(6)])
        t = rng.uniform(0.0, 1.0, size=6)
        with masked_lane_errstate():
            first = homotopy.evaluate_batch(points, t)
            want = snapshot(first, context)
            # The Python elimination eliminates in place: it consumes the
            # donated Jacobian and value rows (the compiled solve never
            # writes them, so the kernels are off for these calls).
            with monkeypatch.context() as patch:
                patch.setattr(compiled, "KERNELS", None)
                batched_solve(first.jacobian, first.values, backend,
                              copy=False)
                batched_solve(first.jacobian, first.t_derivative, backend,
                              copy=False)
            mutated = snapshot(first, context)
            assert any(a.tobytes() != b.tobytes()
                       for a, b in zip(mutated, want))
            again = snapshot(homotopy.evaluate_batch(points, t), context)
        assert_same_bits(again, want)

    def test_exactly_one_resize_per_lane_count_change(self):
        homotopy = homotopy_for(tier1_scenarios()[0], DOUBLE)
        backend = homotopy.backend
        n = homotopy.dimension
        rng = np.random.default_rng(4)
        sequence = (8, 8, 5, 5, 8, 3, 3, 3, 8)
        changes = sum(a != b for a, b in zip(sequence, sequence[1:]))
        for lanes in sequence:
            points = backend.from_points(
                [[complex(a, b) for a, b in zip(rng.normal(size=n),
                                                rng.normal(size=n))]
                 for _ in range(lanes)])
            t = rng.uniform(0.0, 1.0, size=lanes)
            got = snapshot(homotopy.evaluate_batch(points, t), DOUBLE)
            fresh = homotopy_for(tier1_scenarios()[0], DOUBLE)
            assert_same_bits(got,
                             snapshot(fresh.evaluate_batch(points, t), DOUBLE))
        assert homotopy.plan.resizes == changes
        assert homotopy.plan.exec_stats.executions == len(sequence)


def example_system() -> PolynomialSystem:
    """Small square system with shared supports, powers and a constant."""
    xy = Monomial((0, 1), (2, 3))
    yz = Monomial((1, 2), (1, 2))
    return PolynomialSystem([
        Polynomial([(2 + 1j, xy), (1 - 1j, yz), (0.5 + 0j, Monomial((), ()))]),
        Polynomial([(1 + 0j, xy), (-3 + 0j, Monomial((2,), (4,)))]),
        Polynomial([(1 + 2j, yz), (1 + 0j, Monomial((0,), (1,)))]),
    ], dimension=3)


class TestAgainstWalk:
    """The tape against the walk on a small system with shared supports,
    powers and a constant term."""

    @pytest.mark.parametrize("context", CONTEXTS, ids=lambda c: c.name)
    def test_single_system_bit_for_bit(self, context):
        system = example_system()
        backend = backend_for_context(context)
        points = clean_lanes(backend, 3, 5, seed=1)
        plan = EvaluationPlan(system, backend=backend)
        with masked_lane_errstate():
            got = snapshot(run_plan(plan, points), context)
            want = snapshot(walk_of(system, backend, points), context)
        assert_same_bits(got, want)
        assert plan.exec_stats.executions == 1

    @pytest.mark.parametrize("context", CONTEXTS, ids=lambda c: c.name)
    def test_homotopy_bit_for_bit(self, context):
        # Values and dh/dt bit for bit; a Jacobian entry only one system
        # touches skips the walk's product of a zeros row, so its zero may
        # differ in sign.
        target = example_system()
        start = total_degree_start_system(target)
        backend = backend_for_context(context)
        points = clean_lanes(backend, 3, 4, seed=2)
        t = np.random.default_rng(3).uniform(0.0, 1.0, size=4)
        plan = HomotopyPlan(start, target, gamma=0.6 - 0.8j, backend=backend)
        walk = BatchHomotopy(start, target, gamma=0.6 - 0.8j,
                             backend=backend, use_plan=False)
        with masked_lane_errstate():
            got = run_plan(plan, points, t)
            want = walk.evaluate_batch(points, t)
            assert_value_equal(snapshot(got, context), snapshot(want, context))
            for name in ("values", "t_derivative"):
                assert_same_bits(
                    [p for row in getattr(got, name)
                     for p in planes_of(row, context)],
                    [p for row in getattr(want, name)
                     for p in planes_of(row, context)], name)


class TestPlanLifecycle:
    def test_lane_count_change_resizes_exactly_once(self):
        backend = backend_for_context(DOUBLE)
        plan = EvaluationPlan(example_system(), backend=backend)
        for lanes, seed, resizes in ((8, 4, 0), (8, 5, 0), (3, 6, 1),
                                     (3, 7, 1)):
            plan.execute(clean_lanes(backend, 3, lanes, seed))
            assert plan.resizes == resizes

    def test_results_correct_across_resize(self):
        system = example_system()
        backend = backend_for_context(DOUBLE_DOUBLE)
        plan = EvaluationPlan(system, backend=backend)
        wide = clean_lanes(backend, 3, 6, seed=8)
        narrow = clean_lanes(backend, 3, 2, seed=9)
        with masked_lane_errstate():
            for points in (wide, narrow, wide):
                assert_same_bits(
                    snapshot(run_plan(plan, points), DOUBLE_DOUBLE),
                    snapshot(walk_of(system, backend, points), DOUBLE_DOUBLE))

    @pytest.mark.parametrize("context", (DOUBLE, DOUBLE_DOUBLE),
                             ids=lambda c: c.name)
    def test_tape_matches_walk_with_and_without_kernels(self, context,
                                                        monkeypatch):
        # One plan, executed under the compiled kernels and then the NumPy
        # reference chains, matches the walk both times.
        system = example_system()
        backend = backend_for_context(context)
        points = clean_lanes(backend, 3, 5, seed=10)
        plan = EvaluationPlan(system, backend=backend)
        with masked_lane_errstate():
            want = snapshot(walk_of(system, backend, points), context)
            for kernels in (compiled.KERNELS, None):
                monkeypatch.setattr(compiled, "KERNELS", kernels)
                assert_same_bits(snapshot(run_plan(plan, points), context),
                                 want)

    def test_exception_mid_execution_leaves_the_plan_reusable(self):
        system = example_system()
        backend = backend_for_context(DOUBLE_DOUBLE)
        points = clean_lanes(backend, 3, 5, seed=11)
        plan = EvaluationPlan(system, backend=backend)
        calls = {"n": 0}
        original = backend.iadd_mul

        def failing_iadd_mul(acc, a, b):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("injected mid-plan failure")
            return original(acc, a, b)

        with masked_lane_errstate():
            plan.execute(points)  # size the slot buffer
            # A replaced backend method sends the tape to the Python loop,
            # where the failure fires mid-execution.
            backend.iadd_mul = failing_iadd_mul
            try:
                with pytest.raises(RuntimeError, match="injected"):
                    plan.execute(points)
            finally:
                del backend.iadd_mul
            # No poisoned slots: the next execution fully overwrites them.
            got = snapshot(run_plan(plan, points), DOUBLE_DOUBLE)
            want = snapshot(walk_of(system, backend, points), DOUBLE_DOUBLE)
        assert calls["n"] == 2
        assert_same_bits(got, want)


class TestScaleFactorSharing:
    def scaled_system(self):
        # The same monomial under distinct coefficients, with one
        # (coeff, monomial) pair consumed twice: without scale sharing the
        # compiler would materialise a scaled term plane; with it, the one
        # unscaled product plane feeds every consumer through iadd_mul.
        xy = Monomial((0, 1), (1, 2))
        z2 = Monomial((2,), (2,))
        return PolynomialSystem([
            Polynomial([(2 + 0j, xy), (1 + 0j, z2)]),
            Polynomial([(2 + 0j, xy), (3 + 0j, z2)]),
            Polynomial([(5 + 0j, xy), (1 + 1j, z2)]),
        ], dimension=3)

    def test_products_shared_and_counted(self):
        plan = EvaluationPlan(self.scaled_system())
        assert plan.statistics["scale_shared_products"] >= 1
        # Suppressed products never materialise scaled planes.
        assert plan.statistics["shared_term_planes"] == 0

    @pytest.mark.parametrize("context", CONTEXTS, ids=lambda c: c.name)
    def test_bit_for_bit_with_walk(self, context):
        system = self.scaled_system()
        backend = backend_for_context(context)
        points = clean_lanes(backend, 3, 5, seed=16)
        plan = EvaluationPlan(system, backend=backend)
        with masked_lane_errstate():
            got = snapshot(run_plan(plan, points), context)
            want = snapshot(walk_of(system, backend, points), context)
        assert_same_bits(got, want)


@requires_tape
class TestDProbe:
    def test_forced_probe_failure_falls_back_with_one_warning(
            self, monkeypatch):
        def skewed(a, b, out=None):
            product = np.multiply(a, b)
            product.real[5] = np.nextafter(product.real[5], np.inf)
            return product

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            contexts = compiled.tape_contexts(compiled.KERNELS,
                                              multiply=skewed)
        assert [type(w.message) for w in caught] == [RuntimeWarning]
        assert "np.multiply(x, y)" in str(caught[0].message)
        assert contexts == {"dd", "qd"}

        homotopy = homotopy_for(tier1_scenarios()[2], DOUBLE)
        points = lane_batch(homotopy.backend, homotopy.dimension,
                            np.random.default_rng(5))
        t = np.linspace(0.0, 1.0, points.shape[1])
        with masked_lane_errstate():
            native = snapshot(homotopy.evaluate_batch(points, t), DOUBLE)
            monkeypatch.setattr(compiled, "TAPE_CONTEXTS", contexts)
            calls = {"n": 0}
            backend_type = type(homotopy.backend)
            original = backend_type.mul_into

            def counting(self, out, a, b):
                calls["n"] += 1
                return original(self, out, a, b)

            monkeypatch.setattr(backend_type, "mul_into", counting)
            fallback = snapshot(homotopy.evaluate_batch(points, t), DOUBLE)
        assert calls["n"] > 0, "the declined d tape still ran natively"
        assert_same_bits(fallback, native)

    def test_dd_and_qd_tapes_stay_native_when_d_is_declined(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            contexts = compiled.tape_contexts(
                compiled.KERNELS, power=lambda x, e: np.power(x, e) * 1.5)
        assert contexts == {"dd", "qd"}


@requires_tape
class TestLowering:
    @pytest.mark.parametrize("context", CONTEXTS, ids=lambda c: c.name)
    def test_blend_weights_embed_like_the_backend(self, context):
        # WEIGHTS forms gamma (1 - t) and t in complex128 as NumPy does and
        # embeds them as embed_complex128 does: at t = 1 a gamma with a
        # negative real part gives a -0.0 weight, which dd renormalises.
        backend = backend_for_context(context)
        native = tape_module._NATIVE[type(backend)]
        gamma = complex(-0.6, 0.8)
        t = np.array([0.0, 0.25, 1.0, 0.5, 1.0 - 2.0 ** -53])
        table = np.zeros(native.width)
        table[:2] = gamma.real, gamma.imag
        slots = native.allocate(3, t.size)
        points = backend.zeros((1, t.size))
        planes = native.planes(points)
        kernel = getattr(compiled.KERNELS, native.kernel)
        program = np.array([[compiled.WEIGHTS, 1, 2, -1]], np.int32)
        assert kernel(program, table, slots, t, *planes) is None
        want_g = backend.embed_complex128(
            gamma * (1.0 - t).astype(np.complex128))
        want_f = backend.embed_complex128(t.astype(np.complex128))
        for slot, want in ((1, want_g), (2, want_f)):
            got = planes_of(native.view(slots, slot), context)
            assert_same_bits([np.array(p) for p in got],
                             [np.array(p) for p in planes_of(want, context)])

    def test_products_keep_the_backend_operand_order(self):
        # NumPy multiplies scalar * array as written; the dd/qd arrays
        # always multiply the array by the embedded scalar.
        plan = HomotopyPlan(*_power_pair(3), gamma=0.6 + 0.8j)
        for native in tape_module._NATIVE.values():
            program, _ = plan.tape.native(native)
            products = program[np.isin(program[:, 0],
                                       (compiled.MUL, compiled.ADDMUL))]
            if native.name == "d":
                assert (products[:, 2] < 0).any()
            else:
                assert (products[:, 2] >= 0).all()


@requires_tape
@pytest.mark.parametrize("context", CONTEXTS, ids=lambda c: c.name)
def test_used_plan_pickles(context):
    # A plan that already sized its slot buffer still pickles, and the
    # copy evaluates to the same bits.
    import pickle

    backend = backend_for_context(context)
    plan = HomotopyPlan(*_power_pair(3), gamma=0.6 + 0.8j, backend=backend)
    points = backend.from_points([[0.3 + 0.1j, -0.2 + 0.7j],
                                  [1.1 - 0.4j, 0.5j]])
    t = np.array([0.2, 0.9])
    first = plan.execute(points, t)[0][0]
    want = [np.array(p) for p in planes_of(first, context)]
    copy = pickle.loads(pickle.dumps(plan))
    got = copy.execute(points, t)[0][0]
    assert_same_bits([np.array(p) for p in planes_of(got, context)], want)


def _power_pair(exponent: int):
    xy = Monomial((0, 1), (exponent, 2))
    target = PolynomialSystem([
        Polynomial([(1 + 1j, xy), (-2 + 0j, Monomial((), ()))]),
        Polynomial([(0.5 + 0j, Monomial((1,), (3,))),
                    (1 + 0j, Monomial((0,), (1,)))]),
    ], dimension=2)
    return total_degree_start_system(target), target


@requires_tape
def test_d_power_beyond_numpys_ladder_runs_the_python_loop():
    # np.power leaves its integer ladder at exponent 100; the d tape does
    # not lower such a plan and the Python loop runs it instead.
    start, target = _power_pair(101)
    plan = HomotopyPlan(start, target, gamma=0.6 + 0.8j)
    points = np.array([[0.9 + 0.1j, 1.01 - 0.02j], [0.3j, -0.7 + 0.2j]])
    t = np.array([0.25, 0.75])
    assert plan.tape.native(tape_module._NATIVE[type(plan.backend)]) is None
    got = [np.array(v) for v in plan.execute(points, t)[0]]
    walk = BatchHomotopy(start, target, gamma=0.6 + 0.8j,
                         use_plan=False).evaluate_batch(points, t)
    for a, b in zip(got, walk.values):
        assert np.array_equal(a, b)


@requires_tape
def test_instances_sharing_artifacts_across_threads():
    """Two plan instances over one compile-cache entry, each driven from
    several threads at once (more threads than cores), with a tiny switch
    interval: every result matches the sequential run."""
    scenario = tier1_scenarios()[3]
    target = scenario.build_system()
    start = total_degree_start_system(target)
    gammas = (complex(0.28, -0.96), complex(-0.6, 0.8))
    rng = np.random.default_rng(6)
    n = target.dimension
    jobs = []
    for k in range(24):
        context = CONTEXTS[k % 3]
        lanes = 3 + k % 5
        backend = backend_for_context(context)
        points = backend.from_points(
            [[complex(a, b) for a, b in zip(rng.normal(size=n),
                                            rng.normal(size=n))]
             for _ in range(lanes)])
        jobs.append((context, gammas[k % 2], points,
                     rng.uniform(0.0, 1.0, size=lanes)))

    def run(job):
        context, gamma, points, t = job
        plan = HomotopyPlan(start, target, gamma=gamma,
                            backend=backend_for_context(context))
        values, jacobian, t_derivative = plan.execute(points, t)
        rows = values + [e for row in jacobian for e in row] + t_derivative
        return plan.tape, [np.array(p, copy=True) for r in rows
                           for p in planes_of(r, context)]

    sequential = [run(job) for job in jobs]
    tapes = {id(tape) for tape, _ in sequential}
    assert len(tapes) == 1, "instances did not share the compiled tape"
    results = {}

    def worker(index):
        for k in range(index, len(jobs), 6):
            results[k] = run(jobs[k])[1]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    for k, (_, want) in enumerate(sequential):
        assert_same_bits(results[k], want, f"job {k}")


def report_key(report) -> tuple:
    """Every solution component bit, residual and multiplicity, plus the
    per-rung accounting."""
    def bits(x):
        if isinstance(x, complex):
            parts = (x.real, x.imag)
        elif hasattr(x.real, "hi"):
            parts = (x.real.hi, x.real.lo, x.imag.hi, x.imag.lo)
        else:
            parts = tuple(x.real.c) + tuple(x.imag.c)
        return tuple(float(p).hex() for p in parts)

    solutions = tuple((tuple(bits(x) for x in s.point), s.residual.hex(),
                       s.multiplicity) for s in report.solutions)
    return (solutions, report.paths_converged, len(report.failures),
            dict(report.paths_by_context), dict(report.converged_by_context),
            dict(report.resumed_by_context))


def solve(scenario, escalate: bool):
    options = TrackerOptions(end_iterations=12,
                             end_tolerance=1e-40 if escalate else 1e-10)
    start = (DiagonalStart() if scenario.start_strategy == "diagonal"
             else TotalDegreeStart())
    return solve_system(scenario.build_system(), options=options, start=start,
                        escalation=EscalationPolicy() if escalate else None)


@requires_tape
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_solve_reports_identical_through_the_python_loop_at_d(scenario,
                                                              monkeypatch):
    native = report_key(solve(scenario, escalate=False))
    monkeypatch.setattr(compiled, "TAPE_CONTEXTS", frozenset())
    assert report_key(solve(scenario, escalate=False)) == native


@requires_tape
@pytest.mark.parametrize("scenario", [
    s if s.tier1 else pytest.param(s, marks=pytest.mark.slow)
    for s in SCENARIOS], ids=lambda s: s.name)
def test_solve_reports_identical_up_the_escalation_ladder(scenario,
                                                          monkeypatch):
    native = solve(scenario, escalate=True)
    monkeypatch.setattr(compiled, "TAPE_CONTEXTS", frozenset())
    assert report_key(solve(scenario, escalate=True)) == report_key(native)
