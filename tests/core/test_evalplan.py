"""Differential plan-vs-walk suite for the compiled evaluation plans.

The compiled :class:`~repro.core.evalplan.EvaluationPlan` must reproduce
the walk-the-terms path *bit for bit* at every rung -- the two paths share
their power chains, sweeps and accumulation order, so any divergence is a
compiler bug, not roundoff.  The :class:`~repro.core.evalplan.HomotopyPlan`
is bit-for-bit on the value rows and the t-derivative; Jacobian entries
compare under ``==`` (structurally one-sided entries may differ in the sign
of a signed zero, never in value).

Coverage deliberately includes the adversarial shapes the compiler
deduplicates: repeated supports with different exponents, monomials shared
verbatim between the start and target systems, constant terms, repeated
identical terms, and inf/NaN lanes flowing through the masked arithmetic.
When ``hypothesis`` is installed the system generator additionally runs
under its adversarial shrinking; the seeded driver below always runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import evalplan
from repro.core.batch import VectorisedBatchEvaluator
from repro.core.evalplan import (
    EvaluationPlan,
    HomotopyPlan,
    PlanOpCounts,
    homotopy_walk_op_counts,
    pow_chain_multiplications,
    walk_op_counts,
)
from repro.core.opcounts import sharing_report
from repro.errors import ConfigurationError
from repro.multiprec.backend import backend_for_context, masked_lane_errstate
from repro.multiprec.numeric import DOUBLE, DOUBLE_DOUBLE, QUAD_DOUBLE
from repro.polynomials.monomial import Monomial
from repro.polynomials.polynomial import Polynomial
from repro.polynomials.system import PolynomialSystem
from repro.tracking.homotopy import BatchHomotopy
from repro.tracking.start_systems import total_degree_start_system

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False

ALL_CONTEXTS = (DOUBLE, DOUBLE_DOUBLE, QUAD_DOUBLE)

_RNG = np.random.default_rng(20120521)


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
def random_system(rng, dimension: int, terms_per_poly: int = 4,
                  max_exponent: int = 5) -> PolynomialSystem:
    """A random sparse square system with deliberately repeated supports."""
    supports = []
    polys = []
    for _ in range(dimension):
        poly_terms = []
        for _ in range(terms_per_poly):
            kind = rng.integers(0, 4)
            if kind == 0:
                poly_terms.append((complex(rng.normal(), rng.normal()),
                                   Monomial((), ())))
                continue
            if kind == 1 and supports:
                # Reuse an earlier support (possibly with new exponents):
                # the dedup path the plan exists for.
                positions = supports[int(rng.integers(0, len(supports)))]
            else:
                k = int(rng.integers(1, dimension + 1))
                positions = tuple(sorted(rng.choice(dimension, size=k,
                                                    replace=False).tolist()))
                supports.append(positions)
            exponents = tuple(int(e) for e in
                              rng.integers(1, max_exponent + 1,
                                           size=len(positions)))
            poly_terms.append((complex(rng.normal(), rng.normal()),
                               Monomial(positions, exponents)))
        polys.append(Polynomial(poly_terms))
    return PolynomialSystem(polys, dimension=dimension)


def lane_points(backend, dimension: int, lanes: int, rng,
                poison: bool = False):
    """A random lane batch; with ``poison``, lane 0 carries inf and lane 1
    NaN components (the dead-lane shapes of the masked tracker)."""
    points = [[complex(a, b) for a, b in zip(rng.normal(size=dimension),
                                             rng.normal(size=dimension))]
              for _ in range(lanes)]
    if poison and lanes >= 2:
        points[0] = [complex(np.inf, -1.0)] + points[0][1:]
        points[1] = [complex(np.nan, 2.0)] + points[1][1:]
    with masked_lane_errstate():
        # Packing inf/NaN lanes renormalises through two_sum, which is
        # exactly the dead-lane arithmetic the errstate scope silences.
        return backend.from_points(points)


def component_planes(array, context):
    if context.name == "d":
        return [array.real, array.imag]
    if context.name == "dd":
        return [array.real.hi, array.real.lo, array.imag.hi, array.imag.lo]
    return ([getattr(array.real, f"c{c}") for c in range(4)]
            + [getattr(array.imag, f"c{c}") for c in range(4)])


def assert_bit_for_bit(a, b, context, where=""):
    """Exact plane equality, NaNs matching positionally."""
    for pa, pb in zip(component_planes(a, context), component_planes(b, context)):
        assert np.array_equal(pa, pb, equal_nan=True), \
            f"bit-for-bit mismatch {where}: {pa} vs {pb}"


def assert_value_equal(a, b, context, where=""):
    """``==`` equality (tolerates signed-zero bit differences)."""
    for pa, pb in zip(component_planes(a, context), component_planes(b, context)):
        both_nan = np.isnan(pa) & np.isnan(pb)
        assert np.array_equal(np.isnan(pa), np.isnan(pb)), \
            f"NaN pattern mismatch {where}"
        assert np.all((pa == pb) | both_nan), \
            f"value mismatch {where}: {pa} vs {pb}"


def compiled_specs(system):
    """The plane specs the plan compiler emits for ``system``."""
    compiler = evalplan._Compiler()
    compiler.compile_system(system)
    compiler.finalize()
    return compiler.specs


# ----------------------------------------------------------------------
# the differential core, reused by the seeded and hypothesis drivers
# ----------------------------------------------------------------------
def check_single_system(system, context, rng, lanes=5, poison=False):
    backend = backend_for_context(context)
    points = lane_points(backend, system.dimension, lanes, rng, poison=poison)
    with masked_lane_errstate():
        walk = VectorisedBatchEvaluator(system, backend=backend).evaluate(points)
        values, jacobian = EvaluationPlan(system, backend=backend).execute(points)
    n = system.dimension
    for i in range(n):
        assert_bit_for_bit(walk.values[i], values[i], context,
                           f"values[{i}] at {context.name}")
        for j in range(n):
            assert_bit_for_bit(walk.jacobian[i][j], jacobian[i][j],
                               context, f"jacobian[{i}][{j}] at {context.name}")


def check_homotopy(start, target, context, rng, lanes=5, poison=False):
    backend = backend_for_context(context)
    n = target.dimension
    points = lane_points(backend, n, lanes, rng, poison=poison)
    t = rng.uniform(0.0, 1.0, size=lanes)
    with masked_lane_errstate():
        walk = BatchHomotopy(start, target, context=context, backend=backend,
                             use_plan=False).evaluate_batch(points, t)
        plan = BatchHomotopy(start, target, context=context,
                             backend=backend).evaluate_batch(points, t)
    for i in range(n):
        assert_bit_for_bit(walk.values[i], plan.values[i], context,
                           f"h values[{i}] at {context.name}")
        assert_bit_for_bit(walk.t_derivative[i], plan.t_derivative[i], context,
                           f"dh/dt[{i}] at {context.name}")
        for j in range(n):
            assert_value_equal(walk.jacobian[i][j], plan.jacobian[i][j],
                               context, f"h jacobian[{i}][{j}] at {context.name}")


# ----------------------------------------------------------------------
# seeded driver: always runs, all three rungs
# ----------------------------------------------------------------------
class TestDifferentialSeeded:
    @pytest.mark.parametrize("context", ALL_CONTEXTS, ids=lambda c: c.name)
    def test_single_system_bit_for_bit(self, context):
        for trial in range(4):
            rng = np.random.default_rng(100 + trial)
            system = random_system(rng, dimension=int(rng.integers(2, 5)))
            check_single_system(system, context, rng)

    @pytest.mark.parametrize("context", ALL_CONTEXTS, ids=lambda c: c.name)
    def test_homotopy_against_walk(self, context):
        for trial in range(3):
            rng = np.random.default_rng(200 + trial)
            target = random_system(rng, dimension=int(rng.integers(2, 4)))
            start = total_degree_start_system(target)
            check_homotopy(start, target, context, rng)

    @pytest.mark.parametrize("context", ALL_CONTEXTS, ids=lambda c: c.name)
    def test_inf_nan_lanes_propagate_identically(self, context):
        rng = np.random.default_rng(300)
        target = random_system(rng, dimension=3)
        start = total_degree_start_system(target)
        check_single_system(target, context, rng, poison=True)
        check_homotopy(start, target, context, rng, poison=True)

    @pytest.mark.parametrize("context", ALL_CONTEXTS, ids=lambda c: c.name)
    def test_repeated_identical_terms_share_planes(self, context):
        # The same (coeff, monomial) term appearing twice in one polynomial
        # and once in the other: the shared term plane must not be corrupted
        # by the first consumer's in-place accumulation.
        mono = Monomial((0, 1), (2, 1))
        system = PolynomialSystem([
            Polynomial([(2 + 1j, mono), (2 + 1j, mono), (1 + 0j, Monomial((), ()))]),
            Polynomial([(2 + 1j, mono), (-1 + 0j, Monomial((1,), (3,)))]),
        ], dimension=2)
        rng = np.random.default_rng(400)
        check_single_system(system, context, rng)


if HAVE_HYPOTHESIS:
    @st.composite
    def small_systems(draw):
        dimension = draw(st.integers(min_value=2, max_value=4))
        seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
        rng = np.random.default_rng(seed)
        return random_system(rng, dimension), seed

    class TestDifferentialHypothesis:
        @settings(max_examples=25, deadline=None)
        @given(small_systems())
        def test_single_system_bit_for_bit_d(self, system_seed):
            system, seed = system_seed
            check_single_system(system, DOUBLE, np.random.default_rng(seed))

        @settings(max_examples=10, deadline=None)
        @given(small_systems())
        def test_homotopy_dd(self, system_seed):
            target, seed = system_seed
            start = total_degree_start_system(target)
            check_homotopy(start, target, DOUBLE_DOUBLE,
                           np.random.default_rng(seed))


# ----------------------------------------------------------------------
# shape validation (regression: 1-D points used to be silently misread)
# ----------------------------------------------------------------------
class TestInputShapeValidation:
    def make_evaluate(self, use_plan=False):
        """The plan's ``execute`` or the walk's ``evaluate``."""
        system = PolynomialSystem([
            Polynomial([(1 + 0j, Monomial((0,), (2,)))]),
            Polynomial([(1 + 0j, Monomial((1,), (1,)))]),
        ], dimension=2)
        if use_plan:
            return EvaluationPlan(system).execute
        return VectorisedBatchEvaluator(system).evaluate

    @pytest.mark.parametrize("use_plan", [True, False])
    def test_one_dimensional_points_rejected(self, use_plan):
        evaluate = self.make_evaluate(use_plan)
        flat = np.array([1 + 0j, 2 + 0j])  # a single point, not a batch
        with pytest.raises(ConfigurationError, match=r"\(n, B\)"):
            evaluate(flat)

    @pytest.mark.parametrize("use_plan", [True, False])
    def test_wrong_leading_dimension_rejected(self, use_plan):
        evaluate = self.make_evaluate(use_plan)
        wrong = np.zeros((3, 4), dtype=np.complex128)
        with pytest.raises(ConfigurationError, match="dimension"):
            evaluate(wrong)

    def test_correct_shape_accepted(self):
        evaluate = self.make_evaluate()
        points = np.ones((2, 3), dtype=np.complex128)
        result = evaluate(points)
        assert len(result.values) == 2
        assert result.values[0].shape == (3,)

    def test_batch_homotopy_rejects_flat_points(self):
        system = PolynomialSystem([
            Polynomial([(1 + 0j, Monomial((0,), (2,))),
                        (-1 + 0j, Monomial((), ()))]),
        ], dimension=1)
        for use_plan in (True, False):
            homotopy = BatchHomotopy(total_degree_start_system(system), system,
                                     use_plan=use_plan)
            with pytest.raises(ConfigurationError):
                homotopy.evaluate_batch(np.ones(3, dtype=np.complex128),
                                        np.zeros(3))


# ----------------------------------------------------------------------
# the compiled structure
# ----------------------------------------------------------------------
class TestPlanMachinery:
    def test_pow_chain_matches_pow_operator_cost(self):
        # e = 1 -> ones*base + one squaring; e = 6 (110b) -> 2 result muls
        # + 3 squarings.
        assert pow_chain_multiplications(0) == 0
        assert pow_chain_multiplications(1) == 2
        assert pow_chain_multiplications(6) == 5

    def test_plan_compiles_lazily_and_once(self):
        rng = np.random.default_rng(8)
        target = random_system(rng, 2)
        homotopy = BatchHomotopy(total_degree_start_system(target), target)
        assert homotopy._plan is None
        plan = homotopy.plan
        assert homotopy.plan is plan

    def test_rejects_non_square_system(self):
        lopsided = PolynomialSystem([
            Polynomial([(1 + 0j, Monomial((0,), (1,)))]),
        ], dimension=2)
        with pytest.raises(ConfigurationError):
            EvaluationPlan(lopsided)

    def test_homotopy_plan_requires_gamma_to_execute(self):
        rng = np.random.default_rng(9)
        target = random_system(rng, 2)
        start = total_degree_start_system(target)
        plan = HomotopyPlan(start, target)  # compiles fine (op counts only)
        assert plan.op_counts.multiplications > 0
        backend = backend_for_context(DOUBLE)
        points = lane_points(backend, 2, 3, rng)
        with pytest.raises(ConfigurationError, match="gamma"):
            plan.execute(points, np.zeros(3))

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ConfigurationError):
            HomotopyPlan(random_system(rng, 2), random_system(rng, 3))

    @pytest.mark.parametrize("position", ["start", "target"])
    def test_homotopy_plan_rejects_non_square_system(self, position):
        """Refused before compiling, as EvaluationPlan refuses one, not
        with an IndexError from inside the compiler."""
        from repro.polynomials import katsura_system

        square = katsura_system(2)
        lopsided = PolynomialSystem(square.polynomials[:2], dimension=3)
        pair = ((lopsided, square) if position == "start"
                else (square, lopsided))
        with pytest.raises(ConfigurationError, match="square"):
            HomotopyPlan(*pair, gamma=1j)


# ----------------------------------------------------------------------
# op counts: the plan never schedules more work than the walk
# ----------------------------------------------------------------------
class TestOpCounts:
    def test_plan_counts_never_exceed_walk(self):
        for seed in range(6):
            rng = np.random.default_rng(500 + seed)
            target = random_system(rng, int(rng.integers(2, 5)))
            plan = EvaluationPlan(target)
            assert plan.op_counts.multiplications <= plan.walk_counts.multiplications
            assert plan.op_counts.additions <= plan.walk_counts.additions
            start = total_degree_start_system(target)
            hplan = HomotopyPlan(start, target)
            assert hplan.op_counts.multiplications <= hplan.walk_counts.multiplications
            assert hplan.op_counts.additions <= hplan.walk_counts.additions

    def test_walk_counts_match_module_functions(self):
        rng = np.random.default_rng(600)
        target = random_system(rng, 3)
        start = total_degree_start_system(target)
        assert EvaluationPlan(target).walk_counts == walk_op_counts(target)
        assert (HomotopyPlan(start, target).walk_counts
                == homotopy_walk_op_counts(start, target))

    def test_op_counts_arithmetic(self):
        total = PlanOpCounts(3, 2) + PlanOpCounts(1, 1)
        assert total == PlanOpCounts(4, 3)
        assert total.total == 7
        assert total.as_dict()["multiplications"] == 4

    def test_common_chain_shared_across_monomials_with_same_powers(self):
        # x0^3*x1^2*x2 and x0^3*x1^2*x3 differ only in an exponent-1
        # variable: their common factor x0^2*x1 is one chain, not two.
        system = PolynomialSystem([
            Polynomial([(1 + 0j, Monomial((0, 1, 2), (3, 2, 1))),
                        (1 + 0j, Monomial((0, 1, 3), (3, 2, 1)))]),
            Polynomial([(1 + 0j, Monomial((1,), (1,)))]),
            Polynomial([(1 + 0j, Monomial((2,), (1,)))]),
            Polynomial([(1 + 0j, Monomial((3,), (1,)))]),
        ], dimension=4)
        chains = [spec for spec in compiled_specs(system)
                  if spec[0] == "chain"]
        assert len(chains) == 1
        # A single >1 exponent needs no chain plane at all: the power is
        # the common factor.
        single = PolynomialSystem([
            Polynomial([(1 + 0j, Monomial((0,), (3,)))]),
            Polynomial([(1 + 0j, Monomial((1,), (1,)))]),
        ], dimension=2)
        assert not [s for s in compiled_specs(single) if s[0] == "chain"]

    def test_sharing_report_shapes(self):
        rng = np.random.default_rng(700)
        target = random_system(rng, 3)
        start = total_degree_start_system(target)
        single = sharing_report(target)
        assert single["walk"]["multiplications"] >= single["plan"]["multiplications"]
        paired = sharing_report(target, start)
        assert paired["multiplication_saving_factor"] >= 1.0
        assert paired["sharing"]["terms"] > 0
        assert paired["multiplications_saved"] == (
            paired["walk"]["multiplications"] - paired["plan"]["multiplications"])
