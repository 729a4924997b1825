"""Differential and build tests for the compiled dd/qd plane kernels.

Every kernel of :mod:`repro.multiprec.compiled` must be **bit-for-bit**
identical to

* the NumPy reference chains (what the array types run with
  ``compiled.KERNELS`` set to ``None``, the no-compiler path), and
* the scalar :class:`~repro.multiprec.quad_double.QuadDouble` /
  :class:`~repro.multiprec.double_double.DoubleDouble` loops,

on adversarial lanes too: overlapping components, signed zeros, subnormals,
magnitudes past the Dekker split threshold, inf and NaN.  The NaN contract:
NaN sits at the same positions, and every other element is bit-identical
(a NaN's sign bit may differ, since the compiler may commute ``a + b``).
The reference chains' own renormalisation is pinned against the scalar
branch nest, since it is both the no-compiler path and the oracle.

The build tests drive :func:`repro.multiprec.compiled.load_kernels` against
a temporary cache directory: a cache hit must not rebuild, a changed source
or a corrupt cached file must, and a failed compile must warn once and fall
back.
"""

from __future__ import annotations

import shutil
import warnings

import numpy as np
import pytest

from repro.bench.scenarios import get_scenario
from repro.errors import DivisionByZeroError
from repro.multiprec import (
    ComplexDDArray,
    ComplexQDArray,
    DDArray,
    QDArray,
    compiled,
)
from repro.multiprec.backend import (
    COMPLEX128_BACKEND,
    COMPLEX_DD_BACKEND,
    COMPLEX_QD_BACKEND,
)
from repro.multiprec.eft import SPLIT_THRESHOLD
from repro.multiprec.qdarray import _insert_lowest, _renorm4, _renorm5
from repro.multiprec.quad_double import (
    _renorm4 as scalar_renorm4,
    _renorm5 as scalar_renorm5,
)
from repro.tracking import EscalationPolicy, TrackerOptions, solve_system

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False

requires_kernels = pytest.mark.skipif(
    compiled.KERNELS is None, reason="compiled kernels could not be built")
requires_gcc = pytest.mark.skipif(shutil.which("gcc") is None,
                                  reason="no gcc on this host")


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def planes(value) -> tuple:
    """The float planes of any dd/qd array, real or complex."""
    if isinstance(value, tuple):
        return value
    if isinstance(value, QDArray):
        return value._components()
    if isinstance(value, DDArray):
        return value.hi, value.lo
    return planes(value.real) + planes(value.imag)


def assert_identical(got, expected) -> None:
    """NaN at the same positions, every other element bit-identical."""
    for g, e in zip(planes(got), planes(expected), strict=True):
        g, e = np.asarray(g), np.asarray(e)
        assert g.shape == e.shape
        assert np.array_equal(np.isnan(g), np.isnan(e))
        keep = ~np.isnan(g)
        assert np.array_equal(g[keep].view(np.int64), e[keep].view(np.int64))


def same_floats(got, expected) -> bool:
    """Scalar tuples equal under the NaN contract."""
    return len(got) == len(expected) and all(
        g == e and np.signbit(g) == np.signbit(e) or (np.isnan(g) and np.isnan(e))
        for g, e in zip(got, expected))


def on_reference(compute):
    """``compute()`` on the NumPy reference chains."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compiled, "KERNELS", None)
        return compute()


def random_qd(seed: int, size: int = 24) -> QDArray:
    rng = np.random.default_rng(seed)
    full = QDArray.from_float64(rng.normal(size=size))
    for scale in (1e-17, 1e-34, 1e-51):
        full = full + QDArray.from_float64(rng.normal(size=size) * scale)
    return full


def random_dd(seed: int, size: int = 24) -> DDArray:
    rng = np.random.default_rng(seed)
    return DDArray(rng.normal(size=size), rng.normal(size=size) * 1e-17)


def random_cqd(seed: int, size: int = 24) -> ComplexQDArray:
    return ComplexQDArray(random_qd(seed, size), random_qd(seed + 1000, size))


def random_cdd(seed: int, size: int = 24) -> ComplexDDArray:
    return ComplexDDArray(random_dd(seed, size), random_dd(seed + 1000, size))


#: Lanes mixing every shape the split, renorm and division guards care
#: about: ordinary values, overlapping (non-canonical) expansions, signed
#: zeros, magnitudes past the split threshold, inf, NaN and subnormals.
ADVERSARIAL = np.array([
    [1.0, 1e-17, 1e-34, 1e-51],
    [1.0, 1.0, 1.0, 1.0],
    [0.0, -0.0, 0.0, -0.0],
    [-0.0, 0.0, -0.0, 0.0],
    [1e300, -1e284, 1e268, -1e252],
    [SPLIT_THRESHOLD * 2.0, 1.0, 0.0, 0.0],
    [-SPLIT_THRESHOLD * 8.0, 3.0, 0.0, 0.0],
    [np.inf, 1.0, 2.0, 3.0],
    [-np.inf, np.nan, 0.0, 0.0],
    [np.nan, 1.0, 2.0, 3.0],
    [1.0, np.inf, 0.0, 0.0],
    [1.0, np.nan, 0.0, 0.0],
    [1e-300, 1e-310, 0.0, 0.0],
    [5e-324, -5e-324, 0.0, 0.0],
    [-1.0, 1e-17, -1e-34, 1e-51],
    [2.0**52, 1.0, 0.5, 0.25],
])


def adversarial_qd(shift: int = 0) -> QDArray:
    comps = np.roll(ADVERSARIAL, shift, axis=0)
    with np.errstate(all="ignore"):
        return QDArray(*(comps[:, i].copy() for i in range(4)))


def adversarial_dd(shift: int = 0) -> DDArray:
    comps = np.roll(ADVERSARIAL, shift, axis=0)
    with np.errstate(all="ignore"):
        return DDArray(comps[:, 0].copy(), comps[:, 1].copy())


def without_zero_lanes(value):
    """``value`` with every zero-valued lane (leading plane) set to 1."""
    if isinstance(value, QDArray):
        zero = value.c0 == 0.0
        return QDArray(*(np.where(zero, 1.0 if i == 0 else 0.0, c)
                         for i, c in enumerate(value._components())))
    zero = value.hi == 0.0
    return DDArray(np.where(zero, 1.0, value.hi), np.where(zero, 0.0, value.lo))


BINARY = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
}


# ----------------------------------------------------------------------
# kernels vs reference chains vs scalar loops
# ----------------------------------------------------------------------
@requires_kernels
class TestRealKernels:
    @pytest.mark.parametrize("op", sorted(BINARY))
    @pytest.mark.parametrize("kind", ["qd", "dd"])
    def test_random_operands_match_reference(self, kind, op):
        make = random_qd if kind == "qd" else random_dd
        x, y = make(1), make(2)
        compute = lambda: BINARY[op](x, y)  # noqa: E731
        assert_identical(compute(), on_reference(compute))

    @pytest.mark.parametrize("op", sorted(BINARY))
    @pytest.mark.parametrize("kind", ["qd", "dd"])
    def test_adversarial_lanes_match_reference(self, kind, op):
        make = adversarial_qd if kind == "qd" else adversarial_dd
        x, y = make(), make(5)
        if op == "div":
            y = without_zero_lanes(y)
        compute = lambda: BINARY[op](x, y)  # noqa: E731
        with np.errstate(all="ignore"):
            assert_identical(compute(), on_reference(compute))

    def test_qd_ops_match_scalar_loop(self):
        x, y = random_qd(3), random_qd(4)
        xs, ys = x.to_scalars(), y.to_scalars()
        for op, apply in BINARY.items():
            got = apply(x, y).to_scalars()
            assert [v.c for v in got] == [apply(a, b).c for a, b in zip(xs, ys)], op

    def test_dd_ops_match_scalar_loop(self):
        x, y = random_dd(5), random_dd(6)
        xs, ys = x.to_scalars(), y.to_scalars()
        for op, apply in BINARY.items():
            got = apply(x, y).to_scalars()
            assert [(v.hi, v.lo) for v in got] == \
                [(apply(a, b).hi, apply(a, b).lo) for a, b in zip(xs, ys)], op

    def test_constructor_renorm_matches_reference_and_scalar(self):
        comps = [ADVERSARIAL[:, i].copy() for i in range(4)]
        with np.errstate(all="ignore"):
            got = QDArray(*comps)
            reference = _renorm4(*comps)
        assert_identical(got, reference)
        for lane in range(ADVERSARIAL.shape[0]):
            scalar = scalar_renorm4(*(float(c[lane]) for c in comps))
            mine = tuple(float(c[lane]) for c in got._components())
            assert all(a == b or (np.isnan(a) and np.isnan(b))
                       for a, b in zip(mine, scalar)), lane

    def test_inplace_forms_match_operators(self):
        for x, y in ((random_qd(7), random_qd(8)), (random_dd(7), random_dd(8))):
            mask = np.arange(x.size) % 3 == 0
            acc = x.copy().iadd_(y)
            assert_identical(acc, x + y)
            acc = x.copy().isub_(y)
            assert_identical(acc, x - y)
            acc = x.copy().iadd_where_(y, mask)
            assert_identical(acc, type(x).where(mask, x + y, x))

    def test_out_aliasing_both_inputs(self):
        x = random_qd(9)
        doubled = x + x
        acc = x.copy()
        acc.iadd_(acc)
        assert_identical(acc, doubled)

    def test_real_division_by_zero_raises(self):
        x = random_qd(10, size=4)
        y = QDArray(np.array([1.0, 0.0, 2.0, 0.0]))
        with pytest.raises(DivisionByZeroError, match="2 element"):
            x / y
        with pytest.raises(DivisionByZeroError, match="1 element"):
            random_dd(10, size=3) / DDArray(np.array([1.0, 2.0, 0.0]))


@requires_kernels
class TestComplexKernels:
    @pytest.mark.parametrize("op", sorted(BINARY))
    @pytest.mark.parametrize("kind", ["qd", "dd"])
    def test_random_operands_match_reference(self, kind, op):
        make = random_cqd if kind == "qd" else random_cdd
        x, y = make(11), make(12)
        compute = lambda: BINARY[op](x, y)  # noqa: E731
        assert_identical(compute(), on_reference(compute))

    @pytest.mark.parametrize("op", sorted(BINARY))
    @pytest.mark.parametrize("kind", ["qd", "dd"])
    def test_adversarial_lanes_match_reference(self, kind, op):
        make = adversarial_qd if kind == "qd" else adversarial_dd
        complex_type = ComplexQDArray if kind == "qd" else ComplexDDArray
        x = complex_type(make(), make(3))
        with np.errstate(all="ignore"):
            y = complex_type(make(7), make(11))
            if op == "div":  # keep the lanes whose |y|^2 is not zero
                live = planes(y.abs2())[0] != 0.0
                y = complex_type(*(type(part).where(live, part, 1.0)
                                   for part in (y.real, y.imag)))
            compute = lambda: BINARY[op](x, y)  # noqa: E731
            assert_identical(compute(), on_reference(compute))

    def test_qd_ops_match_scalar_loop(self):
        x, y = random_cqd(13, size=6), random_cqd(14, size=6)
        xs, ys = x.to_scalars(), y.to_scalars()
        for op, apply in BINARY.items():
            got = apply(x, y).to_scalars()
            for mine, a, b in zip(got, xs, ys):
                want = apply(a, b)
                assert (mine.real.c, mine.imag.c) == (want.real.c, want.imag.c), op

    def test_dd_ops_match_scalar_loop(self):
        x, y = random_cdd(15, size=6), random_cdd(16, size=6)
        xs, ys = x.to_scalars(), y.to_scalars()
        for op, apply in BINARY.items():
            got = apply(x, y).to_scalars()
            for mine, a, b in zip(got, xs, ys):
                want = apply(a, b)
                assert (mine.real.hi, mine.real.lo, mine.imag.hi, mine.imag.lo) \
                    == (want.real.hi, want.real.lo, want.imag.hi, want.imag.lo), op

    @pytest.mark.parametrize("make", [random_cqd, random_cdd],
                             ids=["qd", "dd"])
    def test_accumulate_forms_match_expressions(self, make):
        acc, f, v = make(17), make(18), make(19)
        mask = np.arange(acc.size) % 2 == 0
        expected = on_reference(lambda: (acc + f * v, acc - f * v,
                                         type(acc).where(mask, acc + v, acc)))
        assert_identical(acc.copy().iadd_mul_(f, v), expected[0])
        assert_identical(acc.copy().isub_mul_(f, v), expected[1])
        assert_identical(acc.copy().iadd_where_(v, mask), expected[2])

    @pytest.mark.parametrize("backend", [COMPLEX_DD_BACKEND, COMPLEX_QD_BACKEND],
                             ids=lambda b: b.name)
    def test_backend_accumulates_with_scalar_weights(self, backend):
        make = random_cqd if backend.name == "qd" else random_cdd
        acc, f = make(20, size=8), make(21, size=8)
        weight = 0.3 - 1.7j
        for got, want in (
                (backend.iadd_mul(acc.copy(), f, weight), lambda: acc + f * weight),
                (backend.iadd_mul(acc.copy(), weight, f), lambda: acc + weight * f),
                (backend.isub_mul(acc.copy(), f, weight), lambda: acc - f * weight),
                (backend.isub_mul(acc.copy(), weight, f), lambda: acc - weight * f),
                (backend.iadd_mul(acc.copy(), 2.0, weight),
                 lambda: acc + 2.0 * weight)):
            assert_identical(got, on_reference(want))

    def test_mul_into_out_aliasing_an_operand(self):
        x, y = random_cqd(22), random_cqd(23)
        expected = x * y
        out = x.copy()
        out.assign_mul_(out, y)
        assert_identical(out, expected)
        u, w = random_cdd(22), random_cdd(23)
        expected = u * w
        out = w.copy()
        out.assign_mul_(u, out)
        assert_identical(out, expected)

    @pytest.mark.parametrize("kind", ["qd", "dd"])
    def test_complex_division_by_zero_raises_on_both_tiers(self, kind):
        x = random_cqd(24, size=5) if kind == "qd" else random_cdd(24, size=5)
        z = np.array([1 + 1j, 0j, 2 - 1j, 0j, 0j])
        y = type(x).from_complex128(z)
        pattern = f"Complex{kind.upper()}Array division by zero in 3 element"
        with pytest.raises(DivisionByZeroError, match=pattern):
            x / y
        with pytest.raises(DivisionByZeroError, match=pattern):
            on_reference(lambda: x / y)

    def test_kernels_report_zero_denominator_lanes(self):
        x = random_cqd(25, size=4)
        y = ComplexQDArray.from_complex128(np.array([0j, 1j, 0j, 1.0]))
        out = tuple(np.empty(4) for _ in range(8))
        assert compiled.run("cqd_div", out + planes(x) + planes(y)) == 2

    @pytest.mark.parametrize("tier", ["kernels", "reference"])
    @pytest.mark.parametrize("op", sorted(BINARY))
    @pytest.mark.parametrize("kind", ["qd", "dd"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_adversarial_ops_match_scalar_loop(self, field, kind, op, tier):
        """The scalar types run the sequences the arrays run, in the
        kernels' operand order, on both array tiers."""
        make = adversarial_qd if kind == "qd" else adversarial_dd
        complex_type = ComplexQDArray if kind == "qd" else ComplexDDArray
        with np.errstate(all="ignore"):
            if field == "real":
                x, y = make(), make(3)
                if op == "div":
                    y = without_zero_lanes(y)
            else:
                x = complex_type(make(), make(3))
                y = complex_type(make(7), make(11))
                if op == "div":  # keep the lanes whose |y|^2 is not zero
                    live = planes(y.abs2())[0] != 0.0
                    y = complex_type(*(type(part).where(live, part, 1.0)
                                       for part in (y.real, y.imag)))
            compute = lambda: BINARY[op](x, y)  # noqa: E731
            got = compute() if tier == "kernels" else on_reference(compute)
            xs, ys = x.to_scalars(), y.to_scalars()
            for lane, (mine, a, b) in enumerate(zip(got.to_scalars(), xs, ys)):
                want = BINARY[op](a, b)
                assert same_floats(mine.components(), want.components()), lane


@pytest.mark.parametrize("tier", ["kernels", "reference"])
@pytest.mark.parametrize("backend", [COMPLEX128_BACKEND, COMPLEX_DD_BACKEND,
                                     COMPLEX_QD_BACKEND], ids=lambda b: b.name)
def test_backend_inplace_interface(backend, tier):
    """The backends' in-place accumulates land exactly the out-of-place
    expressions, through the kernels and through the reference chains."""
    rng = np.random.default_rng(20120521)
    z, w, f = (rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
               for _ in range(3))
    mask = np.array([True, False, True, False, True, True, False, False])

    def fresh(values):
        return backend.from_points([list(col) for col in values.T])

    def accumulate():
        return (backend.iadd(fresh(z), fresh(w)),
                backend.isub_mul(fresh(z), fresh(f), fresh(w)),
                backend.iadd_mul(fresh(z), fresh(f), fresh(w)),
                backend.iadd_masked(fresh(z), fresh(w), mask))

    got = accumulate() if tier == "kernels" else on_reference(accumulate)
    expected = on_reference(lambda: (
        fresh(z) + fresh(w),
        fresh(z) - fresh(f) * fresh(w),
        fresh(z) + fresh(f) * fresh(w),
        backend.where(mask, fresh(z) + fresh(w), fresh(z))))
    for mine, want in zip(got, expected, strict=True):
        assert_identical(backend.component_planes(mine),
                         backend.component_planes(want))


# ----------------------------------------------------------------------
# the reference renormalisation vs the scalar branch nest
# ----------------------------------------------------------------------
class TestReferenceRenorm:
    """The vectorised renorm of the reference chains -- the no-compiler
    path and the kernels' oracle -- against the scalar branch nest."""

    def test_renorms_match_scalar_on_adversarial_lanes(self):
        comps = [ADVERSARIAL[:, i].copy() for i in range(4)]
        extra = np.linspace(-1e-40, 1e-40, ADVERSARIAL.shape[0])
        with np.errstate(all="ignore"):
            vec4 = _renorm4(*comps)
            vec5 = _renorm5(*comps, extra)
        for lane in range(ADVERSARIAL.shape[0]):
            row = tuple(float(c[lane]) for c in comps)
            assert same_floats(tuple(float(c[lane]) for c in vec4),
                               scalar_renorm4(*row)), lane
            assert same_floats(tuple(float(c[lane]) for c in vec5),
                               scalar_renorm5(*row, float(extra[lane]))), lane

    @pytest.mark.parametrize("lead", [np.inf, np.nan])
    def test_non_finite_lead_keeps_the_lane(self, lead):
        with np.errstate(invalid="ignore"):
            out = _renorm4(np.array([lead]), np.array([7.0]),
                           np.array([8.0]), np.array([9.0]))
        assert same_floats(tuple(float(c[0]) for c in out),
                           (lead, 7.0, 8.0, 9.0))
        assert same_floats(scalar_renorm4(lead, 7.0, 8.0, 9.0),
                           (lead, 7.0, 8.0, 9.0))

    def test_constructor_keeps_non_finite_lanes_on_both_tiers(self):
        comps = (np.array([np.nan, np.inf, 1.0]), np.array([1.0, 2.0, 1e-17]),
                 np.array([2.0, 3.0, 0.0]), np.array([3.0, 4.0, 0.0]))

        def construct():
            with np.errstate(all="ignore"):
                return QDArray(*(c.copy() for c in comps))

        got = construct()
        assert_identical(got, on_reference(construct))
        assert np.isnan(got.c0[0]) and got.c1[0] == 1.0
        assert got.c0[1] == np.inf and got.c1[1] == 2.0

    def test_nan_error_advances_the_insertion_pointer(self):
        # quick_two_sum(1.0, NaN) leaves a NaN error, and the scalar nest's
        # `if s2 != 0.0` descends on NaN; the insertion must advance too.
        s = [np.array([1.0]), np.array([0.0]), np.array([0.0]), np.array([0.0])]
        with np.errstate(invalid="ignore"):
            ptr = _insert_lowest(s, np.array([0]), np.array([np.nan]))
        assert int(ptr[0]) == 1
        assert np.isnan(s[0][0]) and np.isnan(s[1][0])

    def test_zero_error_keeps_the_insertion_pointer(self):
        s = [np.array([1.0]), np.array([0.0]), np.array([0.0]), np.array([0.0])]
        ptr = _insert_lowest(s, np.array([0]), np.array([0.5]))
        assert int(ptr[0]) == 0  # 1.0 + 0.5 is exact: no error
        assert float(s[0][0]) == 1.5

    def test_mid_insertion_nan_matches_scalar(self):
        # A finite lead with an inner inf: the prologue makes NaN errors
        # that flow through the insertion loop.
        c = (1.0, 1e-20, np.inf, 1.0)

        def construct():
            with np.errstate(all="ignore"):
                return QDArray(*(np.array([v]) for v in c))

        with np.errstate(all="ignore"):
            vec = _renorm5(*(np.array([v]) for v in c), np.array([1.0]))
        assert same_floats(tuple(float(p[0]) for p in vec),
                           scalar_renorm5(*c, 1.0))
        assert_identical(construct(), on_reference(construct))
        assert same_floats(tuple(float(p[0]) for p in construct()._components()),
                           scalar_renorm4(*c))


@requires_kernels
class TestPlaneLayouts:
    def test_broadcast_scalar_operands(self):
        x = random_qd(26)
        scalar = np.broadcast_to(np.float64(0.3), x.shape)
        zero = np.broadcast_to(np.float64(0.0), x.shape)
        out = tuple(np.empty(x.shape) for _ in range(4))
        assert compiled.run("qd_mul", out + planes(x)
                            + (scalar, zero, zero, zero)) == 0
        assert_identical(out, on_reference(lambda: x * 0.3))
        cx = random_cqd(27)
        assert_identical(cx * (0.5 - 2j), on_reference(lambda: cx * (0.5 - 2j)))

    def test_two_dimensional_lane_arrays(self):
        x, y = random_qd(28, size=12), random_qd(29, size=12)
        x = QDArray(*(c.reshape(3, 4) for c in x._components()))
        y = QDArray(*(c.reshape(3, 4) for c in y._components()))
        assert_identical(x * y, on_reference(lambda: x * y))

    def test_unfit_layouts_fall_back_to_the_reference(self):
        # Three dimensions whose leading two do not collapse into one step.
        x = QDArray(*(c.reshape(2, 4, 3) for c in random_qd(30)._components()))
        y = QDArray(*(c.reshape(2, 4, 3) for c in random_qd(31)._components()))
        strided, other = x[:, :2], y[:, :2]
        assert strided.c0.strides == (96, 24, 8)
        out = tuple(np.empty(strided.shape) for _ in range(4))
        assert compiled.run("qd_add", out + planes(strided)
                            + planes(other)) is None
        assert_identical(strided + other,
                         on_reference(lambda: strided + other))
        # An output must have the lane shape: (6,) does not broadcast up.
        row = QDArray(*(c[:6] for c in random_qd(32)._components()))
        flat = QDArray(*(c.reshape(4, 6) for c in random_qd(33)._components()))
        out = tuple(np.empty(row.shape) for _ in range(4))
        assert compiled.run("qd_add", out + planes(row) + planes(flat)) is None
        assert_identical(row + flat, on_reference(lambda: row + flat))

    def test_two_dimensional_strided_planes_run_the_kernels(self):
        x = QDArray(*(c.reshape(4, 6) for c in random_qd(30)._components()))
        y = QDArray(*(c.reshape(4, 6) for c in random_qd(31)._components()))
        strided, other = x[:, ::2], y[:, ::2]
        out = tuple(np.empty(strided.shape) for _ in range(4))
        assert compiled.run("qd_add", out + planes(strided)
                            + planes(other)) == 0
        assert_identical(out, on_reference(lambda: strided + other))

    def test_an_output_whose_lanes_share_elements_declines(self):
        from numpy.lib.stride_tricks import as_strided

        x = QDArray(*(c[:6].reshape(2, 3) for c in
                      random_qd(36)._components()))
        out = tuple(as_strided(np.zeros(4), shape=(2, 3), strides=(8, 8),
                               writeable=True) for _ in range(4))
        assert compiled.run("qd_add", out + planes(x) + planes(x)) is None

    def test_inputs_broadcast_along_the_leading_axis(self):
        # The secant predictor's (n, B) difference times its (B,) ratios.
        x = ComplexQDArray(*(QDArray(*(c.reshape(4, 6) for c in
                                       random_qd(seed)._components()))
                             for seed in (34, 35)))
        live = x[:, np.array([0, 2, 3, 5])]
        ratio = np.linspace(0.1, 0.9, 4)
        out = tuple(np.empty(live.shape) for _ in range(8))
        assert compiled.run("cqd_mul", out + planes(live)
                            + planes(ComplexQDArray.from_complex128(
                                ratio.astype(np.complex128)))) == 0
        assert_identical(out, on_reference(lambda: live * ratio))
        row = x[0]
        assert_identical(x * row, on_reference(lambda: x * row))

    def test_rows_of_a_lane_gather_run_the_kernels(self):
        # NumPy lays out `x[:, idx]` column-major, so every row the batched
        # Newton corrector's evaluation plan multiplies is a strided plane.
        x = ComplexQDArray(*(QDArray(*(c.reshape(4, 6) for c in
                                       random_qd(seed)._components()))
                             for seed in (32, 33)))
        live = x[:, np.array([0, 2, 3, 5])]
        a, b = live[0], live[1]
        assert a.real.c0.strides == (4 * 8,)
        out = tuple(np.empty(a.shape) for _ in range(8))
        assert compiled.run("cqd_mul", out + planes(a) + planes(b)) == 0
        assert_identical(out, on_reference(lambda: a * b))

    def test_reversed_input_runs_the_kernels(self):
        x, y = random_qd(33), random_qd(34)
        back = x[::-1]
        out = tuple(np.empty(x.shape) for _ in range(4))
        assert compiled.run("qd_add", out + planes(back) + planes(y)) == 0
        assert_identical(out, on_reference(lambda: back + y))

    def test_output_may_be_the_same_plane_as_an_input(self):
        x, y = random_qd(34), random_qd(35)
        expected = x + y
        assert compiled.run("qd_add", planes(x) + planes(x) + planes(y)) == 0
        assert_identical(x, expected)

    @pytest.mark.parametrize("make", [random_qd, random_dd, random_cqd,
                                      random_cdd],
                             ids=["qd", "dd", "cqd", "cdd"])
    def test_overlapping_inplace_operands(self, make):
        x = make(36)
        acc = x.copy()
        acc[1:].iadd_(acc[:-1])
        assert_identical(acc[1:], on_reference(lambda: x[1:] + x[:-1]))
        acc = x.copy()
        acc.iadd_(acc[::-1])
        assert_identical(acc, on_reference(lambda: x + x[::-1]))
        acc = x.copy()
        acc[4:8].iadd_(acc[5:1:-1])
        assert_identical(acc[4:8], on_reference(lambda: x[4:8] + x[5:1:-1]))

    def test_shifted_out_of_mul_into(self):
        buffer, y = random_cqd(37, size=25), random_cqd(38, size=24)
        x, out = buffer[:-1], buffer[1:]
        expected = on_reference(lambda: x * y)
        assert compiled.run("cqd_mul", planes(out) + planes(x)
                            + planes(y)) is None
        out.assign_mul_(x, y)
        assert_identical(out, expected)


# ----------------------------------------------------------------------
# the no-compiler path end to end
# ----------------------------------------------------------------------
def solve_katsura3_to_qd():
    """katsura-3 up the default d -> dd -> qd ladder to a tolerance only
    the qd rung reaches."""
    return solve_system(get_scenario("katsura-3").build_system(),
                        options=TrackerOptions(end_tolerance=1e-40,
                                               end_iterations=12),
                        escalation=EscalationPolicy())


def report_key(report) -> tuple:
    """Points (every component, via the exact repr), residuals and
    multiplicities, plus the per-rung accounting."""
    solutions = tuple((tuple(repr(x) for x in s.point), s.residual,
                       s.multiplicity) for s in report.solutions)
    return (solutions, report.paths_converged, len(report.failures),
            dict(report.paths_by_context), dict(report.converged_by_context))


@requires_kernels
def test_reference_fallback_gives_identical_qd_solve(monkeypatch):
    compiled_report = solve_katsura3_to_qd()
    assert compiled_report.converged_by_context["qd"] > 0
    monkeypatch.setattr(compiled, "KERNELS", None)
    assert report_key(solve_katsura3_to_qd()) == report_key(compiled_report)


# ----------------------------------------------------------------------
# build and cache
# ----------------------------------------------------------------------
@requires_gcc
class TestBuildCache:
    def test_cache_hit_does_not_rebuild(self, tmp_path, monkeypatch):
        first = compiled.load_kernels(directory=tmp_path)
        assert first is not None
        built = sorted(tmp_path.iterdir())
        assert len(built) == 1

        def no_build(*args):
            raise AssertionError("rebuilt on a cache hit")

        monkeypatch.setattr(compiled, "_build", no_build)
        again = compiled.load_kernels(directory=tmp_path)
        assert again is not None and hasattr(again, "cqd_mul")
        assert sorted(tmp_path.iterdir()) == built

    def test_corrupt_cached_file_is_rebuilt(self, tmp_path, monkeypatch):
        code = compiled.SOURCE.read_bytes()
        target = tmp_path / f"_kernels-{compiled._cache_key(code)}" \
                            f"{compiled._SUFFIX}"
        target.write_bytes(b"\x7fELF truncated")
        builds = []
        real_build = compiled._build
        monkeypatch.setattr(compiled, "_build",
                            lambda code, target: (builds.append(target),
                                                  real_build(code, target)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            module = compiled.load_kernels(directory=tmp_path)
        assert module is not None and hasattr(module, "cqd_mul")
        assert builds == [target]
        assert sorted(tmp_path.iterdir()) == [target]
        assert target.stat().st_size > 1000

    def test_changed_source_rebuilds(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        compiled.load_kernels(directory=cache)
        source = tmp_path / "_kernels.c"
        source.write_text(compiled.SOURCE.read_text() + "\n/* changed */\n")
        builds = []
        real_build = compiled._build
        monkeypatch.setattr(compiled, "_build",
                            lambda code, target: (builds.append(target),
                                                  real_build(code, target)))
        module = compiled.load_kernels(source=source, directory=cache)
        assert module is not None and len(builds) == 1
        assert len(list(cache.iterdir())) == 2

    def test_failed_compile_warns_and_falls_back(self, tmp_path):
        source = tmp_path / "_kernels.c"
        source.write_text("#error deliberately broken\n")
        with pytest.warns(RuntimeWarning, match="reference chains"):
            module = compiled.load_kernels(source=source,
                                           directory=tmp_path / "cache")
        assert module is None
        assert list((tmp_path / "cache").iterdir()) == []


def test_missing_kernels_run_the_reference(monkeypatch):
    x = random_cqd(32, size=3)
    expected = x * x
    monkeypatch.setattr(compiled, "KERNELS", None)
    out = tuple(np.empty(3) for _ in range(8))
    assert compiled.run("cqd_mul", out + planes(x) + planes(x)) is None
    assert_identical(x * x, expected)


# ----------------------------------------------------------------------
# hypothesis layer (the seeded tests above always run)
# ----------------------------------------------------------------------
if HAVE_HYPOTHESIS:
    component = st.floats(min_value=-1e30, max_value=1e30,
                          allow_nan=False, allow_infinity=False)
    special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan,
                               SPLIT_THRESHOLD * 2, 1e-310])
    any_component = st.one_of(component, special)

    @requires_kernels
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(any_component, any_component,
                              any_component, any_component),
                    min_size=1, max_size=8))
    def test_hypothesis_kernels_match_reference(rows):
        comps = np.array(rows)
        with np.errstate(all="ignore"):
            x = QDArray(*(comps[:, i].copy() for i in range(4)))
            y = QDArray(*(np.roll(comps, 1, axis=0)[:, i].copy()
                          for i in range(4)))
            z = ComplexQDArray(x, y)
            for apply in (lambda a, b: a + b, lambda a, b: a * b):
                for a, b in ((x, y), (z, z)):
                    compute = lambda: apply(a, b)  # noqa: E731
                    assert_identical(compute(), on_reference(compute))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(any_component, any_component,
                              any_component, any_component),
                    min_size=1, max_size=8))
    def test_hypothesis_renorm_matches_scalar(rows):
        comps = np.array(rows)
        with np.errstate(all="ignore"):
            reference = _renorm4(*(comps[:, i].copy() for i in range(4)))
            constructed = QDArray(*(comps[:, i].copy() for i in range(4)))
        for lane, row in enumerate(rows):
            want = scalar_renorm4(*row)
            assert same_floats(tuple(float(c[lane]) for c in reference), want)
            assert same_floats(tuple(float(c[lane])
                                     for c in constructed._components()), want)
