"""One conformance suite for the double-double and quad-double plane arrays.

:class:`~repro.multiprec.DDArray` / :class:`~repro.multiprec.QDArray` and
their complex pairings share one surface: element-wise arithmetic, masked
selection, indexing and the in-place updates of the batched engine.  Every
test here runs at both precisions and checks that surface against a loop
over the scalar types (:class:`DoubleDouble`, :class:`QuadDouble`,
:class:`ComplexDD`, :class:`ComplexQD`), whose operation sequences the
arrays replay bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DivisionByZeroError
from repro.multiprec import (
    ComplexDD,
    ComplexDDArray,
    ComplexQD,
    ComplexQDArray,
    DDArray,
    DoubleDouble,
    QDArray,
    QuadDouble,
)

#: (array type, scalar type, component planes) per precision.
REAL = [pytest.param((DDArray, DoubleDouble, 2), id="dd"),
        pytest.param((QDArray, QuadDouble, 4), id="qd")]
#: (complex array type, complex scalar type, real precision) per precision.
COMPLEX = [pytest.param((ComplexDDArray, ComplexDD, (DDArray, DoubleDouble, 2)),
                        id="dd"),
           pytest.param((ComplexQDArray, ComplexQD, (QDArray, QuadDouble, 4)),
                        id="qd")]

OPS = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
}


def bits(scalar) -> tuple:
    """The float components of a dd/qd scalar, real or complex, as hex."""
    if isinstance(scalar, (ComplexDD, ComplexQD)):
        return bits(scalar.real) + bits(scalar.imag)
    return tuple(float(c).hex() for c in scalar.components())


def assert_matches(array, expected) -> None:
    """``array`` holds exactly the scalars ``expected`` (row-major)."""
    got = array.to_scalars()
    assert len(got) == len(expected)
    for lane, (g, e) in enumerate(zip(got, expected)):
        assert bits(g) == bits(e), lane


def real_array(spec, seed: int, shape=(6,)):
    """A real array with every component plane populated."""
    array_type, _, width = spec
    rng = np.random.default_rng(seed)
    lead = rng.normal(size=shape)
    return array_type(*(lead * 10.0 ** (-17 * k) * rng.uniform(0.5, 1.0, shape)
                        for k in range(width)))


def complex_array(spec, seed: int, shape=(6,)):
    array_type, _, real_spec = spec
    return array_type(real_array(real_spec, seed, shape),
                      real_array(real_spec, seed + 100, shape))


def column_gather(make, spec, seed: int):
    """``x[:, idx]`` of a (3, 5) array: column-major gathered planes."""
    x = make(spec, seed, (3, 5))
    return x, x[:, np.array([4, 0, 3])]


# ----------------------------------------------------------------------
# real arrays
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", REAL)
class TestRealSurface:
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_binary_ops_match_scalar_loop(self, spec, op):
        _, scalar_type, _ = spec
        x, y = real_array(spec, 1), real_array(spec, 2)
        xs, ys = x.to_scalars(), y.to_scalars()
        assert_matches(OPS[op](x, y), [OPS[op](a, b) for a, b in zip(xs, ys)])
        weight = scalar_type(0.625)
        assert_matches(OPS[op](x, weight), [OPS[op](a, weight) for a in xs])
        assert_matches(OPS[op](x, 1.75), [OPS[op](a, 1.75) for a in xs])

    def test_reflected_ops_match_scalar_loop(self, spec):
        _, scalar_type, _ = spec
        x = real_array(spec, 3)
        xs = x.to_scalars()
        # A reflected product multiplies the array by the scalar.
        for value in (0.75, scalar_type(-2.5) + scalar_type(1e-18)):
            assert_matches(value - x, [value - a for a in xs])
            assert_matches(value + x, [a + value for a in xs])
            assert_matches(value * x, [a * value for a in xs])
            assert_matches(value / x, [value / a for a in xs])

    def test_where_and_masked_fill_with_scalar_operands(self, spec):
        array_type, scalar_type, _ = spec
        x = real_array(spec, 4)
        xs = x.to_scalars()
        mask = np.array([True, False, False, True, True, False])
        for value in (scalar_type(1.5) + scalar_type(1e-20), -3.0):
            fill = value if isinstance(value, scalar_type) else scalar_type(value)
            chosen = [fill if m else a for m, a in zip(mask, xs)]
            assert_matches(array_type.where(mask, value, x), chosen)
            assert_matches(x.masked_fill(mask, value), chosen)
            assert_matches(array_type.where(~mask, x, value), chosen)

    def test_inplace_ops_on_column_gathers(self, spec):
        x, gathered = column_gather(real_array, spec, 5)
        before = x.to_scalars()
        y = real_array(spec, 6, (3, 3))
        gs, ys = gathered.to_scalars(), y.to_scalars()
        assert_matches(gathered.copy().iadd_(y), [a + b for a, b in zip(gs, ys)])
        assert_matches(gathered.copy().isub_(y), [a - b for a, b in zip(gs, ys)])
        lanes = np.array([True, False, True])
        mask = np.broadcast_to(lanes, (3, 3)).ravel()
        assert_matches(gathered.iadd_where_(y, lanes),
                       [a + b if m else a for a, b, m in zip(gs, ys, mask)])
        assert [bits(s) for s in x.to_scalars()] == [bits(s) for s in before]

    def test_division_by_an_exact_zero_lane_raises(self, spec):
        array_type, _, _ = spec
        x, y = real_array(spec, 7), real_array(spec, 8)
        y[2] = 0.0
        pattern = f"{array_type.__name__} division by zero in 1 element"
        with pytest.raises(DivisionByZeroError, match=pattern):
            x / y
        with pytest.raises(DivisionByZeroError, match=pattern):
            1.0 / y

    def test_indexing_and_elementwise_helpers_match_scalars(self, spec):
        array_type, scalar_type, _ = spec
        x = real_array(spec, 9)
        xs = x.to_scalars()
        assert isinstance(x[3], scalar_type) and bits(x[3]) == bits(xs[3])
        value = scalar_type(-0.5) + scalar_type(3e-19)
        x[1] = value
        assert bits(x[1]) == bits(value)
        xs = x.to_scalars()
        assert_matches(-x, [-a for a in xs])
        assert_matches(x ** 3, [a ** 3 for a in xs])
        assert_matches(x.abs(), [abs(a) for a in xs])
        total = scalar_type(0.0)
        for a in xs:
            total = total + a
        assert bits(x.sum()) == bits(total)
        assert_matches(array_type.from_scalars(xs), xs)


# ----------------------------------------------------------------------
# complex arrays
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", COMPLEX)
class TestComplexSurface:
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_binary_ops_match_scalar_loop(self, spec, op):
        _, scalar_type, _ = spec
        x, y = complex_array(spec, 11), complex_array(spec, 12)
        xs, ys = x.to_scalars(), y.to_scalars()
        assert_matches(OPS[op](x, y), [OPS[op](a, b) for a, b in zip(xs, ys)])
        weight = 0.3 - 1.7j
        scalar = scalar_type(weight)
        assert_matches(OPS[op](x, weight), [OPS[op](a, scalar) for a in xs])
        assert_matches(OPS[op](x, ys[2]), [OPS[op](a, ys[2]) for a in xs])

    def test_rsub_matches_scalar_loop(self, spec):
        _, scalar_type, _ = spec
        x = complex_array(spec, 13)
        xs = x.to_scalars()
        assert_matches((2.5 - 0.5j) - x,
                       [scalar_type(2.5 - 0.5j) - a for a in xs])
        assert_matches(xs[4] - x, [xs[4] - a for a in xs])
        assert_matches(x.__rsub__(complex_array(spec, 14)),
                       [b - a for a, b in zip(xs,
                                              complex_array(spec, 14).to_scalars())])

    def test_where_and_masked_fill_with_scalar_operands(self, spec):
        array_type, scalar_type, _ = spec
        x = complex_array(spec, 15)
        xs = x.to_scalars()
        mask = np.array([False, True, True, False, True, False])
        for value, fill in ((xs[0], xs[0]),
                            (1.5 - 2j, scalar_type(1.5 - 2j)),
                            (-0.25, scalar_type(-0.25 + 0j))):
            chosen = [fill if m else a for m, a in zip(mask, xs)]
            assert_matches(array_type.where(mask, value, x), chosen)
            assert_matches(x.masked_fill(mask, value), chosen)
            assert_matches(array_type.where(~mask, x, value), chosen)

    def test_setitem_with_scalars_and_zero_d_complex(self, spec):
        _, scalar_type, _ = spec
        x = complex_array(spec, 16, (2, 3))
        x[1, 2] = np.asarray(0.3 - 2.5j)
        assert bits(x[1, 2]) == bits(scalar_type(0.3 - 2.5j))
        x[0, 0] = np.complex128(-4.0 + 0.125j)
        assert bits(x[0, 0]) == bits(scalar_type(-4.0 + 0.125j))
        value = x[1, 0] * x[0, 1]
        x[0, 2] = value
        assert bits(x[0, 2]) == bits(value)

    def test_inplace_ops_on_column_gathers(self, spec):
        x, gathered = column_gather(complex_array, spec, 17)
        before = x.to_scalars()
        f, v = complex_array(spec, 18, (3, 3)), complex_array(spec, 19, (3, 3))
        gs, fs, vs = gathered.to_scalars(), f.to_scalars(), v.to_scalars()
        assert_matches(gathered.copy().iadd_(v), [a + b for a, b in zip(gs, vs)])
        assert_matches(gathered.copy().isub_(v), [a - b for a, b in zip(gs, vs)])
        assert_matches(gathered.copy().iadd_mul_(f, v),
                       [a + p * q for a, p, q in zip(gs, fs, vs)])
        assert_matches(gathered.copy().isub_mul_(f, v),
                       [a - p * q for a, p, q in zip(gs, fs, vs)])
        weight = 0.5 + 0.25j
        scalar = spec[1](weight)
        assert_matches(gathered.copy().isub_mul_(weight, v),
                       [a - scalar * q for a, q in zip(gs, vs)])
        lanes = np.array([False, True, True])
        mask = np.broadcast_to(lanes, (3, 3)).ravel()
        assert_matches(gathered.iadd_where_(v, lanes),
                       [a + b if m else a for a, b, m in zip(gs, vs, mask)])
        assert [bits(s) for s in x.to_scalars()] == [bits(s) for s in before]

    def test_division_by_an_exact_zero_lane_raises(self, spec):
        array_type, scalar_type, _ = spec
        x, y = complex_array(spec, 20), complex_array(spec, 21)
        y[4] = scalar_type(0j)
        pattern = f"{array_type.__name__} division by zero in 1 element"
        with pytest.raises(DivisionByZeroError, match=pattern):
            x / y
        with pytest.raises(DivisionByZeroError, match=pattern):
            (1 + 1j) / y

    def test_magnitudes_whose_squares_leave_the_range(self, spec):
        array_type = spec[0]
        values = np.array([[1e200 + 1e200j, 3.0 - 4.0j],
                           [1e-200j, -1e300 + 0j]])
        x = array_type.from_complex128(values)
        assert x.allclose(x) and x.allclose(x.copy())
        assert x.max_abs() == np.max(np.abs(values))
        for axis in (0, 1):
            assert np.array_equal(x.max_abs(axis=axis),
                                  np.max(np.abs(values), axis=axis))

    def test_elementwise_helpers_match_scalars(self, spec):
        array_type, scalar_type, _ = spec
        x = complex_array(spec, 22)
        xs = x.to_scalars()
        assert_matches(-x, [-a for a in xs])
        assert_matches(x.conjugate(), [a.conjugate() for a in xs])
        assert_matches(x ** 2, [scalar_type(1.0) * (a * a) for a in xs])
        total = scalar_type(0j)
        for a in xs:
            total = total + a
        assert bits(x.sum()) == bits(total)
        assert_matches(array_type.from_scalars(xs), xs)
        assert isinstance(x[5], scalar_type) and bits(x[5]) == bits(xs[5])
