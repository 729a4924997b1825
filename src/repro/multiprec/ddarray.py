"""Vectorised double-double arrays.

The scalar classes in :mod:`repro.multiprec.double_double` are convenient but
slow in pure Python.  For the cost-factor experiments (the paper's "overhead
of double double arithmetic is around 8" observation) and for the multicore
CPU baseline we need bulk double-double arithmetic on NumPy arrays.

:class:`DDArray` stores an array of double-doubles as a pair of ``float64``
arrays ``(hi, lo)`` and implements element-wise arithmetic with exactly the
same operation sequences as the scalar class, so results are bit-for-bit equal
to looping over :class:`~repro.multiprec.double_double.DoubleDouble` scalars.

:class:`ComplexDDArray` pairs two :class:`DDArray` instances as the real and
imaginary parts, mirroring :class:`repro.multiprec.complex_dd.ComplexDD`.
"""

from __future__ import annotations

from typing import Iterable, Tuple, Union

import numpy as np

from ..errors import DivisionByZeroError
from . import compiled
from .compiled import apply, complex_chains
from .complex_dd import ComplexDD
from .double_double import DoubleDouble
from .eft import quick_two_sum, two_diff, two_prod, two_sum

__all__ = ["DDArray", "ComplexDDArray"]


# ----------------------------------------------------------------------
# reference chains on (hi, lo) plane pairs
# ----------------------------------------------------------------------
# The NumPy forms of the scalar DoubleDouble sequences.  They run when no
# compiled kernels are loaded (see repro.multiprec.compiled), when a plane
# layout does not fit the kernels, and as the kernels' test oracle.

def _dd_add_ref(x, y):
    s1, s2 = two_sum(x[0], y[0])
    t1, t2 = two_sum(x[1], y[1])
    s2 = s2 + t1
    s1, s2 = quick_two_sum(s1, s2)
    s2 = s2 + t2
    return quick_two_sum(s1, s2)


def _dd_sub_ref(x, y):
    s1, s2 = two_diff(x[0], y[0])
    t1, t2 = two_diff(x[1], y[1])
    s2 = s2 + t1
    s1, s2 = quick_two_sum(s1, s2)
    s2 = s2 + t2
    return quick_two_sum(s1, s2)


def _dd_mul_ref(x, y):
    p1, p2 = two_prod(x[0], y[0])
    p2 = p2 + (x[0] * y[1] + x[1] * y[0])
    return quick_two_sum(p1, p2)


def _dd_div_ref(x, y):
    """Iterated-correction division with three quotient terms."""
    q1 = x[0] / y[0]
    z = np.zeros_like(q1)
    r = _dd_sub_ref(x, _dd_mul_ref(y, (q1, z)))
    q2 = r[0] / y[0]
    r = _dd_sub_ref(r, _dd_mul_ref(y, (q2, z)))
    q3 = r[0] / y[0]
    return _dd_add_ref(quick_two_sum(q1, q2), (q3, z))


_complex_add, _complex_sub, _complex_mul, _complex_div = complex_chains(
    _dd_add_ref, _dd_sub_ref, _dd_mul_ref, _dd_div_ref, "ComplexDDArray")


def _planes(z: "ComplexDDArray") -> tuple:
    """The four planes of a complex array: ``(re_hi, re_lo, im_hi, im_lo)``."""
    return z.real.hi, z.real.lo, z.imag.hi, z.imag.lo


def _complex_op(kernel: str, reference, x: "ComplexDDArray",
                y: "ComplexDDArray") -> "ComplexDDArray":
    return complex_dd_from_planes(apply(kernel, reference, _planes(x),
                                        _planes(y)))


def complex_dd_raw(real: "DDArray", imag: "DDArray") -> "ComplexDDArray":
    """Wrap two DDArrays without the constructor's shape validation."""
    out = object.__new__(ComplexDDArray)
    out.real = real
    out.imag = imag
    return out


def complex_dd_from_planes(planes) -> "ComplexDDArray":
    """View four planes ``(re_hi, re_lo, im_hi, im_lo)`` as a ComplexDDArray."""
    return complex_dd_raw(_raw(planes[0], planes[1]),
                          _raw(planes[2], planes[3]))


def dd_mul_operand(x: "ComplexDDArray", other) -> "ComplexDDArray":
    """The coerced right operand of ``x * other``, allocation-free for
    Python scalars.

    Bit-for-bit with :meth:`ComplexDDArray._coerce`: a Python scalar there
    becomes ``np.full`` planes renormalised through ``two_sum(v, 0)`` by
    ``DDArray.__init__``; here the same two_sum runs once on 0-d values and
    the results broadcast as read-only views -- every element carries the
    identical bits, and the multiply kernels only read operand planes.
    """
    if isinstance(other, ComplexDDArray):
        return other
    if isinstance(other, (int, float, complex)) and not isinstance(other, bool):
        z = complex(other)
        shape = x.shape
        re_hi, re_lo = two_sum(np.float64(z.real), np.float64(0.0))
        im_hi, im_lo = two_sum(np.float64(z.imag), np.float64(0.0))
        return complex_dd_raw(
            _raw(np.broadcast_to(re_hi, shape), np.broadcast_to(re_lo, shape)),
            _raw(np.broadcast_to(im_hi, shape), np.broadcast_to(im_lo, shape)))
    return x._coerce(other)


def complex_dd_mul_into(out: "ComplexDDArray", x: "ComplexDDArray",
                        y: "ComplexDDArray") -> "ComplexDDArray":
    """``out := x * y``, bit-for-bit with ``ComplexDDArray.__mul__``;
    ``out`` may alias either operand."""
    apply("cdd_mul", _complex_mul, _planes(x), _planes(y), out=_planes(out))
    return out


class DDArray:
    """An n-dimensional array of double-double reals stored as (hi, lo).

    Parameters
    ----------
    hi / lo:
        Component planes (``lo`` defaults to zeros).  The constructor
        renormalises element-wise (one ``two_sum``) so the double-double
        invariant ``|lo| <= ulp(hi)/2`` holds; use the arithmetic results
        directly to stay bit-for-bit with the scalar
        :class:`~repro.multiprec.double_double.DoubleDouble` loops.

    Raises
    ------
    ValueError
        When the two planes disagree in shape.
    """

    __slots__ = ("hi", "lo")

    def __init__(self, hi: np.ndarray, lo: Union[np.ndarray, None] = None):
        hi = np.asarray(hi, dtype=np.float64)
        if lo is None:
            lo = np.zeros_like(hi)
        else:
            lo = np.asarray(lo, dtype=np.float64)
        if hi.shape != lo.shape:
            raise ValueError(f"hi/lo shape mismatch: {hi.shape} vs {lo.shape}")
        # Normalise so the component invariant holds element-wise.
        s, e = two_sum(hi, lo)
        self.hi = s
        self.lo = e

    # ------------------------------------------------------------------
    # constructors / conversions
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, shape) -> "DDArray":
        return cls(np.zeros(shape), np.zeros(shape))

    @classmethod
    def ones(cls, shape) -> "DDArray":
        return cls(np.ones(shape), np.zeros(shape))

    @classmethod
    def from_float64(cls, values: np.ndarray) -> "DDArray":
        """Exact embedding of double-precision values."""
        values = np.asarray(values, dtype=np.float64)
        return cls(values.copy(), np.zeros_like(values))

    @classmethod
    def from_scalars(cls, values: Iterable[DoubleDouble]) -> "DDArray":
        values = list(values)
        hi = np.array([v.hi for v in values])
        lo = np.array([v.lo for v in values])
        return cls(hi, lo)

    def to_scalars(self) -> list:
        """Flatten to a list of :class:`DoubleDouble` scalars."""
        flat_hi = self.hi.ravel()
        flat_lo = self.lo.ravel()
        return [DoubleDouble(h, l) for h, l in zip(flat_hi, flat_lo)]

    def to_float64(self) -> np.ndarray:
        """Round each element to a hardware double."""
        return self.hi.copy()

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.hi.shape

    @property
    def size(self) -> int:
        return self.hi.size

    def __len__(self) -> int:
        return len(self.hi)

    def copy(self) -> "DDArray":
        out = object.__new__(DDArray)
        out.hi = self.hi.copy()
        out.lo = self.lo.copy()
        return out

    def __getitem__(self, idx) -> Union["DDArray", DoubleDouble]:
        hi = self.hi[idx]
        lo = self.lo[idx]
        if np.isscalar(hi) or hi.ndim == 0:
            return DoubleDouble(float(hi), float(lo))
        out = object.__new__(DDArray)
        out.hi = hi
        out.lo = lo
        return out

    def __setitem__(self, idx, value) -> None:
        value = _coerce(value, like=self.hi[idx])
        self.hi[idx] = value.hi
        self.lo[idx] = value.lo

    def __repr__(self) -> str:
        return f"DDArray(shape={self.shape})"

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __neg__(self) -> "DDArray":
        out = object.__new__(DDArray)
        out.hi = -self.hi
        out.lo = -self.lo
        return out

    def __add__(self, other) -> "DDArray":
        o = _coerce(other, like=self.hi)
        return _raw(*apply("dd_add", _dd_add_ref, (self.hi, self.lo),
                           (o.hi, o.lo)))

    __radd__ = __add__

    def __sub__(self, other) -> "DDArray":
        o = _coerce(other, like=self.hi)
        return _raw(*apply("dd_sub", _dd_sub_ref, (self.hi, self.lo),
                           (o.hi, o.lo)))

    def __rsub__(self, other) -> "DDArray":
        o = _coerce(other, like=self.hi)
        return o - self

    def __mul__(self, other) -> "DDArray":
        o = _coerce(other, like=self.hi)
        return _raw(*apply("dd_mul", _dd_mul_ref, (self.hi, self.lo),
                           (o.hi, o.lo)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "DDArray":
        o = _coerce(other, like=self.hi)
        # A normalised double-double is zero exactly when its hi component is
        # zero; dividing would silently fill the lane with inf/NaN.  NaN
        # denominators are *not* trapped: a NaN operand propagates
        # element-wise, poisoning only its own lane.
        if np.any(o.hi == 0.0):
            raise DivisionByZeroError(
                f"DDArray division by zero in "
                f"{int(np.count_nonzero(o.hi == 0.0))} element(s)"
            )
        return _raw(*apply("dd_div", _dd_div_ref, (self.hi, self.lo),
                           (o.hi, o.lo)))

    def __rtruediv__(self, other) -> "DDArray":
        o = _coerce(other, like=self.hi)
        return o / self

    def __pow__(self, exponent: int) -> "DDArray":
        if not isinstance(exponent, int) or exponent < 0:
            raise TypeError("DDArray only supports non-negative integer powers")
        result = DDArray.ones(self.shape)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # ------------------------------------------------------------------
    # in-place updates (see QDArray: bit-for-bit with the operators, with
    # the kernels writing this array's planes directly)
    # ------------------------------------------------------------------
    def iadd_(self, other) -> "DDArray":
        """In-place ``self += other`` (bit-for-bit with ``self + other``)."""
        o = _coerce(other, like=self.hi)
        planes = (self.hi, self.lo)
        apply("dd_add", _dd_add_ref, planes, (o.hi, o.lo), out=planes)
        return self

    def isub_(self, other) -> "DDArray":
        """In-place ``self -= other`` (bit-for-bit with ``self - other``)."""
        o = _coerce(other, like=self.hi)
        planes = (self.hi, self.lo)
        apply("dd_sub", _dd_sub_ref, planes, (o.hi, o.lo), out=planes)
        return self

    def iadd_where_(self, other, mask) -> "DDArray":
        """Masked in-place add: ``self = where(mask, self + other, self)``."""
        total = self + other
        mask = np.asarray(mask, dtype=bool)
        np.copyto(self.hi, total.hi, where=mask)
        np.copyto(self.lo, total.lo, where=mask)
        return self

    # ------------------------------------------------------------------
    # masked selection (the primitive behind per-path retirement in the
    # batched tracker: lanes are switched on and off without data movement)
    # ------------------------------------------------------------------
    @staticmethod
    def where(mask, a, b) -> "DDArray":
        """Element-wise select: ``a`` where ``mask`` is true, else ``b``.

        ``mask`` broadcasts against the operands (NumPy rules), so a per-lane
        mask of shape ``(B,)`` selects whole columns of ``(n, B)`` arrays.
        Scalars (:class:`DoubleDouble`, floats) broadcast like NumPy scalars.
        """
        mask = np.asarray(mask, dtype=bool)
        a_hi, a_lo = _components(a)
        b_hi, b_lo = _components(b)
        return _raw(np.where(mask, a_hi, b_hi), np.where(mask, a_lo, b_lo))

    def masked_fill(self, mask, value) -> "DDArray":
        """Copy with elements under ``mask`` replaced by ``value``."""
        return DDArray.where(mask, value, self)

    # ------------------------------------------------------------------
    # reductions and element-wise helpers
    # ------------------------------------------------------------------
    def sum(self, axis=None) -> Union["DDArray", DoubleDouble]:
        """Double-double accurate sum along ``axis`` (sequential pairing)."""
        if axis is None:
            total = DoubleDouble(0.0)
            for h, l in zip(self.hi.ravel(), self.lo.ravel()):
                total = total + DoubleDouble(h, l)
            return total
        moved_hi = np.moveaxis(self.hi, axis, 0)
        moved_lo = np.moveaxis(self.lo, axis, 0)
        acc = _raw(np.zeros(moved_hi.shape[1:]), np.zeros(moved_hi.shape[1:]))
        for i in range(moved_hi.shape[0]):
            acc = acc + _raw(moved_hi[i], moved_lo[i])
        return acc

    def abs(self) -> "DDArray":
        negative = (self.hi < 0) | ((self.hi == 0) & (self.lo < 0))
        out = object.__new__(DDArray)
        out.hi = np.where(negative, -self.hi, self.hi)
        out.lo = np.where(negative, -self.lo, self.lo)
        return out

    def abs_double(self) -> np.ndarray:
        """Per-element magnitude rounded to a hardware double."""
        return np.abs(self.hi + self.lo)

    def max_abs(self, axis=None) -> Union[float, np.ndarray]:
        """Largest magnitude, rounded to double (used for norms/tolerances).

        With ``axis`` the reduction runs along that axis and returns a float
        array -- the per-path infinity norms of a batch stored column-wise.
        """
        if axis is None:
            return float(np.max(self.abs_double())) if self.size else 0.0
        return np.max(self.abs_double(), axis=axis, initial=0.0)

    def allclose(self, other: "DDArray", tol: float = 1e-30) -> bool:
        diff = (self - other).abs()
        scale = max(self.max_abs(), other.max_abs(), 1.0)
        return diff.max_abs() <= tol * scale


def _raw(hi: np.ndarray, lo: np.ndarray) -> DDArray:
    out = object.__new__(DDArray)
    out.hi = hi
    out.lo = lo
    return out


def _components(value) -> Tuple[np.ndarray, np.ndarray]:
    """The (hi, lo) pair of anything coercible, without forcing a shape."""
    if isinstance(value, DDArray):
        return value.hi, value.lo
    if isinstance(value, DoubleDouble):
        return np.float64(value.hi), np.float64(value.lo)
    arr = np.asarray(value, dtype=np.float64)
    return arr, np.zeros_like(arr)


def _coerce(value, like) -> DDArray:
    """Coerce scalars/arrays to a DDArray broadcastable against ``like``."""
    if isinstance(value, DDArray):
        return value
    if isinstance(value, DoubleDouble):
        shape = np.shape(like)
        return _raw(np.full(shape, value.hi), np.full(shape, value.lo))
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape == ():
        shape = np.shape(like)
        return _raw(np.full(shape, float(arr)), np.zeros(shape))
    return DDArray.from_float64(arr)


class ComplexDDArray:
    """An array of complex double-doubles: a (real, imag) pair of DDArrays."""

    __slots__ = ("real", "imag")

    def __init__(self, real: DDArray, imag: Union[DDArray, None] = None):
        if not isinstance(real, DDArray):
            real = DDArray.from_float64(np.asarray(real, dtype=np.float64))
        if imag is None:
            imag = DDArray.zeros(real.shape)
        elif not isinstance(imag, DDArray):
            imag = DDArray.from_float64(np.asarray(imag, dtype=np.float64))
        if real.shape != imag.shape:
            raise ValueError("real/imag shape mismatch")
        self.real = real
        self.imag = imag

    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, shape) -> "ComplexDDArray":
        return cls(DDArray.zeros(shape), DDArray.zeros(shape))

    @classmethod
    def from_complex128(cls, values: np.ndarray) -> "ComplexDDArray":
        values = np.asarray(values, dtype=np.complex128)
        return cls(DDArray.from_float64(values.real), DDArray.from_float64(values.imag))

    @classmethod
    def from_scalars(cls, values: Iterable[ComplexDD]) -> "ComplexDDArray":
        values = list(values)
        real = DDArray.from_scalars([v.real for v in values])
        imag = DDArray.from_scalars([v.imag for v in values])
        return cls(real, imag)

    def to_scalars(self) -> list:
        reals = self.real.to_scalars()
        imags = self.imag.to_scalars()
        return [ComplexDD(r, i) for r, i in zip(reals, imags)]

    def to_complex128(self) -> np.ndarray:
        return self.real.to_float64() + 1j * self.imag.to_float64()

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.real.shape

    @property
    def size(self) -> int:
        return self.real.size

    def __len__(self) -> int:
        return len(self.real)

    def copy(self) -> "ComplexDDArray":
        return ComplexDDArray(self.real.copy(), self.imag.copy())

    def __getitem__(self, idx):
        r = self.real[idx]
        i = self.imag[idx]
        if isinstance(r, DoubleDouble):
            return ComplexDD(r, i)
        return ComplexDDArray(r, i)

    def __setitem__(self, idx, value) -> None:
        if isinstance(value, ComplexDD):
            self.real[idx] = value.real
            self.imag[idx] = value.imag
            return
        if isinstance(value, ComplexDDArray):
            self.real[idx] = value.real
            self.imag[idx] = value.imag
            return
        z = np.asarray(value, dtype=np.complex128)
        self.real[idx] = DDArray.from_float64(z.real) if z.ndim else DoubleDouble(float(z.real))
        self.imag[idx] = DDArray.from_float64(z.imag) if z.ndim else DoubleDouble(float(z.imag))

    def __repr__(self) -> str:
        return f"ComplexDDArray(shape={self.shape})"

    # ------------------------------------------------------------------
    def _coerce(self, other) -> "ComplexDDArray":
        if isinstance(other, ComplexDDArray):
            return other
        if isinstance(other, ComplexDD):
            shape = self.shape
            real = DDArray(np.full(shape, other.real.hi), np.full(shape, other.real.lo))
            imag = DDArray(np.full(shape, other.imag.hi), np.full(shape, other.imag.lo))
            return ComplexDDArray(real, imag)
        arr = np.asarray(other, dtype=np.complex128)
        if arr.shape == ():
            arr = np.full(self.shape, complex(arr))
        return ComplexDDArray.from_complex128(arr)

    def __neg__(self) -> "ComplexDDArray":
        return ComplexDDArray(-self.real, -self.imag)

    def __add__(self, other) -> "ComplexDDArray":
        return _complex_op("cdd_add", _complex_add, self, self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other) -> "ComplexDDArray":
        return _complex_op("cdd_sub", _complex_sub, self, self._coerce(other))

    def __rsub__(self, other) -> "ComplexDDArray":
        return _complex_op("cdd_sub", _complex_sub, self._coerce(other), self)

    def __mul__(self, other) -> "ComplexDDArray":
        return _complex_op("cdd_mul", _complex_mul, self,
                           dd_mul_operand(self, other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ComplexDDArray":
        return _complex_op("cdd_div", _complex_div, self, self._coerce(other))

    def __rtruediv__(self, other) -> "ComplexDDArray":
        return self._coerce(other) / self

    def __pow__(self, exponent: int) -> "ComplexDDArray":
        if not isinstance(exponent, int) or exponent < 0:
            raise TypeError("ComplexDDArray only supports non-negative integer powers")
        result = ComplexDDArray(DDArray.ones(self.shape), DDArray.zeros(self.shape))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # ------------------------------------------------------------------
    # in-place updates (see ComplexQDArray; bit-for-bit with the operators)
    # ------------------------------------------------------------------
    def iadd_(self, other) -> "ComplexDDArray":
        """In-place ``self += other``."""
        acc = _planes(self)
        apply("cdd_add", _complex_add, acc, _planes(self._coerce(other)),
              out=acc)
        return self

    def isub_(self, other) -> "ComplexDDArray":
        """In-place ``self -= other``."""
        acc = _planes(self)
        apply("cdd_sub", _complex_sub, acc, _planes(self._coerce(other)),
              out=acc)
        return self

    def iadd_mul_(self, factor, value) -> "ComplexDDArray":
        """In-place ``self += factor * value``, the product formed as the
        expression ``factor * value`` forms it once ``factor`` is coerced
        like this array's operands."""
        x = dd_mul_operand(self, factor)
        y = dd_mul_operand(x, value)
        if compiled.run("cdd_add_mul",
                        _planes(self) + _planes(x) + _planes(y)) is None:
            self.iadd_(x * y)
        return self

    def isub_mul_(self, factor, value) -> "ComplexDDArray":
        """In-place ``self -= factor * value`` (elimination inner loop)."""
        x = dd_mul_operand(self, factor)
        y = dd_mul_operand(x, value)
        if compiled.run("cdd_sub_mul",
                        _planes(self) + _planes(x) + _planes(y)) is None:
            self.isub_(x * y)
        return self

    def iadd_where_(self, other, mask) -> "ComplexDDArray":
        """Masked in-place add: ``self = where(mask, self + other, self)``."""
        o = self._coerce(other)
        mask = np.asarray(mask, dtype=bool)
        lanes = np.broadcast_to(mask, self.shape)
        if compiled.run("cdd_add_masked",
                        _planes(self) + _planes(o) + (lanes,)) is None:
            self.real.iadd_where_(o.real, mask)
            self.imag.iadd_where_(o.imag, mask)
        return self

    def sum(self, axis=None):
        """Sum of elements; returns :class:`ComplexDD` when ``axis is None``."""
        r = self.real.sum(axis=axis)
        i = self.imag.sum(axis=axis)
        if isinstance(r, DoubleDouble):
            return ComplexDD(r, i)
        return ComplexDDArray(r, i)

    @staticmethod
    def where(mask, a, b) -> "ComplexDDArray":
        """Element-wise select, broadcasting like :meth:`DDArray.where`."""
        a_re, a_im = _complex_parts(a)
        b_re, b_im = _complex_parts(b)
        return ComplexDDArray(DDArray.where(mask, a_re, b_re),
                              DDArray.where(mask, a_im, b_im))

    def masked_fill(self, mask, value) -> "ComplexDDArray":
        """Copy with elements under ``mask`` replaced by ``value``."""
        return ComplexDDArray.where(mask, value, self)

    def conjugate(self) -> "ComplexDDArray":
        return ComplexDDArray(self.real, -self.imag)

    def abs2(self) -> DDArray:
        return self.real * self.real + self.imag * self.imag

    def abs_double(self) -> np.ndarray:
        """Per-element magnitude rounded to a hardware double."""
        return np.abs(self.to_complex128())

    def max_abs(self, axis=None) -> Union[float, np.ndarray]:
        if axis is None:
            if self.size == 0:
                return 0.0
            return float(np.max(np.sqrt((self.abs2()).to_float64())))
        return np.max(np.sqrt(np.maximum((self.abs2()).to_float64(), 0.0)),
                      axis=axis, initial=0.0)

    def allclose(self, other: "ComplexDDArray", tol: float = 1e-30) -> bool:
        diff = self - other
        scale = max(self.max_abs(), other.max_abs(), 1.0)
        return diff.max_abs() <= tol * scale


def _complex_parts(value) -> Tuple[Union[DDArray, DoubleDouble], Union[DDArray, DoubleDouble]]:
    """Split anything coercible into (real, imag) usable by DDArray.where."""
    if isinstance(value, ComplexDDArray):
        return value.real, value.imag
    if isinstance(value, ComplexDD):
        return value.real, value.imag
    if isinstance(value, DDArray):
        return value, np.zeros_like(value.hi)
    if isinstance(value, DoubleDouble):
        return value, 0.0
    arr = np.asarray(value, dtype=np.complex128)
    return arr.real, arr.imag
