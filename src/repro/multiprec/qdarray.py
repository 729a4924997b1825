"""Vectorised quad-double arrays.

:class:`QDArray` is the quad-double sibling of
:class:`~repro.multiprec.ddarray.DDArray`: an array of quad-doubles stored as
four ``float64`` planes ``(c0, c1, c2, c3)``, one per expansion component.
Element-wise arithmetic executes exactly the operation sequences of the
scalar :class:`~repro.multiprec.quad_double.QuadDouble` (QD 2.3.9's sloppy
add/mul and iterated-correction division), so results are bit-for-bit equal
to looping over scalars -- the invariant the batched tracker's differential
tests rely on.

Every operation runs through the compiled plane kernels of
:mod:`repro.multiprec.compiled` when they are loaded.  The NumPy reference
chains below execute the same sequences; they run when no kernels could be
built, when a plane layout does not fit the kernels, and as the test oracle.

The only non-trivial vectorisation of the reference chains is the QD
renormalisation, whose scalar form is a nest of data-dependent branches.
Those branches implement a *compaction*: the values ``c2, c3, (c4)`` are
inserted one after another at the lowest non-zero slot of the expansion.
The vectorised form tracks that slot per element with an integer ``ptr``
array and realises each insertion with masked selects, which reproduces the
scalar branch tree exactly (see :func:`_insert_lowest`).

:class:`ComplexQDArray` pairs two :class:`QDArray` instances, mirroring
:class:`~repro.multiprec.numeric.ComplexQD`.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple, Union

import numpy as np

from ..errors import DivisionByZeroError
from . import compiled
from .compiled import apply, complex_chains
from .eft import quick_two_sum, two_prod, two_sum
from .numeric import ComplexQD
from .quad_double import QuadDouble

__all__ = ["QDArray", "ComplexQDArray"]


# ----------------------------------------------------------------------
# vectorised renormalisation (QD's renorm, branch tree flattened)
# ----------------------------------------------------------------------
def _three_sum(a, b, c):
    t1, t2 = two_sum(a, b)
    a, t3 = two_sum(c, t1)
    b, c = two_sum(t2, t3)
    return a, b, c


def _three_sum2(a, b, c):
    t1, t2 = two_sum(a, b)
    a, t3 = two_sum(c, t1)
    return a, t2 + t3


def _insert_lowest(s: List[np.ndarray], ptr: np.ndarray, u: np.ndarray
                   ) -> np.ndarray:
    """Insert ``u`` at each element's lowest non-zero slot of the expansion.

    This is the vectorised form of the scalar renormalisation's branch nest:
    ``s[ptr], e = quick_two_sum(s[ptr], u); s[ptr+1] = e`` and the pointer
    advances only when the error ``e`` is non-zero.  Elements whose pointer
    already sits at the last slot just accumulate ``u`` there (the scalar
    ``s3 += c4`` leaf).  Mutates ``s`` in place and returns the new pointer.
    """
    error = np.zeros_like(u)
    for slot in range(3):
        mask = ptr == slot
        summed, e = quick_two_sum(s[slot], u)
        s[slot] = np.where(mask, summed, s[slot])
        s[slot + 1] = np.where(mask, e, s[slot + 1])
        error = np.where(mask, e, error)
    full = ptr == 3
    s[3] = np.where(full, s[3] + u, s[3])
    return np.where(full, ptr, ptr + (error != 0.0))


def _renorm4(c0, c1, c2, c3) -> Tuple[np.ndarray, ...]:
    """Element-wise QD ``renorm`` of four doubles (matches the scalar).

    Non-finite leading components (inf *and* NaN, like the scalar renorm's
    guard) are kept untouched: compacting a poisoned expansion through the
    insertion logic would only scramble which slots carry the NaNs.
    """
    keep = ~np.isfinite(c0)
    s0, t3 = quick_two_sum(c2, c3)
    s0, t2 = quick_two_sum(c1, s0)
    r0, r1 = quick_two_sum(c0, s0)

    s = [r0, r1, np.zeros_like(r0), np.zeros_like(r0)]
    ptr = (r1 != 0.0).astype(np.int64)
    ptr = _insert_lowest(s, ptr, t2)
    _insert_lowest(s, ptr, t3)
    return (np.where(keep, c0, s[0]), np.where(keep, c1, s[1]),
            np.where(keep, c2, s[2]), np.where(keep, c3, s[3]))


def _renorm5(c0, c1, c2, c3, c4) -> Tuple[np.ndarray, ...]:
    """Element-wise QD ``renorm`` of five doubles (matches the scalar).

    See :func:`_renorm4` for the non-finite (inf/NaN) guard.
    """
    keep = ~np.isfinite(c0)
    s0, t4 = quick_two_sum(c3, c4)
    s0, t3 = quick_two_sum(c2, s0)
    s0, t2 = quick_two_sum(c1, s0)
    r0, r1 = quick_two_sum(c0, s0)

    s = [r0, r1, np.zeros_like(r0), np.zeros_like(r0)]
    ptr = (r1 != 0.0).astype(np.int64)
    ptr = _insert_lowest(s, ptr, t2)
    ptr = _insert_lowest(s, ptr, t3)
    _insert_lowest(s, ptr, t4)
    return (np.where(keep, c0, s[0]), np.where(keep, c1, s[1]),
            np.where(keep, c2, s[2]), np.where(keep, c3, s[3]))


def _add_planes_ref(x, y) -> Tuple[np.ndarray, ...]:
    """The reference QD ``sloppy_add`` on component planes."""
    s0, t0 = two_sum(x[0], y[0])
    s1, t1 = two_sum(x[1], y[1])
    s2, t2 = two_sum(x[2], y[2])
    s3, t3 = two_sum(x[3], y[3])

    s1, t0 = two_sum(s1, t0)
    s2, t0, t1 = _three_sum(s2, t0, t1)
    s3, t0 = _three_sum2(s3, t0, t2)
    t0 = t0 + t1 + t3
    return _renorm5(s0, s1, s2, s3, t0)


def _sub_planes_ref(x, y) -> Tuple[np.ndarray, ...]:
    """The reference QD subtraction: the add of the negated operand."""
    return _add_planes_ref(x, tuple(-c for c in y))


def _mul_planes_ref(x, y) -> Tuple[np.ndarray, ...]:
    """The reference QD ``sloppy_mul`` on component planes."""
    p0, q0 = two_prod(x[0], y[0])
    p1, q1 = two_prod(x[0], y[1])
    p2, q2 = two_prod(x[1], y[0])
    p3, q3 = two_prod(x[0], y[2])
    p4, q4 = two_prod(x[1], y[1])
    p5, q5 = two_prod(x[2], y[0])

    p1, p2, q0 = _three_sum(p1, p2, q0)

    p2, q1, q2 = _three_sum(p2, q1, q2)
    p3, p4, p5 = _three_sum(p3, p4, p5)
    s0, t0 = two_sum(p2, p3)
    s1, t1 = two_sum(q1, p4)
    s2 = q2 + p5
    s1, t0 = two_sum(s1, t0)
    s2 = s2 + (t0 + t1)

    s1 = s1 + (x[0] * y[3] + x[1] * y[2] + x[2] * y[1] + x[3] * y[0]
               + q0 + q3 + q4 + q5)
    return _renorm5(p0, p1, s0, s1, s2)


def _div_planes_ref(x, y) -> Tuple[np.ndarray, ...]:
    """The reference QD iterated-correction division (QD's ``sloppy_div``)."""
    q0 = x[0] / y[0]
    z = np.zeros_like(q0)
    r = _sub_planes_ref(x, _mul_planes_ref(y, (q0, z, z, z)))
    q1 = r[0] / y[0]
    r = _sub_planes_ref(r, _mul_planes_ref(y, (q1, z, z, z)))
    q2 = r[0] / y[0]
    r = _sub_planes_ref(r, _mul_planes_ref(y, (q2, z, z, z)))
    q3 = r[0] / y[0]
    r = _sub_planes_ref(r, _mul_planes_ref(y, (q3, z, z, z)))
    q4 = r[0] / y[0]
    return _renorm5(q0, q1, q2, q3, q4)


# ----------------------------------------------------------------------
# the array type
# ----------------------------------------------------------------------
class QDArray:
    """An n-dimensional array of quad-double reals stored as four planes.

    Parameters
    ----------
    c0 .. c3:
        The four ``float64`` expansion-component planes (missing ones
        default to zeros).  The constructor renormalises element-wise so the
        quad-double expansion invariant holds, exactly like the scalar
        :class:`~repro.multiprec.quad_double.QuadDouble` constructor.

    Raises
    ------
    ValueError
        When the component planes disagree in shape.
    """

    __slots__ = ("c0", "c1", "c2", "c3")

    def __init__(self, c0, c1=None, c2=None, c3=None):
        c0 = np.asarray(c0, dtype=np.float64)
        c1 = np.zeros_like(c0) if c1 is None else np.asarray(c1, dtype=np.float64)
        c2 = np.zeros_like(c0) if c2 is None else np.asarray(c2, dtype=np.float64)
        c3 = np.zeros_like(c0) if c3 is None else np.asarray(c3, dtype=np.float64)
        for other in (c1, c2, c3):
            if other.shape != c0.shape:
                raise ValueError(f"component shape mismatch: {c0.shape} vs {other.shape}")
        # Normalise so the expansion invariant holds element-wise, exactly
        # like the scalar constructor.
        comps = tuple(np.empty(c0.shape) for _ in range(4))
        if compiled.run("qd_renorm", comps + (c0, c1, c2, c3)) is None:
            comps = _renorm4(c0, c1, c2, c3)
        self.c0, self.c1, self.c2, self.c3 = comps

    # ------------------------------------------------------------------
    # constructors / conversions
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, shape) -> "QDArray":
        z = np.zeros(shape)
        return _raw(z, z.copy(), z.copy(), z.copy())

    @classmethod
    def ones(cls, shape) -> "QDArray":
        z = np.zeros(shape)
        return _raw(np.ones(shape), z, z.copy(), z.copy())

    @classmethod
    def from_float64(cls, values: np.ndarray) -> "QDArray":
        """Exact embedding of double-precision values."""
        values = np.asarray(values, dtype=np.float64)
        z = np.zeros_like(values)
        return _raw(values.copy(), z, z.copy(), z.copy())

    @classmethod
    def from_ddarray(cls, values) -> "QDArray":
        """Exact plane-widening embedding of a :class:`~repro.multiprec.
        ddarray.DDArray`: the double-double ``(hi, lo)`` planes become the two
        leading quad-double components, zeros the rest.

        The double-double invariant (``|lo| <= ulp(hi)/2``) is exactly the
        pairwise non-overlap the quad-double expansion requires, so no
        renormalisation is needed -- this is the vectorised form of
        :meth:`repro.multiprec.quad_double.QuadDouble.from_double_double`,
        and the embedding preserves every bit of the source value.
        """
        z = np.zeros_like(values.hi)
        return _raw(values.hi.copy(), values.lo.copy(), z, z.copy())

    @classmethod
    def from_scalars(cls, values: Iterable[QuadDouble]) -> "QDArray":
        values = list(values)
        comps = [np.array([v.c[i] for v in values]) for i in range(4)]
        return _raw(*comps)

    def to_scalars(self) -> list:
        """Flatten to a list of :class:`QuadDouble` scalars."""
        flats = [c.ravel() for c in self._components()]
        return [QuadDouble._raw((float(a), float(b), float(c), float(d)))
                for a, b, c, d in zip(*flats)]

    def to_float64(self) -> np.ndarray:
        """Round each element to a hardware double (the leading component)."""
        return self.c0.copy()

    def _components(self) -> Tuple[np.ndarray, ...]:
        return self.c0, self.c1, self.c2, self.c3

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.c0.shape

    @property
    def size(self) -> int:
        return self.c0.size

    def __len__(self) -> int:
        return len(self.c0)

    def copy(self) -> "QDArray":
        return _raw(*(c.copy() for c in self._components()))

    def __getitem__(self, idx) -> Union["QDArray", QuadDouble]:
        parts = [c[idx] for c in self._components()]
        if np.isscalar(parts[0]) or parts[0].ndim == 0:
            return QuadDouble._raw(tuple(float(p) for p in parts))
        return _raw(*parts)

    def __setitem__(self, idx, value) -> None:
        value = _coerce(value, like=self.c0[idx])
        self.c0[idx] = value.c0
        self.c1[idx] = value.c1
        self.c2[idx] = value.c2
        self.c3[idx] = value.c3

    def __repr__(self) -> str:
        return f"QDArray(shape={self.shape})"

    # ------------------------------------------------------------------
    # arithmetic (the scalar QD operation sequences, element-wise)
    # ------------------------------------------------------------------
    def __neg__(self) -> "QDArray":
        return _raw(-self.c0, -self.c1, -self.c2, -self.c3)

    def __add__(self, other) -> "QDArray":
        o = _coerce(other, like=self.c0)
        return _raw(*apply("qd_add", _add_planes_ref, self._components(),
                           o._components()))

    __radd__ = __add__

    def __sub__(self, other) -> "QDArray":
        o = _coerce(other, like=self.c0)
        return _raw(*apply("qd_sub", _sub_planes_ref, self._components(),
                           o._components()))

    def __rsub__(self, other) -> "QDArray":
        o = _coerce(other, like=self.c0)
        return o + (-self)

    def __mul__(self, other) -> "QDArray":
        o = _coerce(other, like=self.c0)
        return _raw(*apply("qd_mul", _mul_planes_ref, self._components(),
                           o._components()))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QDArray":
        o = _coerce(other, like=self.c0)
        # A normalised quad-double is zero exactly when its leading component
        # is; mirror the DDArray audit rather than silently filling lanes
        # with inf/NaN.  NaN denominators propagate element-wise.
        if np.any(o.c0 == 0.0):
            raise DivisionByZeroError(
                f"QDArray division by zero in "
                f"{int(np.count_nonzero(o.c0 == 0.0))} element(s)"
            )
        return _raw(*apply("qd_div", _div_planes_ref, self._components(),
                           o._components()))

    def __rtruediv__(self, other) -> "QDArray":
        o = _coerce(other, like=self.c0)
        return o / self

    def __pow__(self, exponent: int) -> "QDArray":
        if not isinstance(exponent, int) or exponent < 0:
            raise TypeError("QDArray only supports non-negative integer powers")
        result = QDArray.ones(self.shape)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # ------------------------------------------------------------------
    # in-place updates (the accumulation loops of the batched engine)
    # ------------------------------------------------------------------
    # Each computes exactly the out-of-place operation's floating-point
    # sequence, then lands the result in this array's planes.  The kernels
    # write the planes *directly* (each lane's old values are read before
    # its new ones are written), so a long accumulation -- an evaluator's
    # value row, a Gaussian elimination row -- allocates nothing at all.

    def iadd_(self, other) -> "QDArray":
        """In-place ``self += other`` (bit-for-bit with ``self + other``)."""
        o = _coerce(other, like=self.c0)
        x = self._components()
        apply("qd_add", _add_planes_ref, x, o._components(), out=x)
        return self

    def isub_(self, other) -> "QDArray":
        """In-place ``self -= other`` (bit-for-bit with ``self - other``)."""
        o = _coerce(other, like=self.c0)
        x = self._components()
        apply("qd_sub", _sub_planes_ref, x, o._components(), out=x)
        return self

    def iadd_where_(self, other, mask) -> "QDArray":
        """Masked in-place add: ``self = where(mask, self + other, self)``."""
        total = self + other
        mask = np.asarray(mask, dtype=bool)
        for dst, src in zip(self._components(), total._components()):
            np.copyto(dst, src, where=mask)
        return self

    # ------------------------------------------------------------------
    # masked selection
    # ------------------------------------------------------------------
    @staticmethod
    def where(mask, a, b) -> "QDArray":
        """Element-wise select: ``a`` where ``mask`` is true, else ``b``.

        Masks broadcast NumPy-style, so a per-lane ``(B,)`` mask selects
        whole columns of ``(n, B)`` arrays.
        """
        mask = np.asarray(mask, dtype=bool)
        a_c = _components_of(a)
        b_c = _components_of(b)
        return _raw(*(np.where(mask, ac, bc) for ac, bc in zip(a_c, b_c)))

    def masked_fill(self, mask, value) -> "QDArray":
        """Copy with elements under ``mask`` replaced by ``value``."""
        return QDArray.where(mask, value, self)

    # ------------------------------------------------------------------
    # reductions and element-wise helpers
    # ------------------------------------------------------------------
    def sum(self, axis=None) -> Union["QDArray", QuadDouble]:
        """Quad-double accurate sum along ``axis`` (sequential pairing)."""
        if axis is None:
            total = QuadDouble(0.0)
            for scalar in self.to_scalars():
                total = total + scalar
            return total
        moved = [np.moveaxis(c, axis, 0) for c in self._components()]
        rest = moved[0].shape[1:]
        acc = QDArray.zeros(rest)
        for i in range(moved[0].shape[0]):
            acc = acc + _raw(*(c[i] for c in moved))
        return acc

    def is_negative(self) -> np.ndarray:
        """Element-wise sign: the first non-zero component decides."""
        c0, c1, c2, c3 = self._components()
        return np.where(c0 != 0.0, c0 < 0.0,
                        np.where(c1 != 0.0, c1 < 0.0,
                                 np.where(c2 != 0.0, c2 < 0.0, c3 < 0.0)))

    def abs(self) -> "QDArray":
        negative = self.is_negative()
        return _raw(*(np.where(negative, -c, c) for c in self._components()))

    def abs_double(self) -> np.ndarray:
        """Per-element magnitude rounded to a hardware double."""
        return np.abs(((self.c0 + self.c1) + self.c2) + self.c3)

    def max_abs(self, axis=None) -> Union[float, np.ndarray]:
        """Largest magnitude, rounded to double (for norms/tolerances)."""
        if axis is None:
            return float(np.max(self.abs_double())) if self.size else 0.0
        return np.max(self.abs_double(), axis=axis, initial=0.0)

    def allclose(self, other: "QDArray", tol: float = 1e-60) -> bool:
        diff = (self - other).abs()
        scale = max(self.max_abs(), other.max_abs(), 1.0)
        return diff.max_abs() <= tol * scale


def _raw(c0, c1, c2, c3) -> QDArray:
    out = object.__new__(QDArray)
    out.c0 = c0
    out.c1 = c1
    out.c2 = c2
    out.c3 = c3
    return out


def _components_of(value) -> Tuple[np.ndarray, ...]:
    """The four planes of anything coercible, without forcing a shape."""
    if isinstance(value, QDArray):
        return value._components()
    if isinstance(value, QuadDouble):
        return tuple(np.float64(c) for c in value.c)
    arr = np.asarray(value, dtype=np.float64)
    z = np.zeros_like(arr)
    return arr, z, z, z


def _coerce(value, like) -> QDArray:
    """Coerce scalars/arrays to a QDArray broadcastable against ``like``."""
    if isinstance(value, QDArray):
        return value
    if isinstance(value, QuadDouble):
        shape = np.shape(like)
        return _raw(*(np.full(shape, c) for c in value.c))
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape == ():
        shape = np.shape(like)
        return _raw(np.full(shape, float(arr)), np.zeros(shape),
                    np.zeros(shape), np.zeros(shape))
    return QDArray.from_float64(arr)


# ----------------------------------------------------------------------
# the complex pairing
# ----------------------------------------------------------------------
class ComplexQDArray:
    """An array of complex quad-doubles: a (real, imag) pair of QDArrays."""

    __slots__ = ("real", "imag")

    def __init__(self, real, imag=None):
        if not isinstance(real, QDArray):
            real = QDArray.from_float64(np.asarray(real, dtype=np.float64))
        if imag is None:
            imag = QDArray.zeros(real.shape)
        elif not isinstance(imag, QDArray):
            imag = QDArray.from_float64(np.asarray(imag, dtype=np.float64))
        if real.shape != imag.shape:
            raise ValueError("real/imag shape mismatch")
        self.real = real
        self.imag = imag

    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, shape) -> "ComplexQDArray":
        return cls(QDArray.zeros(shape), QDArray.zeros(shape))

    @classmethod
    def from_complex128(cls, values: np.ndarray) -> "ComplexQDArray":
        values = np.asarray(values, dtype=np.complex128)
        return cls(QDArray.from_float64(values.real), QDArray.from_float64(values.imag))

    @classmethod
    def from_complex_dd(cls, values) -> "ComplexQDArray":
        """Exact plane widening of a :class:`~repro.multiprec.ddarray.
        ComplexDDArray`: each real/imaginary double-double pair becomes the
        two leading quad-double components (see :meth:`QDArray.from_ddarray`).

        This is the d -> dd -> qd escalation's batch conversion: a whole
        ``(n, B)`` double-double lane array is widened in eight NumPy copies,
        with every lane's value preserved bit-for-bit.
        """
        return cls(QDArray.from_ddarray(values.real),
                   QDArray.from_ddarray(values.imag))

    @classmethod
    def from_scalars(cls, values: Iterable[ComplexQD]) -> "ComplexQDArray":
        values = list(values)
        real = QDArray.from_scalars([v.real for v in values])
        imag = QDArray.from_scalars([v.imag for v in values])
        return cls(real, imag)

    def to_scalars(self) -> list:
        reals = self.real.to_scalars()
        imags = self.imag.to_scalars()
        return [ComplexQD(r, i) for r, i in zip(reals, imags)]

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

    def copy(self) -> "ComplexQDArray":
        return ComplexQDArray(self.real.copy(), self.imag.copy())

    def __getitem__(self, idx):
        r = self.real[idx]
        i = self.imag[idx]
        if isinstance(r, QuadDouble):
            return ComplexQD(r, i)
        return ComplexQDArray(r, i)

    def __setitem__(self, idx, value) -> None:
        if isinstance(value, (ComplexQD, ComplexQDArray)):
            self.real[idx] = value.real
            self.imag[idx] = value.imag
            return
        z = np.asarray(value, dtype=np.complex128)
        if z.ndim:
            self.real[idx] = QDArray.from_float64(z.real)
            self.imag[idx] = QDArray.from_float64(z.imag)
        else:
            self.real[idx] = QuadDouble.from_float(float(z.real))
            self.imag[idx] = QuadDouble.from_float(float(z.imag))

    def __repr__(self) -> str:
        return f"ComplexQDArray(shape={self.shape})"

    # ------------------------------------------------------------------
    def _coerce(self, other) -> "ComplexQDArray":
        if isinstance(other, ComplexQDArray):
            return other
        if isinstance(other, ComplexQD):
            shape = self.shape
            real = _raw(*(np.full(shape, c) for c in other.real.c))
            imag = _raw(*(np.full(shape, c) for c in other.imag.c))
            return ComplexQDArray(real, imag)
        arr = np.asarray(other, dtype=np.complex128)
        if arr.shape == ():
            arr = np.full(self.shape, complex(arr))
        return ComplexQDArray.from_complex128(arr)

    def __neg__(self) -> "ComplexQDArray":
        return ComplexQDArray(-self.real, -self.imag)

    def __add__(self, other) -> "ComplexQDArray":
        return _complex_op("cqd_add", _complex_add, self, self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other) -> "ComplexQDArray":
        return _complex_op("cqd_sub", _complex_sub, self, self._coerce(other))

    def __rsub__(self, other) -> "ComplexQDArray":
        return _complex_op("cqd_sub", _complex_sub, self._coerce(other), self)

    def __mul__(self, other) -> "ComplexQDArray":
        return _complex_op("cqd_mul", _complex_mul, self,
                           qd_mul_operand(self, other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ComplexQDArray":
        return _complex_op("cqd_div", _complex_div, self, self._coerce(other))

    def __rtruediv__(self, other) -> "ComplexQDArray":
        return self._coerce(other) / self

    def __pow__(self, exponent: int) -> "ComplexQDArray":
        if not isinstance(exponent, int) or exponent < 0:
            raise TypeError("ComplexQDArray only supports non-negative integer powers")
        result = ComplexQDArray(QDArray.ones(self.shape), QDArray.zeros(self.shape))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # ------------------------------------------------------------------
    # in-place updates (see QDArray; results are bit-for-bit with the
    # out-of-place operators)
    # ------------------------------------------------------------------
    def iadd_(self, other) -> "ComplexQDArray":
        """In-place ``self += other``."""
        acc = _planes(self)
        apply("cqd_add", _complex_add, acc, _planes(self._coerce(other)),
              out=acc)
        return self

    def isub_(self, other) -> "ComplexQDArray":
        """In-place ``self -= other``."""
        acc = _planes(self)
        apply("cqd_sub", _complex_sub, acc, _planes(self._coerce(other)),
              out=acc)
        return self

    def iadd_mul_(self, factor, value) -> "ComplexQDArray":
        """In-place ``self += factor * value``, the product formed as the
        expression ``factor * value`` forms it once ``factor`` is coerced
        like this array's operands."""
        x = qd_mul_operand(self, factor)
        y = qd_mul_operand(x, value)
        if compiled.run("cqd_add_mul",
                        _planes(self) + _planes(x) + _planes(y)) is None:
            self.iadd_(x * y)
        return self

    def isub_mul_(self, factor, value) -> "ComplexQDArray":
        """In-place ``self -= factor * value`` (elimination inner loop)."""
        x = qd_mul_operand(self, factor)
        y = qd_mul_operand(x, value)
        if compiled.run("cqd_sub_mul",
                        _planes(self) + _planes(x) + _planes(y)) is None:
            self.isub_(x * y)
        return self

    def iadd_where_(self, other, mask) -> "ComplexQDArray":
        """Masked in-place add: ``self = where(mask, self + other, self)``."""
        o = self._coerce(other)
        mask = np.asarray(mask, dtype=bool)
        lanes = np.broadcast_to(mask, self.shape)
        if compiled.run("cqd_add_masked",
                        _planes(self) + _planes(o) + (lanes,)) is None:
            self.real.iadd_where_(o.real, mask)
            self.imag.iadd_where_(o.imag, mask)
        return self

    def sum(self, axis=None):
        """Sum of elements; returns :class:`ComplexQD` when ``axis is None``."""
        r = self.real.sum(axis=axis)
        i = self.imag.sum(axis=axis)
        if isinstance(r, QuadDouble):
            return ComplexQD(r, i)
        return ComplexQDArray(r, i)

    @staticmethod
    def where(mask, a, b) -> "ComplexQDArray":
        """Element-wise select, broadcasting like :meth:`QDArray.where`."""
        a_re, a_im = _complex_parts(a)
        b_re, b_im = _complex_parts(b)
        return ComplexQDArray(QDArray.where(mask, a_re, b_re),
                              QDArray.where(mask, a_im, b_im))

    def masked_fill(self, mask, value) -> "ComplexQDArray":
        """Copy with elements under ``mask`` replaced by ``value``."""
        return ComplexQDArray.where(mask, value, self)

    def conjugate(self) -> "ComplexQDArray":
        return ComplexQDArray(self.real, -self.imag)

    def abs2(self) -> QDArray:
        return self.real * self.real + self.imag * self.imag

    def abs_double(self) -> np.ndarray:
        """Per-element magnitude rounded to a hardware double."""
        return np.abs(self.to_complex128())

    def max_abs(self, axis=None) -> Union[float, np.ndarray]:
        if axis is None:
            if self.size == 0:
                return 0.0
            return float(np.max(np.sqrt(np.maximum(self.abs2().to_float64(), 0.0))))
        return np.max(np.sqrt(np.maximum(self.abs2().to_float64(), 0.0)),
                      axis=axis, initial=0.0)

    def allclose(self, other: "ComplexQDArray", tol: float = 1e-60) -> bool:
        diff = self - other
        scale = max(self.max_abs(), other.max_abs(), 1.0)
        return diff.max_abs() <= tol * scale


def _complex_parts(value):
    """Split anything coercible into (real, imag) usable by QDArray.where."""
    if isinstance(value, (ComplexQDArray, ComplexQD)):
        return value.real, value.imag
    if isinstance(value, QDArray):
        return value, np.zeros_like(value.c0)
    if isinstance(value, QuadDouble):
        return value, 0.0
    arr = np.asarray(value, dtype=np.complex128)
    return arr.real, arr.imag


def complex_qd_raw(real: QDArray, imag: QDArray) -> ComplexQDArray:
    """Wrap two QDArrays without the constructor's shape validation."""
    out = object.__new__(ComplexQDArray)
    out.real = real
    out.imag = imag
    return out


def complex_qd_from_planes(planes) -> ComplexQDArray:
    """View eight planes (real c0..c3, imag c0..c3) as a ComplexQDArray."""
    return complex_qd_raw(_raw(planes[0], planes[1], planes[2], planes[3]),
                          _raw(planes[4], planes[5], planes[6], planes[7]))


def qd_mul_operand(x: ComplexQDArray, other) -> ComplexQDArray:
    """The coerced right operand of ``x * other``, allocation-free for
    Python scalars.

    Bit-for-bit with :meth:`ComplexQDArray._coerce`: a Python scalar there
    goes through ``from_complex128`` whose planes are the raw double value
    plus zero trailing components -- no renormalisation -- so read-only
    broadcast views of the same scalars carry identical bits everywhere.
    """
    if isinstance(other, ComplexQDArray):
        return other
    if isinstance(other, (int, float, complex)) and not isinstance(other, bool):
        z = complex(other)
        shape = x.shape
        zero = np.broadcast_to(np.float64(0.0), shape)
        real = _raw(np.broadcast_to(np.float64(z.real), shape),
                    zero, zero, zero)
        imag = _raw(np.broadcast_to(np.float64(z.imag), shape),
                    zero, zero, zero)
        return complex_qd_raw(real, imag)
    return x._coerce(other)


def complex_qd_mul_into(out: ComplexQDArray, x: ComplexQDArray,
                        y: ComplexQDArray) -> ComplexQDArray:
    """``out := x * y``, bit-for-bit with ``ComplexQDArray.__mul__``;
    ``out`` may alias either operand."""
    apply("cqd_mul", _complex_mul, _planes(x), _planes(y), out=_planes(out))
    return out


def _planes(z: ComplexQDArray) -> tuple:
    """The eight planes of a complex array: real c0..c3, then imag."""
    real, imag = z.real, z.imag
    return (real.c0, real.c1, real.c2, real.c3,
            imag.c0, imag.c1, imag.c2, imag.c3)


def _complex_op(kernel: str, reference, x: ComplexQDArray,
                y: ComplexQDArray) -> ComplexQDArray:
    return complex_qd_from_planes(apply(kernel, reference, _planes(x),
                                        _planes(y)))


_complex_add, _complex_sub, _complex_mul, _complex_div = complex_chains(
    _add_planes_ref, _sub_planes_ref, _mul_planes_ref, _div_planes_ref,
    "ComplexQDArray")
