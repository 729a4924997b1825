"""Multiprecision plane arrays, written once for double-double and quad-double.

An array of double-doubles or quad-doubles is stored as ``float64`` *planes*,
one per expansion component: ``(hi, lo)`` for
:class:`~repro.multiprec.ddarray.DDArray`, ``(c0, c1, c2, c3)`` for
:class:`~repro.multiprec.qdarray.QDArray`.  Element-wise arithmetic runs the
compiled plane kernels of :mod:`repro.multiprec.compiled` when they fit,
else the reference chains: the very sequences the scalar
:class:`~repro.multiprec.double_double.DoubleDouble` /
:class:`~repro.multiprec.quad_double.QuadDouble` run on floats, here run on
planes, and composed into complex by
:func:`~repro.multiprec.scalar.complex_chains` as the complex scalars
compose theirs.  Scalar loop, reference chain and kernel agree bit for bit.

Everything above the per-component arithmetic is the same at both
precisions, so it lives here once: :class:`PlaneArray` (real) and
:class:`ComplexPlaneArray` (a ``(real, imag)`` pair).  A precision subclass
supplies only what differs:

* its plane names (``__slots__``) with direct ``_raw`` / ``_components``;
* its constructor, which renormalises like the scalar constructor, and the
  exact embedding of doubles behind ``from_float64`` (``_embed``);
* its scalar type and scalar component rules: ``_parts`` gives the exact
  components of a scalar of this precision or a narrower one (wider
  scalars and plain numbers round to one double), ``_scalar`` adopts
  components as a scalar without renormalising them;
* its kernel prefix and reference chains, as class keywords
  (``class DDArray(PlaneArray, prefix="dd", chains=(dd_add, dd_sub, dd_mul,
  dd_div))``, the scalar module's sequences); kernel names are built once
  per class.  Integer powers run the scalars' ladder,
  :func:`~repro.multiprec.scalar.integer_power`.

The complex type's scalar codec (:meth:`ComplexPlaneArray.scalar_to_planes`
/ :meth:`ComplexPlaneArray.scalar_from_planes`) is where scalars meet
planes: the batch backends pack start points with it, and a lane
checkpoint's planes decode through it into the reported point.  The planes
are the scalar's components as they are, so the round trip is bit for
bit, inf and NaN lanes included.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from ..errors import DivisionByZeroError
from . import compiled
from .compiled import apply
from .scalar import (MultiprecComplex, MultiprecReal, complex_chains,
                     integer_power)

__all__ = ["PlaneArray", "ComplexPlaneArray"]

_OPS = ("add", "sub", "mul", "div")


class _Elementwise:
    """What the real and complex plane arrays share above their planes:
    printing, integer powers, masked fills and the magnitude tests."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.shape})"

    def __pow__(self, exponent: int):
        """``self ** exponent`` by the scalar types' ladder."""
        if not isinstance(exponent, int) or exponent < 0:
            raise TypeError(f"{type(self).__name__} only supports "
                            f"non-negative integer powers")
        return integer_power(self, exponent, self.ones(self.shape))

    def masked_fill(self, mask, value):
        """Copy with elements under ``mask`` replaced by ``value``."""
        return self.where(mask, value, self)

    def max_abs(self, axis=None):
        """Largest magnitude (``abs_double``), used for norms/tolerances.

        With ``axis`` the reduction runs along that axis and returns a float
        array -- the per-path infinity norms of a batch stored column-wise.
        """
        if axis is None:
            return float(np.max(self.abs_double())) if self.size else 0.0
        return np.max(self.abs_double(), axis=axis, initial=0.0)

    def allclose(self, other, tol=None) -> bool:
        tol = self.default_tol if tol is None else tol
        scale = max(self.max_abs(), other.max_abs(), 1.0)
        return (self - other).max_abs() <= tol * scale


class PlaneArray(_Elementwise):
    """An n-dimensional array of multiprecision reals, one float64 plane per
    expansion component (see the module docstring for what a precision
    subclass supplies).

    Raises
    ------
    ValueError
        From the constructor, when the component planes disagree in shape.
    """

    __slots__ = ()

    #: Component planes per element.
    width: int
    #: The scalar type an element reads back as.
    scalar_type: type
    #: Default tolerance of :meth:`allclose`.
    default_tol: float
    #: The reference chain of each op over plane tuples.
    reference_chains: dict

    def __init_subclass__(cls, prefix: str, chains, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.reference_chains = dict(zip(_OPS, chains))
        cls._ADD, cls._SUB, cls._MUL, cls._DIV = (
            (f"{prefix}_{op}", chain) for op, chain in zip(_OPS, chains))

    # ------------------------------------------------------------------
    # per precision
    # ------------------------------------------------------------------
    @classmethod
    def _raw(cls, *planes) -> "PlaneArray":
        """Adopt planes as they are (no copy, no renormalisation)."""
        raise NotImplementedError

    def _components(self) -> Tuple[np.ndarray, ...]:
        """The planes, leading component first."""
        raise NotImplementedError

    @staticmethod
    def _embed(values: np.ndarray) -> tuple:
        """Fresh planes for the doubles ``values`` (``from_float64``'s
        embedding)."""
        raise NotImplementedError

    @staticmethod
    def _parts(value) -> tuple:
        """The component floats of one real scalar in this precision."""
        raise NotImplementedError

    @staticmethod
    def _scalar(parts):
        """The scalar whose components are the floats ``parts``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # constructors / conversions
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, shape) -> "PlaneArray":
        return cls._raw(*(np.zeros(shape) for _ in range(cls.width)))

    @classmethod
    def ones(cls, shape) -> "PlaneArray":
        return cls._raw(np.ones(shape),
                        *(np.zeros(shape) for _ in range(cls.width - 1)))

    @classmethod
    def from_float64(cls, values: np.ndarray) -> "PlaneArray":
        """Exact embedding of double-precision values."""
        return cls._raw(*cls._embed(np.asarray(values, dtype=np.float64)))

    @classmethod
    def from_scalars(cls, values: Iterable) -> "PlaneArray":
        """Pack scalars (this precision or narrower) component by component."""
        parts = [cls._parts(v) for v in values]
        return cls._raw(*(np.array([p[k] for p in parts], dtype=np.float64)
                          for k in range(cls.width)))

    def to_scalars(self) -> list:
        """Flatten to a list of scalars."""
        flats = [c.ravel() for c in self._components()]
        return [self._scalar(parts) for parts in zip(*flats)]

    def to_float64(self) -> np.ndarray:
        """Round each element to a hardware double (the leading component)."""
        return self._components()[0].copy()

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._components()[0].shape

    @property
    def size(self) -> int:
        return self._components()[0].size

    def __len__(self) -> int:
        return len(self._components()[0])

    def copy(self) -> "PlaneArray":
        return self._raw(*(c.copy() for c in self._components()))

    def __getitem__(self, idx):
        parts = [c[idx] for c in self._components()]
        if np.ndim(parts[0]) == 0:
            return self._scalar(parts)
        return self._raw(*parts)

    def __setitem__(self, idx, value) -> None:
        planes = self._components()
        if not isinstance(value, type(self)):  # a scalar fills the target
            value = self._coerce(value, planes[0][idx])
        for dst, src in zip(planes, value._components()):
            dst[idx] = src

    @classmethod
    def _coerce(cls, value, like) -> "PlaneArray":
        """``value`` as an array of this type, broadcastable against
        ``like`` (a scalar fills ``like``'s shape)."""
        if isinstance(value, cls):
            return value
        if np.ndim(value) == 0:
            shape = np.shape(like)
            return cls._raw(*(np.full(shape, c) for c in cls._parts(value)))
        return cls.from_float64(value)

    # ------------------------------------------------------------------
    # arithmetic (the scalar operation sequences, element-wise)
    # ------------------------------------------------------------------
    def __neg__(self) -> "PlaneArray":
        return self._raw(*(-c for c in self._components()))

    def __add__(self, other) -> "PlaneArray":
        o = self._coerce(other, self)
        return self._raw(*apply(*self._ADD, self._components(),
                                o._components()))

    __radd__ = __add__

    def __sub__(self, other) -> "PlaneArray":
        o = self._coerce(other, self)
        return self._raw(*apply(*self._SUB, self._components(),
                                o._components()))

    def __rsub__(self, other) -> "PlaneArray":
        return self._coerce(other, self) - self

    def __mul__(self, other) -> "PlaneArray":
        o = self._coerce(other, self)
        return self._raw(*apply(*self._MUL, self._components(),
                                o._components()))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "PlaneArray":
        o = self._coerce(other, self)
        # A normalised expansion is zero exactly when its leading component
        # is; dividing would silently fill the lane with inf/NaN.  NaN
        # denominators are *not* trapped: a NaN operand propagates
        # element-wise, poisoning only its own lane.
        lead = o._components()[0]
        if np.any(lead == 0.0):
            raise DivisionByZeroError(
                f"{type(self).__name__} division by zero in "
                f"{int(np.count_nonzero(lead == 0.0))} element(s)")
        return self._raw(*apply(*self._DIV, self._components(),
                                o._components()))

    def __rtruediv__(self, other) -> "PlaneArray":
        return self._coerce(other, self) / self

    # ------------------------------------------------------------------
    # in-place updates (the accumulation loops of the batched engine)
    # ------------------------------------------------------------------
    # Each computes exactly the out-of-place operation's floating-point
    # sequence, then lands the result in this array's planes.  The kernels
    # write the planes *directly* (each lane's old values are read before
    # its new ones are written), so a long accumulation -- an evaluator's
    # value row, a Gaussian elimination row -- allocates nothing at all.
    def iadd_(self, other) -> "PlaneArray":
        """In-place ``self += other`` (bit-for-bit with ``self + other``)."""
        o = self._coerce(other, self)
        planes = self._components()
        apply(*self._ADD, planes, o._components(), out=planes)
        return self

    def isub_(self, other) -> "PlaneArray":
        """In-place ``self -= other`` (bit-for-bit with ``self - other``)."""
        o = self._coerce(other, self)
        planes = self._components()
        apply(*self._SUB, planes, o._components(), out=planes)
        return self

    def iadd_where_(self, other, mask) -> "PlaneArray":
        """Masked in-place add: ``self = where(mask, self + other, self)``."""
        total = self + other
        mask = np.asarray(mask, dtype=bool)
        for dst, src in zip(self._components(), total._components()):
            np.copyto(dst, src, where=mask)
        return self

    # ------------------------------------------------------------------
    # masked selection (the primitive behind per-path retirement in the
    # batched tracker: lanes are switched on and off without data movement)
    # ------------------------------------------------------------------
    @classmethod
    def where(cls, mask, a, b) -> "PlaneArray":
        """Element-wise select: ``a`` where ``mask`` is true, else ``b``.

        ``mask`` broadcasts against the operands (NumPy rules), so a per-lane
        mask of shape ``(B,)`` selects whole columns of ``(n, B)`` arrays.
        Scalars (of this precision, or floats) broadcast like NumPy scalars.
        """
        mask = np.asarray(mask, dtype=bool)
        return cls._raw(*(np.where(mask, x, y) for x, y
                          in zip(cls._select_planes(a), cls._select_planes(b))))

    @classmethod
    def _select_planes(cls, value) -> tuple:
        """The planes of anything coercible, without forcing a shape."""
        if isinstance(value, cls):
            return value._components()
        if np.ndim(value) == 0:
            return cls._parts(value)
        values = np.asarray(value, dtype=np.float64)
        return (values,) + (np.zeros_like(values),) * (cls.width - 1)

    # ------------------------------------------------------------------
    # reductions and element-wise helpers
    # ------------------------------------------------------------------
    def sum(self, axis=None):
        """Accurate sum along ``axis`` (sequential pairing); a scalar when
        ``axis`` is None."""
        if axis is None:
            total = self.scalar_type(0.0)
            for scalar in self.to_scalars():
                total = total + scalar
            return total
        moved = [np.moveaxis(c, axis, 0) for c in self._components()]
        acc = self.zeros(moved[0].shape[1:])
        for i in range(moved[0].shape[0]):
            acc = acc + self._raw(*(c[i] for c in moved))
        return acc

    def is_negative(self) -> np.ndarray:
        """Element-wise sign: the first non-zero component decides."""
        planes = self._components()
        negative = planes[-1] < 0.0
        for c in reversed(planes[:-1]):
            negative = np.where(c != 0.0, c < 0.0, negative)
        return negative

    def abs(self) -> "PlaneArray":
        negative = self.is_negative()
        return self._raw(*(np.where(negative, -c, c)
                           for c in self._components()))

    def abs_double(self) -> np.ndarray:
        """Per-element magnitude rounded to a hardware double."""
        planes = self._components()
        total = planes[0]
        for c in planes[1:]:
            total = total + c
        return np.abs(total)


class ComplexPlaneArray(_Elementwise):
    """An array of complex multiprecision numbers: a ``(real, imag)`` pair
    of :class:`PlaneArray` of one precision.

    A subclass names its precision as class keywords:
    ``class ComplexDDArray(ComplexPlaneArray, real_type=DDArray,
    scalar_type=ComplexDD, prefix="cdd")``.  Its planes, in storage order,
    are the real array's followed by the imaginary array's.
    """

    __slots__ = ("real", "imag")

    #: The real plane array of this precision.
    real_type: type
    #: The complex scalar type an element reads back as.
    scalar_type: type
    #: Default tolerance of :meth:`allclose` (the real type's).
    default_tol: float
    #: Float planes per element (twice the real type's).
    plane_count: int
    #: The reference chain of each op over flat plane tuples, composed
    #: from the real type's by :func:`~repro.multiprec.scalar.complex_chains`.
    reference_chains: dict

    def __init_subclass__(cls, real_type, scalar_type, prefix: str,
                          **kwargs):
        super().__init_subclass__(**kwargs)
        cls.real_type = real_type
        cls.scalar_type = scalar_type
        cls.default_tol = real_type.default_tol
        cls.plane_count = 2 * real_type.width
        chains = complex_chains(*(real_type.reference_chains[op]
                                  for op in _OPS), cls.__name__)
        cls.reference_chains = dict(zip(_OPS, chains))
        cls._ADD, cls._SUB, cls._MUL, cls._DIV = (
            (f"{prefix}_{op}", chain) for op, chain in zip(_OPS, chains))
        cls._ADD_MUL = f"{prefix}_add_mul"
        cls._SUB_MUL = f"{prefix}_sub_mul"
        cls._ADD_MASKED = f"{prefix}_add_masked"

    def __init__(self, real, imag=None):
        kind = self.real_type
        if not isinstance(real, kind):
            real = kind.from_float64(np.asarray(real, dtype=np.float64))
        if imag is None:
            imag = kind.zeros(real.shape)
        elif not isinstance(imag, kind):
            imag = kind.from_float64(np.asarray(imag, dtype=np.float64))
        if real.shape != imag.shape:
            raise ValueError("real/imag shape mismatch")
        self.real = real
        self.imag = imag

    # ------------------------------------------------------------------
    # planes
    # ------------------------------------------------------------------
    @classmethod
    def _wrap(cls, real, imag) -> "ComplexPlaneArray":
        """Pair two real arrays without the constructor's validation."""
        out = object.__new__(cls)
        out.real = real
        out.imag = imag
        return out

    def _planes(self) -> tuple:
        """All planes in storage order: the real part's, then the imag's."""
        return self.real._components() + self.imag._components()

    @classmethod
    def from_planes(cls, planes) -> "ComplexPlaneArray":
        """View :attr:`plane_count` planes (storage order) as an array."""
        half = cls.real_type.width
        raw = cls.real_type._raw
        return cls._wrap(raw(*planes[:half]), raw(*planes[half:]))

    @classmethod
    def buffered(cls, *shape):
        """``(buffer, array)``: a fresh ``(plane_count, *shape)`` buffer and
        the array whose planes are its rows."""
        buffer = np.empty((cls.plane_count, *shape))
        return buffer, cls.from_planes(buffer)

    # ------------------------------------------------------------------
    # the scalar codec
    # ------------------------------------------------------------------
    @classmethod
    def scalar_to_planes(cls, x) -> tuple:
        """One scalar's planes in storage order.

        The components are taken as they are, so :meth:`scalar_from_planes`
        rebuilds the scalar bit for bit (inf, NaN and signed zeros
        included).  Scalars of a narrower precision widen exactly; plain
        numbers and wider scalars round to one double per part, as
        ``complex(x)`` does.
        """
        kind = cls.real_type
        if isinstance(x, MultiprecComplex):
            return kind._parts(x.real) + kind._parts(x.imag)
        if isinstance(x, MultiprecReal):
            return kind._parts(x) + kind._parts(0.0)
        z = complex(x)
        return kind._parts(z.real) + kind._parts(z.imag)

    @classmethod
    def scalar_from_planes(cls, planes):
        """The scalar whose planes (storage order) are ``planes``, adopted
        without renormalisation."""
        kind = cls.real_type
        return cls.scalar_type._make(kind._scalar(planes[:kind.width]),
                                     kind._scalar(planes[kind.width:]))

    # ------------------------------------------------------------------
    # constructors / conversions
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, shape) -> "ComplexPlaneArray":
        return cls._wrap(cls.real_type.zeros(shape), cls.real_type.zeros(shape))

    @classmethod
    def ones(cls, shape) -> "ComplexPlaneArray":
        return cls._wrap(cls.real_type.ones(shape), cls.real_type.zeros(shape))

    @classmethod
    def from_complex128(cls, values: np.ndarray) -> "ComplexPlaneArray":
        values = np.asarray(values, dtype=np.complex128)
        return cls._wrap(cls.real_type.from_float64(values.real),
                         cls.real_type.from_float64(values.imag))

    @classmethod
    def from_scalars(cls, values: Iterable) -> "ComplexPlaneArray":
        values = list(values)
        return cls._wrap(cls.real_type.from_scalars([v.real for v in values]),
                         cls.real_type.from_scalars([v.imag for v in values]))

    def to_scalars(self) -> list:
        return [self.scalar_type._make(r, i) for r, i
                in zip(self.real.to_scalars(), self.imag.to_scalars())]

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

    def copy(self) -> "ComplexPlaneArray":
        return self._wrap(self.real.copy(), self.imag.copy())

    def __getitem__(self, idx):
        r = self.real[idx]
        i = self.imag[idx]
        if isinstance(r, self.real_type):
            return self._wrap(r, i)
        return self.scalar_type(r, i)

    def __setitem__(self, idx, value) -> None:
        if not isinstance(value, (type(self), self.scalar_type)):
            value = self.from_complex128(value)
        self.real[idx] = value.real
        self.imag[idx] = value.imag

    def _coerce(self, other) -> "ComplexPlaneArray":
        """``other`` as an array of this type and shape (scalars fill it)."""
        if isinstance(other, type(self)):
            return other
        if isinstance(other, self.scalar_type):
            kind = self.real_type
            return self._wrap(kind._coerce(other.real, self.real),
                              kind._coerce(other.imag, self.real))
        values = np.asarray(other, dtype=np.complex128)
        if values.shape == ():
            values = np.full(self.shape, complex(values))
        return self.from_complex128(values)

    def mul_operand(self, other) -> "ComplexPlaneArray":
        """The coerced right operand of ``self * other``, allocation-free
        for Python scalars.

        Bit-for-bit with :meth:`_coerce`: a Python scalar there fills this
        shape with ``from_complex128``'s embedding of it; here the same
        embedding runs once on the two parts and its planes broadcast as
        read-only views -- every element carries the identical bits, and
        the multiply kernels only read operand planes.
        """
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, float, complex)) and not isinstance(other, bool):
            z = complex(other)
            shape = self.shape
            parts = self.real_type._embed(np.array([z.real, z.imag]))
            column = np.array(parts).T.reshape((-1,) + (1,) * len(shape))
            return self.from_planes(
                np.broadcast_to(column, (len(column),) + shape))
        return self._coerce(other)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _binary(self, op, x, y) -> "ComplexPlaneArray":
        return self.from_planes(apply(*op, x._planes(), y._planes()))

    def __neg__(self) -> "ComplexPlaneArray":
        return self._wrap(-self.real, -self.imag)

    def __add__(self, other) -> "ComplexPlaneArray":
        return self._binary(self._ADD, self, self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other) -> "ComplexPlaneArray":
        return self._binary(self._SUB, self, self._coerce(other))

    def __rsub__(self, other) -> "ComplexPlaneArray":
        return self._binary(self._SUB, self._coerce(other), self)

    def __mul__(self, other) -> "ComplexPlaneArray":
        return self._binary(self._MUL, self, self.mul_operand(other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ComplexPlaneArray":
        return self._binary(self._DIV, self, self._coerce(other))

    def __rtruediv__(self, other) -> "ComplexPlaneArray":
        return self._coerce(other) / self

    # ------------------------------------------------------------------
    # in-place updates (bit-for-bit with the out-of-place operators)
    # ------------------------------------------------------------------
    def iadd_(self, other) -> "ComplexPlaneArray":
        """In-place ``self += other``."""
        acc = self._planes()
        apply(*self._ADD, acc, self._coerce(other)._planes(), out=acc)
        return self

    def isub_(self, other) -> "ComplexPlaneArray":
        """In-place ``self -= other``."""
        acc = self._planes()
        apply(*self._SUB, acc, self._coerce(other)._planes(), out=acc)
        return self

    def assign_mul_(self, x, y) -> "ComplexPlaneArray":
        """In-place ``self := x * y`` for arrays ``x`` and ``y`` of this
        type, bit-for-bit with ``x * y``; ``self`` may alias either."""
        apply(*self._MUL, x._planes(), y._planes(), out=self._planes())
        return self

    def iadd_mul_(self, factor, value) -> "ComplexPlaneArray":
        """In-place ``self += factor * value``, the product formed as the
        expression ``factor * value`` forms it once ``factor`` is coerced
        like this array's operands."""
        x = self.mul_operand(factor)
        y = x.mul_operand(value)
        if compiled.run(self._ADD_MUL,
                        self._planes() + x._planes() + y._planes()) is None:
            self.iadd_(x * y)
        return self

    def isub_mul_(self, factor, value) -> "ComplexPlaneArray":
        """In-place ``self -= factor * value`` (elimination inner loop)."""
        x = self.mul_operand(factor)
        y = x.mul_operand(value)
        if compiled.run(self._SUB_MUL,
                        self._planes() + x._planes() + y._planes()) is None:
            self.isub_(x * y)
        return self

    def iadd_where_(self, other, mask) -> "ComplexPlaneArray":
        """Masked in-place add: ``self = where(mask, self + other, self)``."""
        o = self._coerce(other)
        mask = np.asarray(mask, dtype=bool)
        lanes = np.broadcast_to(mask, self.shape)
        if compiled.run(self._ADD_MASKED,
                        self._planes() + o._planes() + (lanes,)) is None:
            self.real.iadd_where_(o.real, mask)
            self.imag.iadd_where_(o.imag, mask)
        return self

    # ------------------------------------------------------------------
    # selection, reductions and magnitudes
    # ------------------------------------------------------------------
    def sum(self, axis=None):
        """Sum of elements; a scalar when ``axis`` is None."""
        r = self.real.sum(axis=axis)
        i = self.imag.sum(axis=axis)
        if isinstance(r, self.real_type):
            return self._wrap(r, i)
        return self.scalar_type(r, i)

    @classmethod
    def where(cls, mask, a, b) -> "ComplexPlaneArray":
        """Element-wise select, broadcasting like :meth:`PlaneArray.where`."""
        a_re, a_im = cls._split(a)
        b_re, b_im = cls._split(b)
        return cls._wrap(cls.real_type.where(mask, a_re, b_re),
                         cls.real_type.where(mask, a_im, b_im))

    @classmethod
    def _split(cls, value):
        """Anything coercible as ``(real, imag)`` for the real ``where``."""
        if isinstance(value, (cls, cls.scalar_type)):
            return value.real, value.imag
        if isinstance(value, cls.real_type):
            return value, np.zeros_like(value._components()[0])
        if isinstance(value, cls.real_type.scalar_type):
            return value, 0.0
        values = np.asarray(value, dtype=np.complex128)
        return values.real, values.imag

    def conjugate(self) -> "ComplexPlaneArray":
        return self._wrap(self.real, -self.imag)

    def abs2(self):
        return self.real * self.real + self.imag * self.imag

    def abs_double(self) -> np.ndarray:
        """Per-element magnitude rounded to a hardware double."""
        return np.abs(self.to_complex128())
