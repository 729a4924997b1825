"""Batch array backends: one arithmetic, many solution paths side by side.

The batched path-tracking engine stores the state of ``B`` paths of an
``n``-dimensional homotopy as a single ``(n, B)`` array -- a structure of
arrays with one *lane* (column) per path.  This module abstracts the three
array types that can hold such a batch:

* hardware ``complex128`` NumPy arrays (the ``d`` context),
* :class:`~repro.multiprec.ddarray.ComplexDDArray` (the ``dd`` context), and
* :class:`~repro.multiprec.qdarray.ComplexQDArray` (the ``qd`` context),

whose element-wise operation sequences are bit-for-bit identical to the
scalar :class:`~repro.multiprec.complex_dd.ComplexDD` /
:class:`~repro.multiprec.numeric.ComplexQD` loops.

All support ``+ - * /``, unary minus, NumPy-style indexing and broadcasting
against ``(B,)`` weight vectors, so the batched evaluator, linear solver and
tracker are written once against this small :class:`ComplexBatchBackend`
interface.  The two multiprecision backends are one implementation,
:class:`PlaneBackend`, over their complex plane array types.  The set of
backends is fixed: :func:`backend_for_context` returns the one for a
context and raises :class:`~repro.errors.ConfigurationError` for any other,
so no caller can swap the arithmetic another solve runs.
"""

from __future__ import annotations

import functools
from typing import List, Sequence, Union

import numpy as np

from ..errors import ConfigurationError
from .ddarray import ComplexDDArray, DDArray
from .numeric import DOUBLE, DOUBLE_DOUBLE, QUAD_DOUBLE, NumericContext
from .qdarray import ComplexQDArray

__all__ = [
    "ComplexBatchBackend",
    "Complex128Backend",
    "ComplexDDBackend",
    "ComplexQDBackend",
    "COMPLEX128_BACKEND",
    "COMPLEX_DD_BACKEND",
    "COMPLEX_QD_BACKEND",
    "PlaneBackend",
    "backend_for_context",
    "backend_named",
    "convert_batch",
    "masked_lane_errstate",
]

BatchArray = Union[np.ndarray, ComplexDDArray, ComplexQDArray]


def masked_lane_errstate():
    """An ``np.errstate`` scope for arithmetic over masked lane batches.

    The batched engine keeps retired and diverging lanes *in* the arrays and
    masks them out of control decisions, so dead lanes legitimately carry
    inf/NaN through the arithmetic (``inf - inf``, overflowing ``|pivot|^2``
    magnitudes, ...).  NumPy would emit a RuntimeWarning per ufunc for
    those lanes; every masked-batch hot loop (the batched corrector, linear
    solver and tracker rounds) runs inside this scope so dead lanes stay
    silent while the per-lane masks -- not warnings -- report failures.
    """
    return np.errstate(divide="ignore", invalid="ignore",
                       over="ignore", under="ignore")


class ComplexBatchBackend:
    """Interface of a batch array backend (see module docstring).

    Concrete backends provide construction, masked selection, double-rounded
    magnitudes (for pivoting and norms -- control decisions, not results),
    stacking of rows, and conversion back to the context's scalar type.
    """

    name: str = "?"
    context: NumericContext

    # -- construction ---------------------------------------------------
    def from_points(self, points: Sequence[Sequence]) -> BatchArray:
        """Pack ``B`` solution vectors into an ``(n, B)`` lane array.

        Each point is a sequence of scalars; scalars of a *narrower*
        arithmetic (``complex`` into ``dd``/``qd``, ``ComplexDD`` into
        ``qd``) embed exactly, scalars of a wider one are rounded.

        Raises
        ------
        ConfigurationError
            When the points do not all share one dimension.
        """
        n = len(points[0]) if points else 0
        if any(len(point) != n for point in points):
            raise ConfigurationError(
                "all start solutions must have the same dimension")
        encode = self.scalar_to_planes
        return self.from_lane_planes([[encode(x) for x in point]
                                      for point in points])

    def zeros(self, shape) -> BatchArray:
        """An all-zeros batch array of the given shape."""
        raise NotImplementedError

    def ones(self, shape) -> BatchArray:
        """An all-ones batch array of the given shape."""
        raise NotImplementedError

    def full(self, shape, value: complex) -> BatchArray:
        """A batch array with every element set to ``value``."""
        raise NotImplementedError

    # -- structure ------------------------------------------------------
    def stack(self, rows: Sequence[BatchArray]) -> BatchArray:
        """Stack ``n`` lane vectors of shape ``(B,)`` into ``(n, B)``."""
        raise NotImplementedError

    def copy(self, array: BatchArray) -> BatchArray:
        """An independent deep copy of a batch array."""
        raise NotImplementedError

    # -- masked selection ----------------------------------------------
    def where(self, mask: np.ndarray, a, b) -> BatchArray:
        """``a`` where ``mask`` else ``b`` (mask broadcasts NumPy-style)."""
        raise NotImplementedError

    # -- in-place accumulation ------------------------------------------
    # The inner loops of the batched evaluator, linear solver and corrector
    # rebind their accumulators (``acc = backend.iadd(acc, v)``), so these
    # defaults -- correct for any backend -- may return a fresh array.  The
    # built-in backends override them with true in-place updates that are
    # bit-for-bit identical to the out-of-place expressions but free of
    # wrapper and plane churn.  ``acc`` must be exclusively owned by the
    # caller (never a shared or caller-visible input).

    def iadd(self, acc: BatchArray, value) -> BatchArray:
        """``acc + value``, overwriting ``acc`` when the backend can."""
        return acc + value

    def isub_mul(self, acc: BatchArray, factor, value) -> BatchArray:
        """``acc - factor * value``, overwriting ``acc`` when possible."""
        return acc - factor * value

    def iadd_mul(self, acc: BatchArray, a, b) -> BatchArray:
        """``acc + a * b``, overwriting ``acc`` when the backend can.

        The weighted accumulate of the compiled evaluation plans
        (:mod:`repro.core.evalplan`): ``a`` and ``b`` may each be a batch
        array or a scalar weight, and the product is formed exactly as the
        expression ``a * b`` would (same operand order), so the in-place
        landing stays bit-for-bit with ``acc + a * b``.
        """
        return self.iadd(acc, a * b)

    def iadd_masked(self, acc: BatchArray, value, mask) -> BatchArray:
        """``where(mask, acc + value, acc)``, overwriting ``acc`` if possible."""
        return self.where(np.asarray(mask, dtype=bool), acc + value, acc)

    # -- into-operations (the plan tape's Python loop) ------------------
    # The Python loop of :mod:`repro.core.tape` lands results in the plan's
    # persistent slot arrays instead of fresh allocations.  Every
    # ``*_into`` computes exactly the floating-point sequence of the
    # corresponding out-of-place expression, then writes ``out``'s storage;
    # callers always use the *returned* array, so these generic defaults --
    # which ignore ``out`` and allocate -- stay correct for third-party
    # backends that never override them.

    def mul_into(self, out: BatchArray, a, b) -> BatchArray:
        """``a * b`` landed in ``out`` (same operand order as ``a * b``).

        ``out`` may alias either operand; at most one of ``a``/``b`` may be
        a scalar weight.
        """
        return a * b

    def copy_into(self, out: BatchArray, src: BatchArray) -> BatchArray:
        """``src`` copied into ``out`` (bit-for-bit with :meth:`copy`)."""
        return self.copy(src)

    def full_into(self, out: BatchArray, value: complex) -> BatchArray:
        """``out`` filled with ``value`` (bit-for-bit with :meth:`full`)."""
        return self.full(out.shape, value)

    def zero_into(self, out: BatchArray) -> BatchArray:
        """``out`` zeroed (bit-for-bit with :meth:`zeros`)."""
        return self.zeros(out.shape)

    def component_planes(self, array: BatchArray):
        """The float planes of a batch array, in storage order.

        Returns a tuple of ndarrays that hold the array's values
        bit-for-bit (the native plan tapes read and embed through them),
        or ``None`` when the backend has no lossless plane decomposition.
        """
        return None

    def embed_complex128(self, values: np.ndarray):
        """A ``complex128`` weight vector embedded in this arithmetic.

        Bit-for-bit with what the backend's arrays coerce such an operand
        to; the default passthrough is correct wherever the arithmetic
        multiplies ndarray weights directly.
        """
        return values

    # -- rounding / inspection ------------------------------------------
    def magnitude(self, array: BatchArray) -> np.ndarray:
        """Element-wise ``|z|`` rounded to hardware doubles.

        Used for pivot selection and convergence norms: following
        :mod:`repro.tracking.linsolve`, control decisions are taken on
        double-rounded magnitudes while the data stays in the working
        arithmetic.
        """
        raise NotImplementedError

    def to_complex128(self, array: BatchArray) -> np.ndarray:
        """The whole batch rounded to a hardware ``complex128`` ndarray."""
        raise NotImplementedError

    # -- lane planes: the checkpoint format ------------------------------
    # A lane leaves and re-enters a batch as its float planes in storage
    # order, taken as they are: inf, NaN and signed zeros survive.

    #: Float planes per complex scalar of this context.
    planes_per_scalar: int

    def lane_planes(self, array: BatchArray) -> List[tuple]:
        """Every lane of an ``(n, B)`` array as ``n`` per-coordinate
        tuples of float planes; :meth:`from_lane_planes` packs them back
        bit for bit."""
        raise NotImplementedError

    def from_lane_planes(self, lanes: Sequence[Sequence[Sequence[float]]]
                         ) -> BatchArray:
        """Pack ``B`` lanes of ``n`` per-coordinate plane sequences (each
        :attr:`planes_per_scalar` floats) into an ``(n, B)`` array, bit
        for bit."""
        raise NotImplementedError

    def scalar_to_planes(self, x) -> tuple:
        """One scalar as this context's float planes, exactly as
        :meth:`from_points` packs it: a scalar of this context or a
        narrower one keeps every bit, a wider one is rounded."""
        raise NotImplementedError

    def scalar_from_planes(self, planes: Sequence[float]):
        """The context scalar whose planes are ``planes``, bit for bit."""
        raise NotImplementedError


def _lanes(planes: Sequence[np.ndarray]) -> List[tuple]:
    """``(n, B)`` float planes as ``B`` lanes of ``n`` plane tuples."""
    lanes = np.stack(planes, axis=-1).transpose(1, 0, 2).tolist()
    return [tuple(map(tuple, lane)) for lane in lanes]


def _packed(lanes: Sequence, width: int) -> np.ndarray:
    """``B`` lanes of ``n`` plane sequences as a ``(B, n, width)`` array."""
    n = len(lanes[0]) if len(lanes) else 0
    return np.array(lanes, dtype=np.float64).reshape(len(lanes), n, width)


class Complex128Backend(ComplexBatchBackend):
    """Hardware complex doubles: plain ``complex128`` ndarrays."""

    name = "d"
    context = DOUBLE
    array_type = np.ndarray
    planes_per_scalar = 2

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.complex128)

    def ones(self, shape) -> np.ndarray:
        return np.ones(shape, dtype=np.complex128)

    def full(self, shape, value: complex) -> np.ndarray:
        return np.full(shape, complex(value), dtype=np.complex128)

    def stack(self, rows: Sequence[np.ndarray]) -> np.ndarray:
        return np.stack([np.asarray(r, dtype=np.complex128) for r in rows])

    def copy(self, array: np.ndarray) -> np.ndarray:
        return np.array(array, dtype=np.complex128, copy=True)

    def where(self, mask, a, b) -> np.ndarray:
        return np.where(np.asarray(mask, dtype=bool), a, b)

    def iadd(self, acc: np.ndarray, value) -> np.ndarray:
        np.add(acc, value, out=acc)
        return acc

    def isub_mul(self, acc: np.ndarray, factor, value) -> np.ndarray:
        acc -= factor * value
        return acc

    def iadd_mul(self, acc: np.ndarray, a, b) -> np.ndarray:
        acc += a * b
        return acc

    def iadd_masked(self, acc: np.ndarray, value, mask) -> np.ndarray:
        np.copyto(acc, acc + value, where=np.asarray(mask, dtype=bool))
        return acc

    def mul_into(self, out: np.ndarray, a, b) -> np.ndarray:
        np.multiply(a, b, out=out)
        return out

    def copy_into(self, out: np.ndarray, src: np.ndarray) -> np.ndarray:
        np.copyto(out, src)
        return out

    def full_into(self, out: np.ndarray, value: complex) -> np.ndarray:
        out[...] = complex(value)
        return out

    def zero_into(self, out: np.ndarray) -> np.ndarray:
        out[...] = 0.0
        return out

    def component_planes(self, array: np.ndarray):
        return (array,)

    def magnitude(self, array: np.ndarray) -> np.ndarray:
        return np.abs(array)

    def to_complex128(self, array: np.ndarray) -> np.ndarray:
        return np.asarray(array, dtype=np.complex128)

    def lane_planes(self, array: np.ndarray) -> List[tuple]:
        return _lanes((array.real, array.imag))

    def from_lane_planes(self, lanes) -> np.ndarray:
        # (B, n, 2) floats viewed as (B, n) complex, then lanes as columns.
        return _packed(lanes, 2).view(np.complex128)[..., 0].T

    def scalar_to_planes(self, x) -> tuple:
        z = complex(x)
        return z.real, z.imag

    def scalar_from_planes(self, planes: Sequence[float]) -> complex:
        return complex(planes[0], planes[1])


class PlaneBackend(ComplexBatchBackend):
    """Complex multiprecision numbers stored as float64 planes (SoA).

    One implementation for double-double and quad-double: a subclass names
    its context and its :class:`~repro.multiprec.planearray.
    ComplexPlaneArray` type as class attributes, so a backend instance holds
    no state of its own.
    """

    array_type: type

    @property
    def planes_per_scalar(self) -> int:
        return self.array_type.plane_count

    def zeros(self, shape):
        return self.array_type.zeros(shape)

    def ones(self, shape):
        return self.array_type.ones(shape)

    def full(self, shape, value: complex):
        value = complex(value)
        kind = self.array_type.real_type
        return self.array_type._wrap(kind(np.full(shape, value.real)),
                                     kind(np.full(shape, value.imag)))

    def stack(self, rows: Sequence):
        rows = [r if isinstance(r, self.array_type)
                else self.array_type.from_complex128(r) for r in rows]
        planes = [np.stack(plane) for plane in zip(*(r._planes() for r in rows))]
        half = len(planes) // 2
        kind = self.array_type.real_type
        return self.array_type._wrap(kind(*planes[:half]), kind(*planes[half:]))

    def copy(self, array):
        return array.copy()

    def where(self, mask, a, b):
        return self.array_type.where(mask, a, b)

    def iadd(self, acc, value):
        return acc.iadd_(value)

    def isub_mul(self, acc, factor, value):
        # Multiply and subtract in one kernel pass; the product's bits are
        # exactly ``acc.mul_operand(factor) * value``'s (the walk expression).
        return acc.isub_mul_(factor, value)

    def iadd_mul(self, acc, a, b):
        if isinstance(a, self.array_type):
            return acc.iadd_mul_(a, b)
        if isinstance(b, self.array_type):
            return acc.iadd_mul_(b, a)
        return acc.iadd_(a * b)

    def iadd_masked(self, acc, value, mask):
        return acc.iadd_where_(value, mask)

    def mul_into(self, out, a, b):
        if isinstance(a, self.array_type):
            return out.assign_mul_(a, a.mul_operand(b))
        return out.assign_mul_(b, b.mul_operand(a))

    def copy_into(self, out, src):
        for dst, plane in zip(out._planes(), src._planes()):
            np.copyto(dst, plane)
        return out

    def full_into(self, out, value: complex):
        # Replay full()'s constructor renormalisation on one element, then
        # broadcast the resulting components (renorm is element-wise).
        for dst, plane in zip(out._planes(), self.full((1,), value)._planes()):
            dst[...] = plane[0]
        return out

    def zero_into(self, out):
        for plane in out._planes():
            plane[...] = 0.0
        return out

    def component_planes(self, array):
        return array._planes()

    def embed_complex128(self, values: np.ndarray):
        # What the array's _coerce does with an ndarray operand.
        return self.array_type.from_complex128(values)

    def magnitude(self, array) -> np.ndarray:
        return array.abs_double()

    def to_complex128(self, array) -> np.ndarray:
        return array.to_complex128()

    def lane_planes(self, array) -> List[tuple]:
        return _lanes(array._planes())

    def from_lane_planes(self, lanes):
        packed = _packed(lanes, self.array_type.plane_count)
        return self.array_type.from_planes(
            np.ascontiguousarray(packed.transpose(2, 1, 0)))

    def scalar_to_planes(self, x) -> tuple:
        return self.array_type.scalar_to_planes(x)

    def scalar_from_planes(self, planes: Sequence[float]):
        return self.array_type.scalar_from_planes(planes)


class ComplexDDBackend(PlaneBackend):
    """Complex double-doubles stored as four float64 planes (SoA)."""

    name = "dd"
    context = DOUBLE_DOUBLE
    array_type = ComplexDDArray


class ComplexQDBackend(PlaneBackend):
    """Complex quad-doubles stored as eight float64 planes (SoA)."""

    name = "qd"
    context = QUAD_DOUBLE
    array_type = ComplexQDArray


COMPLEX128_BACKEND = Complex128Backend()
COMPLEX_DD_BACKEND = ComplexDDBackend()
COMPLEX_QD_BACKEND = ComplexQDBackend()

#: The batch backends, one per context the batch stack runs.
_BUILT_IN = (COMPLEX128_BACKEND, COMPLEX_DD_BACKEND, COMPLEX_QD_BACKEND)


def _narrow_qd_to_dd(array: ComplexQDArray) -> ComplexDDArray:
    """Each quad-double's two leading components as a double-double."""
    return ComplexDDArray(DDArray(array.real.c0, array.real.c1),
                          DDArray(array.imag.c0, array.imag.c1))


def _zero_extend(array_type, values: np.ndarray):
    """Each double of ``values`` as the leading component of an element of
    ``array_type``, its other planes zero.  Unlike ``from_complex128``,
    whose double-double embedding renormalises ``(x, 0)`` (a -0.0 comes
    back +0.0, an inf as ``(inf, nan)``), every bit is kept."""
    values = np.asarray(values, dtype=np.complex128)
    planes = np.zeros((array_type.plane_count,) + values.shape)
    planes[0] = values.real
    planes[array_type.plane_count // 2] = values.imag
    return array_type.from_planes(planes)


#: Conversions between the multiprecision batch arrays, keyed by (source
#: context name, target context name).  Widening embeds every element
#: bit-for-bit: d -> dd/qd zero-extends the float64 planes, dd -> qd
#: promotes the (hi, lo) pair to the two leading quad-double components
#: (the vectorised ``QuadDouble.from_double_double``).
_CONVERSIONS = {
    ("d", "dd"): functools.partial(_zero_extend, ComplexDDArray),
    ("d", "qd"): functools.partial(_zero_extend, ComplexQDArray),
    ("dd", "qd"): ComplexQDArray.from_complex_dd,
    ("qd", "dd"): _narrow_qd_to_dd,
}


def convert_batch(array: BatchArray, source: ComplexBatchBackend,
                  target: ComplexBatchBackend) -> BatchArray:
    """Convert a batch array between two backends.

    This is how a :class:`~repro.tracking.batch_tracker.LaneCheckpoint`
    captured at one rung of the escalation ladder becomes the starting state
    of the next rung: the whole ``(n, B)`` structure of arrays moves between
    arithmetics in a handful of NumPy plane operations, no per-element loop.

    Parameters
    ----------
    array:
        A batch array produced by ``source`` (e.g. ``(n, B)`` lane points).
    source / target:
        The backends the array belongs to and should be converted into.

    Returns
    -------
    BatchArray
        A fresh array owned by ``target``.  Widening conversions (``d -> dd
        -> qd``) are exact plane embeddings -- every element is preserved
        bit-for-bit, which is what makes warm-restarted escalation resume
        from precisely the state the cheaper rung left behind.  Narrowing
        conversions truncate each element to its leading component planes,
        like any precision demotion.
    """
    pair = source.context.name, target.context.name
    if pair[0] == pair[1]:
        return target.copy(array)
    if pair[1] == "d":
        return source.to_complex128(array)
    return _CONVERSIONS[pair](array)


def backend_named(name: str) -> ComplexBatchBackend:
    """The batch backend of the numeric context called ``name``.

    Raises
    ------
    ConfigurationError
        For a context the batch stack does not run.
    """
    for backend in _BUILT_IN:
        if backend.name == name:
            return backend
    raise ConfigurationError(
        f"no batch array backend for numeric context {name!r}; available: "
        f"{[backend.name for backend in _BUILT_IN]}")


def backend_for_context(context: NumericContext) -> ComplexBatchBackend:
    """The batch backend matching a scalar numeric context.

    Raises
    ------
    ConfigurationError
        For contexts without a vectorised array type.
    """
    return backend_named(context.name)
