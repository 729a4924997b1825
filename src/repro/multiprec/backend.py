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
interface.  Backends live in a registry keyed by the context name:
:func:`register_backend` admits new arithmetics without touching the engine,
and :func:`backend_for_context` raises
:class:`~repro.errors.ConfigurationError` for contexts with no registered
vectorised array type.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

import numpy as np

from ..errors import ConfigurationError
from .complex_dd import ComplexDD
from .ddarray import ComplexDDArray, DDArray, complex_dd_mul_into, dd_mul_operand
from .double_double import DoubleDouble
from .numeric import DOUBLE, DOUBLE_DOUBLE, QUAD_DOUBLE, ComplexQD, NumericContext
from .qdarray import ComplexQDArray, QDArray, complex_qd_mul_into, qd_mul_operand
from .quad_double import QuadDouble

__all__ = [
    "ComplexBatchBackend",
    "Complex128Backend",
    "ComplexDDBackend",
    "ComplexQDBackend",
    "COMPLEX128_BACKEND",
    "COMPLEX_DD_BACKEND",
    "COMPLEX_QD_BACKEND",
    "backend_for_context",
    "convert_batch",
    "masked_lane_errstate",
    "register_backend",
    "registered_backends",
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
        raise NotImplementedError

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

    def lane_scalars(self, array: BatchArray, lane: int) -> List:
        """Column ``lane`` of an ``(n, B)`` array as context scalars.

        The returned scalars round-trip: feeding them back through
        :meth:`from_points` reproduces the lane bit-for-bit.  This is the
        export path of :meth:`repro.tracking.batch_tracker.PathBatch.
        checkpoint`.
        """
        raise NotImplementedError


class Complex128Backend(ComplexBatchBackend):
    """Hardware complex doubles: plain ``complex128`` ndarrays."""

    name = "d"
    context = DOUBLE

    def from_points(self, points: Sequence[Sequence]) -> np.ndarray:
        columns = [[complex(x) for x in point] for point in points]
        return np.array(columns, dtype=np.complex128).T

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

    def lane_scalars(self, array: np.ndarray, lane: int) -> List[complex]:
        return [complex(z) for z in array[:, lane]]


class ComplexDDBackend(ComplexBatchBackend):
    """Complex double-doubles stored as four float64 planes (SoA)."""

    name = "dd"
    context = DOUBLE_DOUBLE

    def from_points(self, points: Sequence[Sequence]) -> ComplexDDArray:
        n = len(points[0]) if points else 0
        b = len(points)
        re_hi = np.zeros((n, b))
        re_lo = np.zeros((n, b))
        im_hi = np.zeros((n, b))
        im_lo = np.zeros((n, b))
        for lane, point in enumerate(points):
            if len(point) != n:
                raise ConfigurationError("all start solutions must have the same dimension")
            for i, x in enumerate(point):
                if isinstance(x, ComplexDD):
                    re_hi[i, lane], re_lo[i, lane] = x.real.hi, x.real.lo
                    im_hi[i, lane], im_lo[i, lane] = x.imag.hi, x.imag.lo
                elif isinstance(x, DoubleDouble):
                    re_hi[i, lane], re_lo[i, lane] = x.hi, x.lo
                else:
                    z = complex(x)
                    re_hi[i, lane], im_hi[i, lane] = z.real, z.imag
        return ComplexDDArray(DDArray(re_hi, re_lo), DDArray(im_hi, im_lo))

    def zeros(self, shape) -> ComplexDDArray:
        return ComplexDDArray.zeros(shape)

    def ones(self, shape) -> ComplexDDArray:
        return ComplexDDArray(DDArray.ones(shape), DDArray.zeros(shape))

    def full(self, shape, value: complex) -> ComplexDDArray:
        value = complex(value)
        return ComplexDDArray(DDArray(np.full(shape, value.real)),
                              DDArray(np.full(shape, value.imag)))

    def stack(self, rows: Sequence[ComplexDDArray]) -> ComplexDDArray:
        rows = [r if isinstance(r, ComplexDDArray)
                else ComplexDDArray.from_complex128(np.asarray(r, dtype=np.complex128))
                for r in rows]
        real = DDArray(np.stack([r.real.hi for r in rows]),
                       np.stack([r.real.lo for r in rows]))
        imag = DDArray(np.stack([r.imag.hi for r in rows]),
                       np.stack([r.imag.lo for r in rows]))
        return ComplexDDArray(real, imag)

    def copy(self, array: ComplexDDArray) -> ComplexDDArray:
        return array.copy()

    def where(self, mask, a, b) -> ComplexDDArray:
        return ComplexDDArray.where(mask, a, b)

    def iadd(self, acc: ComplexDDArray, value) -> ComplexDDArray:
        return acc.iadd_(value)

    def isub_mul(self, acc: ComplexDDArray, factor, value) -> ComplexDDArray:
        # Multiply and subtract in one kernel pass; the product's bits are
        # exactly ``acc._coerce(factor) * value``'s (the walk expression).
        return acc.isub_mul_(factor, value)

    def iadd_mul(self, acc: ComplexDDArray, a, b) -> ComplexDDArray:
        if isinstance(a, ComplexDDArray):
            return acc.iadd_mul_(a, b)
        if isinstance(b, ComplexDDArray):
            return acc.iadd_mul_(b, a)
        return acc.iadd_(a * b)

    def iadd_masked(self, acc: ComplexDDArray, value, mask) -> ComplexDDArray:
        return acc.iadd_where_(value, mask)

    def mul_into(self, out: ComplexDDArray, a, b) -> ComplexDDArray:
        if isinstance(a, ComplexDDArray):
            return complex_dd_mul_into(out, a, dd_mul_operand(a, b))
        return complex_dd_mul_into(out, b, dd_mul_operand(b, a))

    def copy_into(self, out: ComplexDDArray, src: ComplexDDArray
                  ) -> ComplexDDArray:
        np.copyto(out.real.hi, src.real.hi)
        np.copyto(out.real.lo, src.real.lo)
        np.copyto(out.imag.hi, src.imag.hi)
        np.copyto(out.imag.lo, src.imag.lo)
        return out

    def full_into(self, out: ComplexDDArray, value: complex) -> ComplexDDArray:
        # Replay full()'s constructor renormalisation on one element, then
        # broadcast the resulting components (renorm is element-wise).
        value = complex(value)
        re = DDArray(np.full((1,), value.real))
        im = DDArray(np.full((1,), value.imag))
        out.real.hi[...] = re.hi[0]
        out.real.lo[...] = re.lo[0]
        out.imag.hi[...] = im.hi[0]
        out.imag.lo[...] = im.lo[0]
        return out

    def zero_into(self, out: ComplexDDArray) -> ComplexDDArray:
        for plane in (out.real.hi, out.real.lo, out.imag.hi, out.imag.lo):
            plane[...] = 0.0
        return out

    def component_planes(self, array: ComplexDDArray):
        return (array.real.hi, array.real.lo, array.imag.hi, array.imag.lo)

    def embed_complex128(self, values: np.ndarray) -> ComplexDDArray:
        # What ComplexDDArray._coerce does with an ndarray operand.
        return ComplexDDArray.from_complex128(
            np.asarray(values, dtype=np.complex128))

    def magnitude(self, array: ComplexDDArray) -> np.ndarray:
        return array.abs_double()

    def to_complex128(self, array: ComplexDDArray) -> np.ndarray:
        return array.to_complex128()

    def lane_scalars(self, array: ComplexDDArray, lane: int) -> List[ComplexDD]:
        re_hi = array.real.hi[:, lane]
        re_lo = array.real.lo[:, lane]
        im_hi = array.imag.hi[:, lane]
        im_lo = array.imag.lo[:, lane]
        return [ComplexDD(DoubleDouble(float(rh), float(rl)),
                          DoubleDouble(float(ih), float(il)))
                for rh, rl, ih, il in zip(re_hi, re_lo, im_hi, im_lo)]


class ComplexQDBackend(ComplexBatchBackend):
    """Complex quad-doubles stored as eight float64 planes (SoA)."""

    name = "qd"
    context = QUAD_DOUBLE

    def from_points(self, points: Sequence[Sequence]) -> ComplexQDArray:
        n = len(points[0]) if points else 0
        b = len(points)
        re = [np.zeros((n, b)) for _ in range(4)]
        im = [np.zeros((n, b)) for _ in range(4)]
        for lane, point in enumerate(points):
            if len(point) != n:
                raise ConfigurationError("all start solutions must have the same dimension")
            for i, x in enumerate(point):
                if isinstance(x, ComplexDD):
                    x = ComplexQD(QuadDouble.from_double_double(x.real),
                                  QuadDouble.from_double_double(x.imag))
                elif isinstance(x, (DoubleDouble, QuadDouble)):
                    x = ComplexQD(QuadDouble(x))
                elif not isinstance(x, ComplexQD):
                    x = ComplexQD(complex(x))
                for c, plane in enumerate(re):
                    plane[i, lane] = x.real.c[c]
                for c, plane in enumerate(im):
                    plane[i, lane] = x.imag.c[c]
        return ComplexQDArray(QDArray(*re), QDArray(*im))

    def zeros(self, shape) -> ComplexQDArray:
        return ComplexQDArray.zeros(shape)

    def ones(self, shape) -> ComplexQDArray:
        return ComplexQDArray(QDArray.ones(shape), QDArray.zeros(shape))

    def full(self, shape, value: complex) -> ComplexQDArray:
        value = complex(value)
        return ComplexQDArray(QDArray(np.full(shape, value.real)),
                              QDArray(np.full(shape, value.imag)))

    def stack(self, rows: Sequence[ComplexQDArray]) -> ComplexQDArray:
        rows = [r if isinstance(r, ComplexQDArray)
                else ComplexQDArray.from_complex128(np.asarray(r, dtype=np.complex128))
                for r in rows]
        real = QDArray(*(np.stack([getattr(r.real, f"c{c}") for r in rows])
                         for c in range(4)))
        imag = QDArray(*(np.stack([getattr(r.imag, f"c{c}") for r in rows])
                         for c in range(4)))
        return ComplexQDArray(real, imag)

    def copy(self, array: ComplexQDArray) -> ComplexQDArray:
        return array.copy()

    def where(self, mask, a, b) -> ComplexQDArray:
        return ComplexQDArray.where(mask, a, b)

    def iadd(self, acc: ComplexQDArray, value) -> ComplexQDArray:
        return acc.iadd_(value)

    def isub_mul(self, acc: ComplexQDArray, factor, value) -> ComplexQDArray:
        return acc.isub_mul_(factor, value)

    def iadd_mul(self, acc: ComplexQDArray, a, b) -> ComplexQDArray:
        if isinstance(a, ComplexQDArray):
            return acc.iadd_mul_(a, b)
        if isinstance(b, ComplexQDArray):
            return acc.iadd_mul_(b, a)
        return acc.iadd_(a * b)

    def iadd_masked(self, acc: ComplexQDArray, value, mask) -> ComplexQDArray:
        return acc.iadd_where_(value, mask)

    def mul_into(self, out: ComplexQDArray, a, b) -> ComplexQDArray:
        if isinstance(a, ComplexQDArray):
            return complex_qd_mul_into(out, a, qd_mul_operand(a, b))
        return complex_qd_mul_into(out, b, qd_mul_operand(b, a))

    def copy_into(self, out: ComplexQDArray, src: ComplexQDArray
                  ) -> ComplexQDArray:
        for dst, plane in zip(out.real._components(), src.real._components()):
            np.copyto(dst, plane)
        for dst, plane in zip(out.imag._components(), src.imag._components()):
            np.copyto(dst, plane)
        return out

    def full_into(self, out: ComplexQDArray, value: complex) -> ComplexQDArray:
        # Replay full()'s constructor renormalisation on one element, then
        # broadcast the resulting components (renorm is element-wise).
        value = complex(value)
        re = QDArray(np.full((1,), value.real))
        im = QDArray(np.full((1,), value.imag))
        for dst, plane in zip(out.real._components(), re._components()):
            dst[...] = plane[0]
        for dst, plane in zip(out.imag._components(), im._components()):
            dst[...] = plane[0]
        return out

    def zero_into(self, out: ComplexQDArray) -> ComplexQDArray:
        for plane in out.real._components() + out.imag._components():
            plane[...] = 0.0
        return out

    def component_planes(self, array: ComplexQDArray):
        return array.real._components() + array.imag._components()

    def embed_complex128(self, values: np.ndarray) -> ComplexQDArray:
        # What ComplexQDArray._coerce does with an ndarray operand.
        return ComplexQDArray.from_complex128(
            np.asarray(values, dtype=np.complex128))

    def magnitude(self, array: ComplexQDArray) -> np.ndarray:
        return array.abs_double()

    def to_complex128(self, array: ComplexQDArray) -> np.ndarray:
        return array.to_complex128()

    def lane_scalars(self, array: ComplexQDArray, lane: int) -> List[ComplexQD]:
        re = [getattr(array.real, f"c{c}")[:, lane] for c in range(4)]
        im = [getattr(array.imag, f"c{c}")[:, lane] for c in range(4)]
        return [ComplexQD(QuadDouble._raw(tuple(float(p[i]) for p in re)),
                          QuadDouble._raw(tuple(float(p[i]) for p in im)))
                for i in range(len(re[0]))]


COMPLEX128_BACKEND = Complex128Backend()
COMPLEX_DD_BACKEND = ComplexDDBackend()
COMPLEX_QD_BACKEND = ComplexQDBackend()

_BACKENDS: Dict[str, ComplexBatchBackend] = {}


def register_backend(backend: ComplexBatchBackend) -> ComplexBatchBackend:
    """Register a batch backend under its context name (last one wins).

    The registry is what makes the batch stack precision-generic: the
    evaluator, linear solver and tracker only ever ask
    :func:`backend_for_context`, so a new arithmetic participates in batched
    tracking by registering its backend here.
    """
    _BACKENDS[backend.context.name] = backend
    return backend


def registered_backends() -> Dict[str, ComplexBatchBackend]:
    """A snapshot of the registry (context name -> backend)."""
    return dict(_BACKENDS)


for _backend in (COMPLEX128_BACKEND, COMPLEX_DD_BACKEND, COMPLEX_QD_BACKEND):
    register_backend(_backend)


#: Exact plane-widening conversions between the built-in batch arrays,
#: keyed by (source context name, target context name).  Widening embeds
#: every element bit-for-bit: d -> dd/qd zero-extends the float64 planes,
#: dd -> qd promotes the (hi, lo) pair to the two leading quad-double
#: components (the vectorised ``QuadDouble.from_double_double``).
_WIDENINGS = {
    ("d", "dd"): ComplexDDArray.from_complex128,
    ("d", "qd"): ComplexQDArray.from_complex128,
    ("dd", "qd"): ComplexQDArray.from_complex_dd,
}


def convert_batch(array: BatchArray, source: ComplexBatchBackend,
                  target: ComplexBatchBackend) -> BatchArray:
    """Convert a batch array between two registered backends.

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
    if source.context.name == target.context.name:
        return target.copy(array)
    widen = _WIDENINGS.get((source.context.name, target.context.name))
    if widen is not None:
        return widen(array)
    if (source.context.name, target.context.name) == ("qd", "dd"):
        return ComplexDDArray(DDArray(array.real.c0, array.real.c1),
                              DDArray(array.imag.c0, array.imag.c1))
    if target.context.name == "d":
        return source.to_complex128(array)
    # Generic (and slow) fallback for third-party registered backends:
    # round-trip through the source's lane scalars; target.from_points
    # performs whatever coercion it supports.
    lanes = array.shape[-1]
    return target.from_points([source.lane_scalars(array, lane)
                               for lane in range(lanes)])


def backend_for_context(context: NumericContext) -> ComplexBatchBackend:
    """The batch backend matching a scalar numeric context.

    Raises
    ------
    ConfigurationError
        For contexts without a registered vectorised array type.
    """
    backend = _BACKENDS.get(context.name)
    if backend is None:
        raise ConfigurationError(
            f"no batch array backend for numeric context {context.name!r}; "
            f"available: {sorted(_BACKENDS)} (register one with "
            f"repro.multiprec.backend.register_backend)"
        )
    return backend
