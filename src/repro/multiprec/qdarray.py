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
:class:`~repro.multiprec.quad_double.ComplexQD`.  Both are
:mod:`repro.multiprec.planearray` types: this module supplies only the
quad-double parts -- the planes, the constructor's renormalisation, the
scalar component rules, the reference chains and the exact widening of
double-double arrays.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from . import compiled
from .double_double import DoubleDouble
from .eft import quick_two_sum, two_prod, two_sum
from .planearray import ComplexPlaneArray, PlaneArray
from .quad_double import ComplexQD, QuadDouble

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
# the array types
# ----------------------------------------------------------------------
class QDArray(PlaneArray, prefix="qd", chains=(
        _add_planes_ref, _sub_planes_ref, _mul_planes_ref, _div_planes_ref)):
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
    width = 4
    scalar_type = QuadDouble
    default_tol = 1e-60

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

    @classmethod
    def _raw(cls, c0, c1, c2, c3) -> "QDArray":
        out = object.__new__(cls)
        out.c0 = c0
        out.c1 = c1
        out.c2 = c2
        out.c3 = c3
        return out

    def _components(self) -> Tuple[np.ndarray, ...]:
        return self.c0, self.c1, self.c2, self.c3

    @staticmethod
    def _embed(values):
        z = np.zeros_like(values)
        return values.copy(), z, z.copy(), z.copy()

    @staticmethod
    def _parts(value):
        if isinstance(value, QuadDouble):
            return value.c
        if isinstance(value, DoubleDouble):
            return value.hi, value.lo, 0.0, 0.0
        return float(value), 0.0, 0.0, 0.0

    @staticmethod
    def _scalar(parts) -> QuadDouble:
        return QuadDouble._raw(tuple(map(float, parts)))

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
        return cls._raw(values.hi.copy(), values.lo.copy(), z, z.copy())


class ComplexQDArray(ComplexPlaneArray, real_type=QDArray,
                     scalar_type=ComplexQD, prefix="cqd"):
    """An array of complex quad-doubles: a (real, imag) pair of QDArrays."""

    __slots__ = ()

    @classmethod
    def from_complex_dd(cls, values) -> "ComplexQDArray":
        """Exact plane widening of a :class:`~repro.multiprec.ddarray.
        ComplexDDArray`: each real/imaginary double-double pair becomes the
        two leading quad-double components (see :meth:`QDArray.from_ddarray`).

        This is the d -> dd -> qd escalation's batch conversion: a whole
        ``(n, B)`` double-double lane array is widened in eight NumPy copies,
        with every lane's value preserved bit-for-bit.
        """
        return cls._wrap(QDArray.from_ddarray(values.real),
                         QDArray.from_ddarray(values.imag))
