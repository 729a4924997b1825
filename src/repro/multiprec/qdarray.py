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
:mod:`repro.multiprec.compiled` when they are loaded.  The reference chains
are the scalar's own sequences (:func:`~repro.multiprec.quad_double.
qd_chains`) run on planes; they run when no kernels could be built, when a
plane layout does not fit the kernels, and as the test oracle.

The one step those sequences take in another form on planes is the QD
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
scalar component rules, the vectorised renormalisation its reference
chains finish with and the exact widening of double-double arrays.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from . import compiled
from .double_double import DoubleDouble
from .eft import quick_two_sum
from .planearray import ComplexPlaneArray, PlaneArray
from .quad_double import ComplexQD, QuadDouble, qd_chains

__all__ = ["QDArray", "ComplexQDArray"]


# ----------------------------------------------------------------------
# vectorised renormalisation (QD's renorm, branch tree flattened)
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# the array types
# ----------------------------------------------------------------------
class QDArray(PlaneArray, prefix="qd", chains=qd_chains(_renorm5)):
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
