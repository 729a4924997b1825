"""Vectorised double-double arrays.

The scalar classes in :mod:`repro.multiprec.double_double` are convenient but
slow in pure Python.  For the cost-factor experiments (the paper's "overhead
of double double arithmetic is around 8" observation) and for the multicore
CPU baseline we need bulk double-double arithmetic on NumPy arrays.

:class:`DDArray` stores an array of double-doubles as a pair of ``float64``
planes ``(hi, lo)`` and implements element-wise arithmetic with exactly the
same operation sequences as the scalar class, so results are bit-for-bit equal
to looping over :class:`~repro.multiprec.double_double.DoubleDouble` scalars.
:class:`ComplexDDArray` pairs two of them, mirroring
:class:`repro.multiprec.complex_dd.ComplexDD`.

Both are :mod:`repro.multiprec.planearray` types: this module supplies only
the double-double parts -- the planes, the constructor's ``two_sum``
renormalisation, the scalar component rules and the reference chains.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .complex_dd import ComplexDD
from .double_double import DoubleDouble
from .eft import quick_two_sum, two_diff, two_prod, two_sum
from .planearray import ComplexPlaneArray, PlaneArray

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


class DDArray(PlaneArray, prefix="dd",
              chains=(_dd_add_ref, _dd_sub_ref, _dd_mul_ref, _dd_div_ref)):
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
    width = 2
    scalar_type = DoubleDouble
    default_tol = 1e-30

    def __init__(self, hi: np.ndarray, lo: Union[np.ndarray, None] = None):
        hi = np.asarray(hi, dtype=np.float64)
        if lo is None:
            lo = np.zeros_like(hi)
        else:
            lo = np.asarray(lo, dtype=np.float64)
        if hi.shape != lo.shape:
            raise ValueError(f"hi/lo shape mismatch: {hi.shape} vs {lo.shape}")
        # Normalise so the component invariant holds element-wise.
        self.hi, self.lo = two_sum(hi, lo)

    @classmethod
    def _raw(cls, hi, lo) -> "DDArray":
        out = object.__new__(cls)
        out.hi = hi
        out.lo = lo
        return out

    def _components(self):
        return self.hi, self.lo

    @staticmethod
    def _embed(values):
        # The constructor's renormalisation of (values, 0).
        return two_sum(values, np.zeros_like(values))

    @staticmethod
    def _parts(value):
        if isinstance(value, DoubleDouble):
            return value.hi, value.lo
        return float(value), 0.0

    @staticmethod
    def _scalar(parts) -> DoubleDouble:
        return DoubleDouble._raw((float(parts[0]), float(parts[1])))


class ComplexDDArray(ComplexPlaneArray, real_type=DDArray,
                     scalar_type=ComplexDD, prefix="cdd"):
    """An array of complex double-doubles: a (real, imag) pair of DDArrays."""

    __slots__ = ()
