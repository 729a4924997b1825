"""Vectorised double-double arrays.

The scalar classes in :mod:`repro.multiprec.double_double` are convenient but
slow in pure Python.  For the cost-factor experiments (the paper's "overhead
of double double arithmetic is around 8" observation) and for the multicore
CPU baseline we need bulk double-double arithmetic on NumPy arrays.

:class:`DDArray` stores an array of double-doubles as a pair of ``float64``
planes ``(hi, lo)``.  Its reference chains are the scalar class's own
sequences (:func:`~repro.multiprec.double_double.dd_add` ...
:func:`~repro.multiprec.double_double.dd_div`) run on planes, and the
compiled ``dd_*`` kernels replay them, so results are bit-for-bit equal to
looping over :class:`~repro.multiprec.double_double.DoubleDouble` scalars.
:class:`ComplexDDArray` pairs two of them, mirroring
:class:`repro.multiprec.complex_dd.ComplexDD`.

Both are :mod:`repro.multiprec.planearray` types: this module supplies only
the double-double parts -- the planes, the constructor's ``two_sum``
renormalisation, the scalar component rules and the kernel prefix.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .complex_dd import ComplexDD
from .double_double import DoubleDouble, dd_add, dd_div, dd_mul, dd_sub
from .eft import two_sum
from .planearray import ComplexPlaneArray, PlaneArray

__all__ = ["DDArray", "ComplexDDArray"]


class DDArray(PlaneArray, prefix="dd",
              chains=(dd_add, dd_sub, dd_mul, dd_div)):
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
