"""Multiprecision arithmetic substrate (double-double / quad-double).

This subpackage replaces the QD 2.3.9 library the paper links against.  It
provides:

* :mod:`~repro.multiprec.eft` -- error-free transformations (TwoSum, TwoProd,
  Dekker splitting) shared by everything else;
* the dd and qd arithmetic, written once in Python over component tuples
  that hold floats or float64 planes: the QD sequences of
  :mod:`~repro.multiprec.double_double` and
  :mod:`~repro.multiprec.quad_double`, composed into complex by
  :func:`~repro.multiprec.scalar.complex_chains`;
* :class:`~repro.multiprec.double_double.DoubleDouble` and
  :class:`~repro.multiprec.quad_double.QuadDouble` -- scalar extended
  precision reals;
* :class:`~repro.multiprec.complex_dd.ComplexDD` and
  :class:`~repro.multiprec.quad_double.ComplexQD` -- complex variants used by
  the polynomial evaluators.  The four share one numeric protocol,
  :mod:`~repro.multiprec.scalar` (one real and one complex base class),
  which runs those sequences on their components; the precision modules
  hold only their per-precision parts;
* :class:`~repro.multiprec.ddarray.DDArray` /
  :class:`~repro.multiprec.ddarray.ComplexDDArray` and
  :class:`~repro.multiprec.qdarray.QDArray` /
  :class:`~repro.multiprec.qdarray.ComplexQDArray` -- vectorised NumPy-backed
  double-double and quad-double arrays for the bulk benchmarks and the
  batched path tracker, whose element-wise arithmetic runs through the
  compiled plane kernels of :mod:`~repro.multiprec.compiled` (built and
  cached on first import), with the same sequences on planes as their
  reference chains.  Both precisions share one implementation,
  :mod:`~repro.multiprec.planearray`; the two modules hold only their
  per-precision parts;
* :mod:`~repro.multiprec.backend` -- the batch backends of the ``d``,
  ``dd`` and ``qd`` contexts (one :class:`~repro.multiprec.backend.
  PlaneBackend` implementation for ``dd`` and ``qd``);
* :class:`~repro.multiprec.numeric.NumericContext` -- the arithmetic
  abstraction that makes the kernels generic over precision and feeds the
  cost model the relative multiplication cost (the paper's "factor of 8").
"""

from .complex_dd import ComplexDD, cdd
from .ddarray import ComplexDDArray, DDArray
from .double_double import DoubleDouble, dd
from .eft import quick_two_sum, split, two_diff, two_prod, two_sqr, two_sum
from .numeric import (
    CONTEXTS,
    DOUBLE,
    DOUBLE_DOUBLE,
    QUAD_DOUBLE,
    NumericContext,
    get_context,
)
from .qdarray import ComplexQDArray, QDArray
from .quad_double import ComplexQD, QuadDouble, qd

__all__ = [
    "ComplexDD",
    "ComplexDDArray",
    "ComplexQD",
    "ComplexQDArray",
    "CONTEXTS",
    "DDArray",
    "DOUBLE",
    "DOUBLE_DOUBLE",
    "DoubleDouble",
    "NumericContext",
    "QDArray",
    "QUAD_DOUBLE",
    "QuadDouble",
    "cdd",
    "dd",
    "get_context",
    "qd",
    "quick_two_sum",
    "split",
    "two_diff",
    "two_prod",
    "two_sqr",
    "two_sum",
]
