"""Quad-double arithmetic: the operation sequences and the scalar types.

A quad-double represents a real number as an unevaluated sum of four IEEE
doubles, giving roughly 64 significant decimal digits (212 bits).  The
paper selects the QD 2.3.9 library of Hida, Li & Bailey for exactly this
format; the algorithms below follow that library (renormalisation, sloppy
addition and multiplication, iterated-correction division), assembled from the
error-free transformations in :mod:`repro.multiprec.eft`.

:func:`qd_chains` writes those sequences once over ``(c0, c1, c2, c3)``
tuples whose components are either Python floats or float64 planes; it
takes the renormalisation that finishes each one, since that is the one
step whose form differs.  :class:`QuadDouble` runs them with the branch
tree of :func:`_renorm5` on floats; :class:`~repro.multiprec.qdarray.
QDArray` takes them as its reference chains with the vectorised
insertion of :mod:`repro.multiprec.qdarray` on planes, and the compiled
``qd_*`` kernels replay them bit for bit.

Quad doubles appear in the reproduction wherever the paper mentions "extended
multiprecision": the quality-up benchmarks compare double, double-double and
quad-double evaluation costs, and the path tracker accepts quad-double
coefficients through the same generic interface as the other scalar types.
The numeric protocol is :mod:`repro.multiprec.scalar`'s, shared with
double-double: this module holds the quad-double parts of
:class:`QuadDouble` and names the real type of :class:`ComplexQD`, the
complex quad-double of the ``qd`` context.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple, Union

from .double_double import DoubleDouble
from .eft import quick_two_sum, two_prod, two_sum
from .scalar import MultiprecComplex, MultiprecReal

__all__ = ["QuadDouble", "ComplexQD", "qd", "qd_chains"]

_EPS = 1.21543267145725e-63  # 2**-209


def _renorm5(c0: float, c1: float, c2: float, c3: float, c4: float
             ) -> Tuple[float, float, float, float]:
    """Renormalise five doubles into a canonical quad-double (QD ``renorm``).

    Non-finite leading components (inf *and* NaN) are kept untouched; the
    vectorised renorm in :mod:`repro.multiprec.qdarray` applies the same
    guard so batch lanes stay bit-for-bit with the scalar loop.
    """
    if not math.isfinite(c0):
        return c0, c1, c2, c3

    s0, c4 = quick_two_sum(c3, c4)
    s0, c3 = quick_two_sum(c2, s0)
    s0, c2 = quick_two_sum(c1, s0)
    c0, c1 = quick_two_sum(c0, s0)

    s0, s1 = c0, c1
    s2 = 0.0
    s3 = 0.0
    if s1 != 0.0:
        s1, s2 = quick_two_sum(s1, c2)
        if s2 != 0.0:
            s2, s3 = quick_two_sum(s2, c3)
            if s3 != 0.0:
                s3 += c4
            else:
                s2, s3 = quick_two_sum(s2, c4)
        else:
            s1, s2 = quick_two_sum(s1, c3)
            if s2 != 0.0:
                s2, s3 = quick_two_sum(s2, c4)
            else:
                s1, s2 = quick_two_sum(s1, c4)
    else:
        s0, s1 = quick_two_sum(s0, c2)
        if s1 != 0.0:
            s1, s2 = quick_two_sum(s1, c3)
            if s2 != 0.0:
                s2, s3 = quick_two_sum(s2, c4)
            else:
                s1, s2 = quick_two_sum(s1, c4)
        else:
            s0, s1 = quick_two_sum(s0, c3)
            if s1 != 0.0:
                s1, s2 = quick_two_sum(s1, c4)
            else:
                s0, s1 = quick_two_sum(s0, c4)
    return s0, s1, s2, s3


def _renorm4(c0: float, c1: float, c2: float, c3: float
             ) -> Tuple[float, float, float, float]:
    """Renormalise four doubles into a canonical quad-double.

    Keeps non-finite leading components untouched, like :func:`_renorm5`.
    """
    if not math.isfinite(c0):
        return c0, c1, c2, c3
    s0, c3 = quick_two_sum(c2, c3)
    s0, c2 = quick_two_sum(c1, s0)
    c0, c1 = quick_two_sum(c0, s0)

    s0, s1 = c0, c1
    s2 = 0.0
    s3 = 0.0
    if s1 != 0.0:
        s1, s2 = quick_two_sum(s1, c2)
        if s2 != 0.0:
            s2, s3 = quick_two_sum(s2, c3)
        else:
            s1, s2 = quick_two_sum(s1, c3)
    else:
        s0, s1 = quick_two_sum(s0, c2)
        if s1 != 0.0:
            s1, s2 = quick_two_sum(s1, c3)
        else:
            s0, s1 = quick_two_sum(s0, c3)
    return s0, s1, s2, s3


# ----------------------------------------------------------------------
# the sequences, on (c0, c1, c2, c3) tuples of floats or of float64 planes
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


def qd_chains(renorm5):
    """QD's ``sloppy_add``, subtraction, ``sloppy_mul`` and ``sloppy_div``,
    in the order a ``chains=`` class keyword takes them, each finishing
    with ``renorm5`` (five components in, four out).

    The caller refuses a zero divisor.
    """

    def qd_add(x, y):
        s0, t0 = two_sum(x[0], y[0])
        s1, t1 = two_sum(x[1], y[1])
        s2, t2 = two_sum(x[2], y[2])
        s3, t3 = two_sum(x[3], y[3])

        s1, t0 = two_sum(s1, t0)
        s2, t0, t1 = _three_sum(s2, t0, t1)
        s3, t0 = _three_sum2(s3, t0, t2)
        t0 = t0 + t1 + t3
        return renorm5(s0, s1, s2, s3, t0)

    def qd_sub(x, y):
        return qd_add(x, (-y[0], -y[1], -y[2], -y[3]))

    def qd_mul(x, y):
        p0, q0 = two_prod(x[0], y[0])
        p1, q1 = two_prod(x[0], y[1])
        p2, q2 = two_prod(x[1], y[0])
        p3, q3 = two_prod(x[0], y[2])
        p4, q4 = two_prod(x[1], y[1])
        p5, q5 = two_prod(x[2], y[0])

        # order eps terms
        p1, p2, q0 = _three_sum(p1, p2, q0)

        # order eps^2 terms: six-three sum of p2, q1, q2, p3, p4, p5
        p2, q1, q2 = _three_sum(p2, q1, q2)
        p3, p4, p5 = _three_sum(p3, p4, p5)
        s0, t0 = two_sum(p2, p3)
        s1, t1 = two_sum(q1, p4)
        s2 = q2 + p5
        s1, t0 = two_sum(s1, t0)
        s2 = s2 + (t0 + t1)

        # order eps^3 terms, collapsed into one double
        s1 = s1 + (x[0] * y[3] + x[1] * y[2] + x[2] * y[1] + x[3] * y[0]
                   + q0 + q3 + q4 + q5)
        return renorm5(p0, p1, s0, s1, s2)

    def qd_div(x, y):
        # Four corrections, each subtracting y * (q, 0, 0, 0), padded with
        # plain zeros and not renormalised.
        quotients, r = [x[0] / y[0]], x
        for _ in range(4):
            r = qd_sub(r, qd_mul(y, (quotients[-1], 0.0, 0.0, 0.0)))
            quotients.append(r[0] / y[0])
        return renorm5(*quotients)

    return qd_add, qd_sub, qd_mul, qd_div


class QuadDouble(MultiprecReal, chains=qd_chains(_renorm5)):
    """An immutable quad-double number (four-component expansion)."""

    __slots__ = ("c",)

    width = 4
    #: Relative rounding unit of the quad-double format (2**-209).
    eps = _EPS

    def __init__(self, c0: Union[float, int, "QuadDouble", DoubleDouble] = 0.0,
                 c1: float = 0.0, c2: float = 0.0, c3: float = 0.0):
        if isinstance(c0, QuadDouble):
            _set_c(self, c0.c)
        elif isinstance(c0, DoubleDouble):
            _set_c(self, _renorm4(c0.hi, c0.lo, float(c1), float(c2)))
        else:
            _set_c(self, _renorm4(float(c0), float(c1), float(c2), float(c3)))

    # ------------------------------------------------------------------
    # constructors / conversions
    # ------------------------------------------------------------------
    @classmethod
    def _raw(cls, comps: Tuple[float, float, float, float]) -> "QuadDouble":
        obj = object.__new__(cls)
        _set_c(obj, comps)
        return obj

    @classmethod
    def from_float(cls, x: float) -> "QuadDouble":
        """Embedding of a double: ``(x, 0, 0, 0)`` adopted as it is."""
        return cls._raw((float(x), 0.0, 0.0, 0.0))

    @classmethod
    def from_double_double(cls, x: DoubleDouble) -> "QuadDouble":
        return cls._raw((x.hi, x.lo, 0.0, 0.0))

    def to_double_double(self) -> DoubleDouble:
        return DoubleDouble(self.c[0], self.c[1])

    def components(self) -> Tuple[float, float, float, float]:
        return self.c

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __neg__(self) -> "QuadDouble":
        return QuadDouble._raw(tuple(-x for x in self.c))  # type: ignore[arg-type]

    def _sqrt(self) -> "QuadDouble":
        """Square root via Newton refinements of the double estimate."""
        # x ~ 1/sqrt(a); iterate x += x*(1 - a*x^2)/2 in increasing precision.
        x = QuadDouble(1.0 / math.sqrt(self.c[0]))
        half = QuadDouble(0.5)
        for _ in range(3):
            x = x + x * (QuadDouble(1.0) - self * x * x) * half
        return self * x


# The slot's own setter writes past the immutability guard.
_set_c = QuadDouble.c.__set__


class ComplexQD(MultiprecComplex, real_type=QuadDouble):
    """A complex number with quad-double real and imaginary parts."""

    __slots__ = ()


def qd(value: Union[int, float, str, Fraction, DoubleDouble, QuadDouble]) -> QuadDouble:
    """Convert an int, float, decimal string, fraction or real scalar to
    :class:`QuadDouble` (:meth:`~repro.multiprec.scalar.MultiprecReal.
    convert`)."""
    return QuadDouble.convert(value)
