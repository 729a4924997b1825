"""Double-double arithmetic: the operation sequences and the scalar type.

A double-double represents a real number as an unevaluated sum of two IEEE
doubles ``hi + lo`` with ``|lo| <= 0.5 ulp(hi)``, giving roughly 32
significant decimal digits (106 bits of significand).  The algorithms follow
the QD 2.3.9 library of Hida, Li & Bailey that the paper uses for its
multiprecision path tracking, built on the error-free transformations in
:mod:`repro.multiprec.eft`.

:func:`dd_add`, :func:`dd_sub`, :func:`dd_mul` and :func:`dd_div` are those
sequences, written once over ``(hi, lo)`` tuples whose components are
either Python floats or float64 planes.  :class:`DoubleDouble` runs them on
its two components, :class:`~repro.multiprec.ddarray.DDArray` takes them as
its reference chains, and the compiled ``dd_*`` kernels replay them bit for
bit.

The numeric protocol -- conversions, comparisons, operators, powers,
printing, pickling -- is :class:`~repro.multiprec.scalar.MultiprecReal`'s,
shared with quad-double; this module holds only the double-double parts, so
that generic code (the Jacobian evaluators, the LU solver in
:mod:`repro.tracking.linsolve`, Newton's method) runs on ``complex``,
:class:`~repro.multiprec.complex_dd.ComplexDD` or
:class:`~repro.multiprec.quad_double.ComplexQD` alike.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple, Union

from .eft import quick_two_sum, two_diff, two_prod, two_sum
from .scalar import MultiprecReal

__all__ = ["DoubleDouble", "dd", "dd_add", "dd_div", "dd_mul", "dd_sub"]

_EPS = 4.93038065763132e-32  # 2**-104, the relative rounding unit of dd


# ----------------------------------------------------------------------
# the sequences, on (hi, lo) tuples of floats or of float64 planes
# ----------------------------------------------------------------------
def dd_add(x, y):
    """IEEE-style accurate addition (QD's ``ieee_add``)."""
    s1, s2 = two_sum(x[0], y[0])
    t1, t2 = two_sum(x[1], y[1])
    s2 = s2 + t1
    s1, s2 = quick_two_sum(s1, s2)
    s2 = s2 + t2
    return quick_two_sum(s1, s2)


def dd_sub(x, y):
    """IEEE-style accurate subtraction."""
    s1, s2 = two_diff(x[0], y[0])
    t1, t2 = two_diff(x[1], y[1])
    s2 = s2 + t1
    s1, s2 = quick_two_sum(s1, s2)
    s2 = s2 + t2
    return quick_two_sum(s1, s2)


def dd_mul(x, y):
    """Product with the ``lo * lo`` term dropped (QD's ``operator*``)."""
    p1, p2 = two_prod(x[0], y[0])
    p2 = p2 + (x[0] * y[1] + x[1] * y[0])
    return quick_two_sum(p1, p2)


def dd_div(x, y):
    """Accurate division: three quotient terms (QD's ``accurate_div``).

    Each correction subtracts ``y * (q, 0)``, the pair padded with a plain
    ``0.0``.  The caller refuses a zero divisor.
    """
    q1 = x[0] / y[0]
    r = dd_sub(x, dd_mul(y, (q1, 0.0)))
    q2 = r[0] / y[0]
    r = dd_sub(r, dd_mul(y, (q2, 0.0)))
    q3 = r[0] / y[0]
    return dd_add(quick_two_sum(q1, q2), (q3, 0.0))


class DoubleDouble(MultiprecReal, chains=(dd_add, dd_sub, dd_mul, dd_div)):
    """An immutable double-double number.

    Parameters
    ----------
    hi:
        Leading component (a float, int, or another DoubleDouble to copy).
    lo:
        Trailing component; must satisfy ``hi + lo == hi`` in exact
        arithmetic rounding terms.  When constructing from arbitrary values
        use :meth:`from_sum` or :func:`dd`, which renormalise.

    Notes
    -----
    Instances are hashable and immutable; all arithmetic returns new objects.
    """

    __slots__ = ("hi", "lo")

    width = 2
    #: Relative rounding unit of the double-double format (2**-104).
    eps = _EPS

    def __init__(self, hi: Union[float, int, "DoubleDouble"] = 0.0, lo: float = 0.0):
        if isinstance(hi, DoubleDouble):
            _set_hi(self, hi.hi)
            _set_lo(self, hi.lo)
            return
        # Renormalise so that the invariant |lo| <= 0.5 ulp(hi) holds even if
        # the caller passed two arbitrary doubles.
        s, e = two_sum(float(hi), float(lo))
        _set_hi(self, s)
        _set_lo(self, e)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def _raw(cls, parts: Tuple[float, float]) -> "DoubleDouble":
        """Adopt ``(hi, lo)`` verbatim, skipping renormalisation.

        For rebuilding a value whose components are *already* a valid
        double-double decomposition (e.g. the portable checkpoint planes):
        ``two_sum`` renormalisation would poison non-finite values --
        ``inf + nan`` is ``nan`` -- whereas a stored ``(inf, nan)`` pair
        must come back exactly as it was captured.
        """
        obj = object.__new__(cls)
        _set_hi(obj, parts[0])
        _set_lo(obj, parts[1])
        return obj

    @classmethod
    def from_float(cls, x: float) -> "DoubleDouble":
        """Embedding of a double: the renormalised pair ``(x, 0)`` (the
        batch arrays' ``DDArray._embed`` replays it)."""
        return cls(float(x), 0.0)

    @classmethod
    def from_sum(cls, a: float, b: float) -> "DoubleDouble":
        """The double-double equal to the exact sum of two doubles."""
        s, e = two_sum(float(a), float(b))
        return cls(s, e)

    @classmethod
    def from_product(cls, a: float, b: float) -> "DoubleDouble":
        """The double-double equal to the exact product of two doubles."""
        p, e = two_prod(float(a), float(b))
        return cls(p, e)

    def components(self) -> Tuple[float, float]:
        """Return ``(hi, lo)``."""
        return self.hi, self.lo

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __neg__(self) -> "DoubleDouble":
        return DoubleDouble(-self.hi, -self.lo)

    def _sqrt(self) -> "DoubleDouble":
        """Square root by Karp's method (one Newton step on 1/sqrt)."""
        x = 1.0 / math.sqrt(self.hi)
        ax = self.hi * x
        ax_dd = DoubleDouble(ax)
        err = self - ax_dd * ax_dd
        return ax_dd + DoubleDouble(err.hi * (x * 0.5))


# The slots' own setters write past the immutability guard.
_set_hi, _set_lo = DoubleDouble.hi.__set__, DoubleDouble.lo.__set__


def dd(value: Union[int, float, str, Fraction, DoubleDouble]) -> DoubleDouble:
    """Convert an int, float, decimal string, fraction or real scalar to
    :class:`DoubleDouble` (:meth:`~repro.multiprec.scalar.MultiprecReal.
    convert`)."""
    return DoubleDouble.convert(value)
