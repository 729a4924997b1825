"""Scalar double-double arithmetic.

A :class:`DoubleDouble` represents a real number as an unevaluated sum of two
IEEE doubles ``hi + lo`` with ``|lo| <= 0.5 ulp(hi)``, giving roughly 32
significant decimal digits (106 bits of significand).  The algorithms follow
the QD 2.3.9 library of Hida, Li & Bailey that the paper uses for its
multiprecision path tracking, built on the error-free transformations in
:mod:`repro.multiprec.eft`.

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

from ..errors import DivisionByZeroError
from .eft import quick_two_sum, two_diff, two_prod, two_sum
from .scalar import MultiprecReal

__all__ = ["DoubleDouble", "dd"]

_EPS = 4.93038065763132e-32  # 2**-104, the relative rounding unit of dd


class DoubleDouble(MultiprecReal):
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

    def _add(self, other: "DoubleDouble") -> "DoubleDouble":
        """IEEE-style accurate addition (QD's ``ieee_add``)."""
        s1, s2 = two_sum(self.hi, other.hi)
        t1, t2 = two_sum(self.lo, other.lo)
        s2 += t1
        s1, s2 = quick_two_sum(s1, s2)
        s2 += t2
        s1, s2 = quick_two_sum(s1, s2)
        return DoubleDouble(s1, s2)

    def _sub(self, other: "DoubleDouble") -> "DoubleDouble":
        s1, s2 = two_diff(self.hi, other.hi)
        t1, t2 = two_diff(self.lo, other.lo)
        s2 += t1
        s1, s2 = quick_two_sum(s1, s2)
        s2 += t2
        s1, s2 = quick_two_sum(s1, s2)
        return DoubleDouble(s1, s2)

    def _mul(self, other: "DoubleDouble") -> "DoubleDouble":
        p1, p2 = two_prod(self.hi, other.hi)
        p2 += self.hi * other.lo + self.lo * other.hi
        p1, p2 = quick_two_sum(p1, p2)
        return DoubleDouble(p1, p2)

    def _div(self, other: "DoubleDouble") -> "DoubleDouble":
        """Accurate division: three quotient corrections (QD's
        ``accurate_div``)."""
        if other.hi == 0.0 and other.lo == 0.0:
            raise DivisionByZeroError("DoubleDouble division by zero")
        q1 = self.hi / other.hi
        r = self._sub(DoubleDouble(q1)._mul(other))
        q2 = r.hi / other.hi
        r = r._sub(DoubleDouble(q2)._mul(other))
        q3 = r.hi / other.hi
        s, e = quick_two_sum(q1, q2)
        return DoubleDouble(s, e)._add(DoubleDouble(q3))

    def sqrt(self) -> "DoubleDouble":
        """Square root by Karp's method (one Newton step on 1/sqrt)."""
        if self.is_zero():
            return DoubleDouble(0.0)
        if self.is_negative():
            raise ValueError("square root of a negative DoubleDouble")
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
