"""Error-free transformations (EFTs) for IEEE double precision.

These are the primitives from which double-double and quad-double arithmetic
are assembled (Dekker 1971; Knuth TAOCP vol. 2; Hida, Li & Bailey 2001 -- the
QD 2.3.9 library cited by the paper).  Every function returns a pair
``(result, error)`` such that the exact real-number result of the operation
equals ``result + error`` and ``result`` is the correctly rounded double
closest to it.

All functions also operate element-wise on NumPy arrays: the expressions use
only ``+``, ``-`` and ``*`` so broadcasting applies unchanged.  That is what
lets the dd and qd sequences of :mod:`repro.multiprec.double_double` and
:mod:`repro.multiprec.quad_double` be written once, for the scalars' floats
and the plane arrays' planes alike.

Notes
-----
The implementations deliberately avoid ``math.fma`` so that the operation
sequence matches what the paper's CUDA kernels would execute on hardware
without relying on a fused multiply-add, and so that the arithmetic is
bit-for-bit reproducible across the scalar and vectorised code paths.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

__all__ = [
    "SPLITTER",
    "SPLIT_THRESHOLD",
    "two_sum",
    "quick_two_sum",
    "two_diff",
    "quick_two_diff",
    "split",
    "two_prod",
    "two_sqr",
]

#: Dekker's splitting constant, :math:`2^{27} + 1`.  Multiplying by this and
#: subtracting recovers the high 26 bits of a double's significand.
SPLITTER: float = 134217729.0  # 2**27 + 1

#: Magnitudes above this threshold must be scaled before splitting to avoid
#: overflow in ``SPLITTER * a`` (QD uses 2^996).
SPLIT_THRESHOLD: float = 6.69692879491417e299  # 2**996

Number = Union[float, np.ndarray]


def two_sum(a: Number, b: Number) -> Tuple[Number, Number]:
    """Knuth's TwoSum: ``s + e == a + b`` exactly, with ``s = fl(a + b)``.

    Works for any ordering of the magnitudes of ``a`` and ``b`` at the cost of
    6 floating-point operations.
    """
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def quick_two_sum(a: Number, b: Number) -> Tuple[Number, Number]:
    """Dekker's FastTwoSum: requires ``|a| >= |b|`` (or a == 0).

    3 floating-point operations.  Used in renormalisation steps where the
    ordering is known.
    """
    s = a + b
    e = b - (s - a)
    return s, e


def two_diff(a: Number, b: Number) -> Tuple[Number, Number]:
    """TwoDiff: ``s + e == a - b`` exactly with ``s = fl(a - b)``."""
    s = a - b
    bb = s - a
    e = (a - (s - bb)) - (b + bb)
    return s, e


def quick_two_diff(a: Number, b: Number) -> Tuple[Number, Number]:
    """FastTwoDiff: requires ``|a| >= |b|``."""
    s = a - b
    e = (a - s) - b
    return s, e


def split(a: Number) -> Tuple[Number, Number]:
    """Dekker's Split: ``a == hi + lo`` with both halves representable in 26
    bits of significand, so that products of halves are exact.

    Handles the overflow-prone case ``|a| > SPLIT_THRESHOLD`` by pre-scaling,
    as the QD library does.
    """
    if isinstance(a, np.ndarray):
        big = np.abs(a) > SPLIT_THRESHOLD
        scaled = np.where(big, a * 3.7252902984619140625e-09, a)  # 2**-28
        temp = SPLITTER * scaled
        hi = temp - (temp - scaled)
        lo = scaled - hi
        hi = np.where(big, hi * 268435456.0, hi)  # 2**28
        lo = np.where(big, lo * 268435456.0, lo)
        return hi, lo
    if abs(a) > SPLIT_THRESHOLD:
        a *= 3.7252902984619140625e-09  # 2**-28
        temp = SPLITTER * a
        hi = temp - (temp - a)
        lo = a - hi
        return hi * 268435456.0, lo * 268435456.0  # 2**28
    temp = SPLITTER * a
    hi = temp - (temp - a)
    lo = a - hi
    return hi, lo


def two_prod(a: Number, b: Number) -> Tuple[Number, Number]:
    """TwoProd: ``p + e == a * b`` exactly with ``p = fl(a * b)``.

    Uses Dekker splitting (17 flops) rather than an FMA so that the result is
    identical on hardware without fused multiply-add, matching the
    reproducibility goal stated in the module docstring.
    """
    p = a * b
    a_hi, a_lo = split(a)
    b_hi, b_lo = split(b)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def two_sqr(a: Number) -> Tuple[Number, Number]:
    """TwoSqr: ``p + e == a * a`` exactly; cheaper than ``two_prod(a, a)``."""
    p = a * a
    hi, lo = split(a)
    e = ((hi * hi - p) + 2.0 * hi * lo) + lo * lo
    return p, e
