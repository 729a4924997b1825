"""Complex double-double arithmetic.

The paper evaluates polynomial systems over the complex numbers (homotopy
continuation works over C), and the kernels manipulate "complex double" and
"complex double double" values.  :class:`ComplexDD` is the straightforward
Cartesian pairing of two :class:`~repro.multiprec.double_double.DoubleDouble`
components with the textbook complex arithmetic rules -- the same four-real-
multiplication complex product the CUDA kernels would perform.  The rules
are :class:`~repro.multiprec.scalar.MultiprecComplex`'s, shared with
:class:`~repro.multiprec.quad_double.ComplexQD`, composed from the real
type's sequences; this module names only the real type.

A complex multiplication costs 4 real multiplications and 2 additions; this
constant feeds the GPU and CPU cost models so that the operation counts quoted
in the paper (``5k-4`` *complex* multiplications per thread of kernel 2)
translate consistently into predicted cycle counts.
"""

from __future__ import annotations

from typing import Union

from .double_double import DoubleDouble
from .scalar import MultiprecComplex

__all__ = ["ComplexDD", "cdd"]


class ComplexDD(MultiprecComplex, real_type=DoubleDouble):
    """A complex number with double-double real and imaginary parts."""

    __slots__ = ()


def cdd(real: Union[int, float, complex, DoubleDouble, ComplexDD],
        imag: Union[int, float, DoubleDouble, None] = None) -> ComplexDD:
    """Convenience constructor for :class:`ComplexDD` (a ComplexDD without
    ``imag`` comes back as it is)."""
    if isinstance(real, ComplexDD) and imag is None:
        return real
    return ComplexDD(real, imag)
