"""The scalar numeric protocol, written once for double-double and quad-double.

:class:`~repro.multiprec.double_double.DoubleDouble` and
:class:`~repro.multiprec.quad_double.QuadDouble` subclass
:class:`MultiprecReal`; :class:`~repro.multiprec.complex_dd.ComplexDD` and
:class:`~repro.multiprec.quad_double.ComplexQD` subclass
:class:`MultiprecComplex` and set only their ``real_type``.  Everything
above the per-component arithmetic lives here.  A real precision supplies:

* its component slots and ``components()``, its ``width`` (components per
  value) and ``eps``;
* its renormalising constructor, ``_raw`` (adopt a tuple of components
  verbatim) and ``from_float`` (the embedding of a double: double-double
  renormalises ``(x, 0)``, quad-double adopts it raw);
* negation and the QD-library algorithms ``_add``, ``_sub``, ``_mul``,
  ``_div`` and ``sqrt``, which the compiled plane kernels replay bit for
  bit.

One set of rules holds for all four types:

* *Conversion.*  Ints, floats and narrower scalars, real or complex,
  convert exactly (a narrower expansion is zero-extended, bit for bit).
  In arithmetic and comparisons a wider operand is left to its own
  reflected operator, so ``DoubleDouble op QuadDouble`` and
  ``ComplexDD op ComplexQD`` both compute at quad-double.  Explicit
  conversion (:meth:`MultiprecReal.convert`, the constructors) also takes
  strings and fractions, and rounds a wider scalar to one double, as
  ``float(x)`` does.
* *Order.*  Reals compare by their first pair of differing components:
  the value order of the canonical expansions every constructor and
  operation returns.  Signed zeros compare equal; a NaN component
  compares false except under ``!=``.
* *Values.*  Instances are immutable and hash by their components;
  pickling and copying keep every component bit for bit (inf, NaN and
  ``-0.0`` included).  ``repr`` shows the exact components, ``str`` of a
  real is a decimal string of 16 digits per component.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Optional, Tuple

from ..errors import DivisionByZeroError

__all__ = ["MultiprecReal", "MultiprecComplex"]


class _Scalar:
    """What real and complex scalars share: immutability, the arithmetic
    operators over ``_coerce`` and ``_add``/``_sub``/``_mul``/``_div``,
    and integer powers."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} instances are immutable")

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __pos__(self):
        return self

    # An operand of another type goes through ``_coerce``.  The reflected
    # sum and product keep ``self`` as the first operand, so ``x + y`` and
    # ``y + x`` run the same sequence.
    def __add__(self, other):
        if type(other) is not type(self):
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        return self._add(other)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not type(self):
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        return self._sub(other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else other._sub(self)

    def __mul__(self, other):
        if type(other) is not type(self):
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        return self._mul(other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not type(self):
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        return self._div(other)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else other._div(self)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        return self.power(exponent)

    def power(self, exponent: int):
        """Integer power by binary exponentiation."""
        one = type(self)(1.0)
        if exponent == 0:
            if self.is_zero():
                raise ZeroDivisionError(
                    f"0 ** 0 is undefined for {type(self).__name__}")
            return one
        result, base, e = one, self, abs(exponent)
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return one / result if exponent < 0 else result


class MultiprecReal(_Scalar):
    """A real multiprecision scalar: an unevaluated sum of ``width``
    doubles, leading component first (see the module docstring for what a
    precision subclass supplies)."""

    __slots__ = ()

    #: Components per value.
    width: int
    #: Relative rounding unit of the format.
    eps: float

    # ------------------------------------------------------------------
    # per precision
    # ------------------------------------------------------------------
    def components(self) -> Tuple[float, ...]:
        """The components, leading first."""
        raise NotImplementedError

    @classmethod
    def _raw(cls, parts: Tuple[float, ...]):
        """Adopt ``width`` components verbatim, skipping renormalisation."""
        raise NotImplementedError

    @classmethod
    def from_float(cls, x: float):
        """Exact embedding of a double."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    @classmethod
    def _coerce(cls, other):
        """``other`` as this type when the conversion is exact (an int, a
        float, or a real of this or a narrower precision), else
        ``NotImplemented``."""
        if isinstance(other, cls):
            return other
        if isinstance(other, float):
            return cls.from_float(other)
        if isinstance(other, int):
            return cls.from_int(other)
        if isinstance(other, MultiprecReal) and other.width < cls.width:
            return cls._raw(other.components()
                            + (0.0,) * (cls.width - other.width))
        return NotImplemented

    @classmethod
    def convert(cls, value):
        """``value`` -- an int, float, decimal string, :class:`Fraction`
        or real scalar -- as this type: exact where :meth:`_coerce` is,
        strings and fractions rounded to this precision, and a wider
        scalar rounded to one double."""
        exact = cls._coerce(value)
        if exact is not NotImplemented:
            return exact
        if isinstance(value, str):
            return cls.from_string(value)
        if isinstance(value, Fraction):
            return cls.from_fraction(value)
        return cls.from_float(float(value))

    @classmethod
    def from_fraction(cls, frac: Fraction):
        """Round a rational to this precision: its leading ``width``
        doubles, renormalised."""
        parts = []
        for _ in range(cls.width):
            part = float(frac)
            parts.append(part)
            frac = frac - Fraction(part)
        return cls(*parts)

    @classmethod
    def from_int(cls, n: int):
        """Exact embedding of an integer of up to ``53 * width`` bits."""
        x = float(n)
        return cls.from_float(x) if x == n else cls.from_fraction(Fraction(n))

    @classmethod
    def from_string(cls, s: str):
        """Parse a decimal string to this precision."""
        return cls.from_fraction(Fraction(s))

    def to_float(self) -> float:
        """Round to the nearest double: the leading component."""
        return self.components()[0]

    __float__ = to_float

    def __int__(self) -> int:
        return int(self.to_fraction())

    def to_fraction(self) -> Fraction:
        """The exact rational value of the components' sum."""
        return sum(map(Fraction, self.components()), Fraction(0))

    def to_decimal_string(self, digits: Optional[int] = None) -> str:
        """Render ``digits`` significant decimal digits of the exact value
        (by default 16 per component); a non-finite value renders as its
        leading component."""
        if digits is None:
            digits = 16 * self.width
        if not self.is_finite():
            return str(self.to_float())
        frac = self.to_fraction()
        if frac == 0:
            return "0." + "0" * (digits - 1) + "e+00"
        sign = "-" if frac < 0 else ""
        frac = abs(frac)
        exponent = 0
        while frac >= 10:
            frac /= 10
            exponent += 1
        while frac < 1:
            frac *= 10
            exponent -= 1
        scaled = frac * Fraction(10) ** (digits - 1)
        mantissa = str(int(scaled + Fraction(1, 2)))
        if len(mantissa) > digits:  # rounding carried over, e.g. 9.99 -> 10.0
            mantissa = mantissa[:digits]
            exponent += 1
        return f"{sign}{mantissa[0]}.{mantissa[1:]}e{exponent:+03d}"

    def __str__(self) -> str:
        return self.to_decimal_string()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self.components()))})"

    def __reduce__(self):
        return self._raw, (self.components(),)

    # ------------------------------------------------------------------
    # predicates, comparisons
    # ------------------------------------------------------------------
    def _lead(self) -> float:
        """The first nonzero component, or 0.0."""
        for x in self.components():
            if x != 0.0:
                return x
        return 0.0

    def is_zero(self) -> bool:
        return not any(self.components())

    def is_negative(self) -> bool:
        return self._lead() < 0.0

    def is_positive(self) -> bool:
        return self._lead() > 0.0

    def is_finite(self) -> bool:
        return all(map(math.isfinite, self.components()))

    def is_nan(self) -> bool:
        return any(map(math.isnan, self.components()))

    def _compare(self, other, op):
        """``op`` on the first pair of differing components (on ``0.0,
        0.0`` when none differ)."""
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        for a, b in zip(self.components(), other.components()):
            if a != b:
                return op(a, b)
        return op(0.0, 0.0)

    def __eq__(self, other):
        return self._compare(other, operator.eq)

    def __lt__(self, other):
        return self._compare(other, operator.lt)

    def __le__(self, other):
        return self._compare(other, operator.le)

    def __gt__(self, other):
        return self._compare(other, operator.gt)

    def __ge__(self, other):
        return self._compare(other, operator.ge)

    def __hash__(self) -> int:
        return hash(self.components())

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __abs__(self):
        return -self if self.is_negative() else self

    def recip(self):
        """Multiplicative inverse."""
        return type(self)(1.0) / self

    def conjugate(self):
        """The value itself (mirrors the complex and NumPy scalar API)."""
        return self


class MultiprecComplex(_Scalar):
    """A complex scalar: a Cartesian ``(real, imag)`` pair of the subclass's
    ``real_type``, with the textbook rules -- the four-multiplication
    product the CUDA kernels perform.

    The constructor takes a Python complex; a real part and an optional
    imaginary part, each anything :meth:`MultiprecReal.convert` takes; or
    a complex scalar, whose imaginary part a given ``imag`` replaces.
    """

    __slots__ = ("real", "imag")

    #: The type of both parts.
    real_type: type

    def __init__(self, real=0.0, imag=None):
        if isinstance(real, complex):
            if imag is not None:
                raise TypeError(
                    "cannot pass both a complex value and an imag part")
            real, imag = real.real, real.imag
        elif isinstance(real, MultiprecComplex):
            real, imag = real.real, real.imag if imag is None else imag
        convert = self.real_type.convert
        _set_real(self, convert(real))
        _set_imag(self, convert(0.0 if imag is None else imag))

    @classmethod
    def _make(cls, real, imag):
        """Adopt two values of the real type as the parts."""
        z = _new(cls)
        _set_real(z, real)
        _set_imag(z, imag)
        return z

    @classmethod
    def from_complex(cls, z: complex):
        """Exact embedding of a Python complex."""
        z = complex(z)
        embed = cls.real_type.from_float
        return cls._make(embed(z.real), embed(z.imag))

    @classmethod
    def _coerce(cls, other):
        """``other`` as this type when the conversion is exact (a Python
        number, or a real or complex scalar of this or a narrower
        precision), else ``NotImplemented``."""
        if isinstance(other, cls):
            return other
        if isinstance(other, complex):
            return cls.from_complex(other)
        coerce = cls.real_type._coerce
        if isinstance(other, MultiprecComplex):
            real, imag = coerce(other.real), coerce(other.imag)
        else:
            real, imag = coerce(other), cls.real_type.from_float(0.0)
        if real is NotImplemented or imag is NotImplemented:
            return NotImplemented
        return cls._make(real, imag)

    def to_complex(self) -> complex:
        """Round both parts to hardware doubles."""
        return complex(self.real.to_float(), self.imag.to_float())

    __complex__ = to_complex

    def components(self) -> Tuple[float, ...]:
        """The real part's components, then the imaginary part's."""
        return self.real.components() + self.imag.components()

    def is_zero(self) -> bool:
        return self.real.is_zero() and self.imag.is_zero()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self.real == other.real and self.imag == other.imag

    def __hash__(self) -> int:
        return hash((self.real, self.imag))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.real!r}, {self.imag!r})"

    def __reduce__(self):
        return type(self), (self.real, self.imag)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __neg__(self):
        return self._make(-self.real, -self.imag)

    def _add(self, other):
        return self._make(self.real + other.real, self.imag + other.imag)

    def _sub(self, other):
        return self._make(self.real - other.real, self.imag - other.imag)

    def _mul(self, other):
        # (a+bi)(c+di) = (ac - bd) + (ad + bc) i : 4 real multiplications.
        a, b, c, d = self.real, self.imag, other.real, other.imag
        return self._make(a * c - b * d, a * d + b * c)

    def _div(self, other):
        a, b, c, d = self.real, self.imag, other.real, other.imag
        denom = c * c + d * d
        if denom.is_zero():
            raise DivisionByZeroError(f"{type(self).__name__} division by zero")
        return self._make((a * c + b * d) / denom, (b * c - a * d) / denom)

    def conjugate(self):
        return self._make(self.real, -self.imag)

    def abs2(self):
        """Squared modulus, of the real type."""
        return self.real * self.real + self.imag * self.imag

    def __abs__(self):
        return self.abs2().sqrt()


# Construction writes the slots through their own descriptors, past the
# immutability guard.
_new = object.__new__
_set_real, _set_imag = MultiprecComplex.real.__set__, MultiprecComplex.imag.__set__
