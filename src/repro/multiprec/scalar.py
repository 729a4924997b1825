"""The scalar numeric protocol, written once for double-double and quad-double.

:class:`~repro.multiprec.double_double.DoubleDouble` and
:class:`~repro.multiprec.quad_double.QuadDouble` subclass
:class:`MultiprecReal`; :class:`~repro.multiprec.complex_dd.ComplexDD` and
:class:`~repro.multiprec.quad_double.ComplexQD` subclass
:class:`MultiprecComplex` and name only their ``real_type`` (a class
keyword).  Everything above the per-component arithmetic lives here, with
the two pieces the plane arrays share: :func:`complex_chains`, which
composes a real precision's sequences into complex ones, and
:func:`integer_power`, the binary power ladder.  A real precision supplies:

* its component slots and ``components()``, its ``width`` (components per
  value) and ``eps``;
* its renormalising constructor, ``_raw`` (adopt a tuple of components
  verbatim) and ``from_float`` (the embedding of a double: double-double
  renormalises ``(x, 0)``, quad-double adopts it raw);
* negation, ``_sqrt`` and its QD-library ``add, sub, mul, div`` sequences
  over component tuples as the ``chains=`` class keyword: the plane
  arrays' reference chains are the same functions, and the compiled plane
  kernels replay them bit for bit.

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
  compares false except under ``!=``.  A real equals a complex exactly
  when the imaginary part is zero and the real parts are equal; ordering
  the two raises ``TypeError``, as in Python.
* *Division.*  A real divisor with a zero leading component, and a
  complex one whose ``|z|^2`` has one, raise
  :class:`~repro.errors.DivisionByZeroError`; a NaN divisor propagates.
* *Values.*  Instances are immutable.  Equal values hash equal, across
  the precisions and with the Python numbers they equal: a finite real
  hashes its exact value, a non-finite one its leading component, and a
  complex combines its parts' hashes as ``complex`` does.  Pickling and
  copying keep every component bit for bit (inf, NaN and ``-0.0``
  included).  ``repr`` shows the exact components, ``str`` of a
  real is a decimal string of 16 digits per component.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from ..errors import DivisionByZeroError

__all__ = ["MultiprecReal", "MultiprecComplex", "complex_chains",
           "integer_power"]


def integer_power(base, exponent: int, one):
    """``base ** exponent`` for ``exponent >= 0`` by binary exponentiation
    from ``one``, forming ``result * base`` and ``base * base``."""
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        base = base * base
        exponent >>= 1
    return result


def complex_chains(add, sub, mul, div, name: str):
    """The complex ``+ - * /`` over flat ``(real..., imag...)`` component
    tuples (floats for a scalar, planes for an array), composed from a
    real precision's sequences: ``(a*c - b*d, a*d + b*c)`` and
    ``((a*c + b*d) / |z|^2, (b*c - a*d) / |z|^2)`` with ``|z|^2 = c*c +
    d*d``.  Division refuses a ``|z|^2`` whose leading component is zero
    (in any element) with a :class:`DivisionByZeroError` naming ``name``:
    it would fill the value with silent NaN."""
    def parts(x, y):
        half = len(x) // 2
        return x[:half], x[half:], y[:half], y[half:]

    def complex_add(x, y):
        a, b, c, d = parts(x, y)
        return add(a, c) + add(b, d)

    def complex_sub(x, y):
        a, b, c, d = parts(x, y)
        return sub(a, c) + sub(b, d)

    def complex_mul(x, y):
        a, b, c, d = parts(x, y)
        return sub(mul(a, c), mul(b, d)) + add(mul(a, d), mul(b, c))

    def complex_div(x, y):
        a, b, c, d = parts(x, y)
        denom = add(mul(c, c), mul(d, d))
        zeros = int(np.count_nonzero(denom[0] == 0.0))
        if zeros:
            raise DivisionByZeroError(
                f"{name} division by zero in {zeros} element(s)")
        return (div(add(mul(a, c), mul(b, d)), denom)
                + div(sub(mul(b, c), mul(a, d)), denom))

    return complex_add, complex_sub, complex_mul, complex_div


class _Scalar:
    """What real and complex scalars share: immutability, the arithmetic
    operators, which run the class's sequences (``_ADD`` ...) on the
    operands' components after ``_coerce``, and integer powers."""

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

    def _add(self, other):
        return self._raw(self._ADD(self.components(), other.components()))

    def _sub(self, other):
        return self._raw(self._SUB(self.components(), other.components()))

    def _mul(self, other):
        return self._raw(self._MUL(self.components(), other.components()))

    def _div(self, other):
        return self._raw(self._DIV(self.components(), other.components()))

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        return self.power(exponent)

    def power(self, exponent: int):
        """Integer power by binary exponentiation (:func:`integer_power`);
        a negative power divides one by the positive one."""
        one = type(self)(1.0)
        if exponent == 0:
            if self.is_zero():
                raise ZeroDivisionError(
                    f"0 ** 0 is undefined for {type(self).__name__}")
            return one
        result = integer_power(self, abs(exponent), one)
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
    #: The ``add, sub, mul, div`` sequences over component tuples.
    chains: tuple

    def __init_subclass__(cls, chains, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.chains = tuple(chains)
        cls._ADD, cls._SUB, cls._MUL, cls._DIV = map(staticmethod, chains)

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
        if isinstance(other, (complex, MultiprecComplex)):
            return other.imag == 0.0 and self == other.real
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
        # The exact value's hash is the hash of the int, float or Fraction
        # the value equals.
        if self.is_finite():
            return hash(self.to_fraction())
        return hash(self.components()[0])

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _div(self, other):
        if other.to_float() == 0.0:
            raise DivisionByZeroError(f"{type(self).__name__} division by zero")
        return super()._div(other)

    def _sqrt(self):
        """The square root of a positive finite value."""
        raise NotImplementedError

    def sqrt(self):
        """Square root: zero for a zero, ``(inf, 0, ...)`` for a leading
        +inf, the precision's ``_sqrt`` otherwise; a negative value raises
        ``ValueError``."""
        if self.is_zero():
            return type(self)(0.0)
        if self.is_negative():
            raise ValueError(
                f"square root of a negative {type(self).__name__}")
        if self.to_float() == math.inf:
            return self._infinity()
        return self._sqrt()

    @classmethod
    def _infinity(cls):
        """+inf as ``(inf, 0, ...)``."""
        return cls._raw((math.inf,) + (0.0,) * (cls.width - 1))

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

    def __init_subclass__(cls, real_type, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.real_type = real_type
        cls._ADD, cls._SUB, cls._MUL, cls._DIV = map(
            staticmethod, complex_chains(*real_type.chains, cls.__name__))

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
    def _raw(cls, parts):
        """Adopt components (the real part's, then the imaginary part's)."""
        raw, half = cls.real_type._raw, cls.real_type.width
        return cls._make(raw(parts[:half]), raw(parts[half:]))

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
        # CPython's complex hash: real + IMAG * imag in the unsigned hash
        # word, -1 being reserved.
        width = sys.hash_info.width
        combined = (hash(self.real) + sys.hash_info.imag * hash(self.imag)) \
            % (1 << width)
        if combined >= 1 << (width - 1):
            combined -= 1 << width
        return -2 if combined == -1 else combined

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.real!r}, {self.imag!r})"

    def __reduce__(self):
        return type(self), (self.real, self.imag)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __neg__(self):
        return self._make(-self.real, -self.imag)

    def conjugate(self):
        return self._make(self.real, -self.imag)

    def abs2(self):
        """Squared modulus, of the real type."""
        return self.real * self.real + self.imag * self.imag

    def __abs__(self):
        """The modulus, of the real type: ``abs2().sqrt()``.  Where
        ``abs2`` leaves the normal range, the parts are first scaled by an
        even power of two that brings the larger near 1 and the root is
        scaled back, so the modulus overflows or underflows only when its
        value does.  An infinite part gives +inf, even beside a NaN one,
        as for ``complex``."""
        leads = self.real.to_float(), self.imag.to_float()
        if math.isinf(leads[0]) or math.isinf(leads[1]):
            return self.real_type._infinity()
        square = self.abs2()
        big = max(map(abs, leads))
        if sys.float_info.min <= square.to_float() < math.inf \
                or not 0.0 < big < math.inf:
            return square.sqrt()
        half = math.frexp(big)[1] // 2
        root = _scaled(_scaled(self, 2.0 ** -half).abs2().sqrt(), 2.0 ** half)
        return self.real_type._infinity() if root.to_float() == math.inf \
            else root


def _scaled(value, factor: float):
    """``value * factor**2`` for a power of two ``factor``, component by
    component: exact unless a component leaves the normal range."""
    return value._raw(tuple(c * factor * factor for c in value.components()))


# Construction writes the slots through their own descriptors, past the
# immutability guard.
_new = object.__new__
_set_real, _set_imag = MultiprecComplex.real.__set__, MultiprecComplex.imag.__set__
