"""One set of scalar rules at both precisions.

:class:`DoubleDouble` and :class:`QuadDouble` share one real protocol,
:class:`ComplexDD` and :class:`ComplexQD` one complex protocol
(:mod:`repro.multiprec.scalar`).  Every rule is checked at both precisions:
exact conversions, mixed-precision widening, powers, truth values,
immutability, pickling and copying bit for bit, printing, one ordering
over the components, equality between reals and complexes, and moduli
and square roots that overflow or underflow only when their value does.
"""

from __future__ import annotations

import copy
import itertools
import math
import operator
import pickle
import struct
from fractions import Fraction

import pytest

from repro.multiprec import ComplexDD, ComplexQD, DoubleDouble, QuadDouble

REALS = pytest.mark.parametrize("real", [DoubleDouble, QuadDouble],
                                ids=["dd", "qd"])
COMPLEXES = pytest.mark.parametrize("cplx", [ComplexDD, ComplexQD],
                                    ids=["dd", "qd"])

BIG = 2 ** 60 + 1  # not one double


def bits(values) -> list:
    return [struct.pack("<d", v) for v in values]


def raw(real, *parts):
    """The real whose components are ``parts``, zero padded, as they are."""
    return real._raw(tuple(parts) + (0.0,) * (real.width - len(parts)))


def specials(real) -> list:
    """Values whose components are inf, NaN or -0.0."""
    return [raw(real, math.inf, math.nan), raw(real, -0.0, -0.0),
            raw(real, math.nan), raw(real, -math.inf, -0.0),
            raw(real, 1.0, -0.0)]


class TestConversion:
    @REALS
    def test_ints_convert_exactly(self, real):
        assert real.convert(BIG).to_fraction() == BIG
        assert (real.convert(0) + BIG).to_fraction() == BIG
        assert (BIG - real.convert(1)).to_fraction() == BIG - 1

    @REALS
    def test_strings_and_fractions_round_to_the_precision(self, real):
        tenth = real.convert("0.1").to_fraction()
        assert abs(tenth - Fraction(1, 10)) < Fraction(1, 10) * 4 * real.eps
        assert real.convert(Fraction(1, 10)).to_fraction() == tenth

    @COMPLEXES
    def test_ints_and_reals_convert_exactly_into_a_complex(self, cplx):
        assert cplx(BIG).real.to_fraction() == BIG
        low = DoubleDouble(1.0, 1e-20)
        z = cplx(low, low)
        assert z.real.to_fraction() == z.imag.to_fraction() == \
            low.to_fraction()
        assert (cplx(0.0) + low).real.to_fraction() == low.to_fraction()

    @COMPLEXES
    def test_a_complex_scalar_and_an_imag_part(self, cplx):
        z = cplx(cplx(1 + 2j), 5.0)
        assert z.to_complex() == 1 + 5j
        assert cplx(cplx(1 + 2j)).to_complex() == 1 + 2j
        with pytest.raises(TypeError):
            cplx(1 + 2j, 3.0)

    def test_a_narrower_scalar_widens_bit_for_bit(self):
        low = raw(DoubleDouble, -0.0, -0.0)
        assert bits(QuadDouble.convert(low).components()) == \
            bits((-0.0, -0.0, 0.0, 0.0))
        z = ComplexQD(ComplexDD(DoubleDouble(1.0, 1e-20), low))
        assert bits(z.components()) == \
            bits((1.0, 1e-20, 0.0, 0.0, -0.0, -0.0, 0.0, 0.0))

    @COMPLEXES
    def test_from_complex_and_components(self, cplx):
        z = cplx.from_complex(1.5 - 2.5j)
        pad = (0.0,) * (cplx.real_type.width - 1)
        assert bits(z.components()) == bits((1.5, *pad, -2.5, *pad))
        assert complex(z) == z.to_complex() == 1.5 - 2.5j


class TestMixedPrecision:
    """The narrower operand widens: a wider one is left to its own
    reflected operator."""

    def test_reals(self):
        low = DoubleDouble(1.0, 1e-20)
        for total in (low + QuadDouble(1.0), QuadDouble(1.0) + low):
            assert isinstance(total, QuadDouble)
            assert total.to_fraction() == 1 + low.to_fraction()
        assert DoubleDouble(1.0) == QuadDouble(1.0)
        assert DoubleDouble(1.0) < QuadDouble(1.0) + QuadDouble(1e-40)

    def test_complexes(self):
        low = ComplexDD(DoubleDouble(1.0, 1e-20), 2.0)
        for total in (low + ComplexQD(1.0), ComplexQD(1.0) + low,
                      low * ComplexQD(1.0), ComplexQD(1.0) * low):
            assert isinstance(total, ComplexQD)
        assert (ComplexQD(1.0) + low).real.to_fraction() == \
            1 + low.real.to_fraction()
        assert (low - ComplexQD(1.0)).real.to_fraction() == \
            low.real.to_fraction() - 1
        assert ComplexQD(1.0) == ComplexDD(1.0)
        assert ComplexDD(1.0) == ComplexQD(1.0)

    def test_complex_and_narrower_real(self):
        assert ComplexQD(1.0) + DoubleDouble(1.0) == ComplexQD(2.0)
        assert DoubleDouble(1.0) + ComplexQD(1.0) == ComplexQD(2.0)
        assert ComplexDD(1.0) * DoubleDouble(2.0) == ComplexDD(2.0)


class TestProtocol:
    @REALS
    def test_powers(self, real):
        assert real(3.0) ** 2 == real(9.0)
        assert real(2.0) ** -2 == real(0.25)
        assert real(5.0) ** 0 == real(1.0)
        assert real(4.0).recip() == real(0.25)
        with pytest.raises(ZeroDivisionError):
            real(0.0) ** 0

    @COMPLEXES
    def test_complex_powers(self, cplx):
        assert cplx(3.0) ** 2 == cplx(9.0)
        assert cplx(1j) ** 2 == cplx(-1.0)
        assert cplx(2.0) ** -1 == cplx(0.5)
        with pytest.raises(ZeroDivisionError):
            cplx(0.0) ** 0

    @REALS
    def test_truth(self, real):
        assert not real(0.0) and not -real(0.0)
        assert real(5e-324)
        assert raw(real, 0.0, 1e-300)

    @COMPLEXES
    def test_complex_truth(self, cplx):
        assert not cplx(0.0)
        assert cplx.from_complex(-0.0 - 0.0j).is_zero()
        assert cplx(0.0, 1e-300) and cplx(1e-300)

    @COMPLEXES
    def test_complex_moduli(self, cplx):
        z = cplx(3 + 4j)
        assert z.abs2() == cplx.real_type(25.0)
        assert abs(z) == cplx.real_type(5.0)
        assert z.conjugate() == cplx(3 - 4j)
        assert -z == cplx(-3 - 4j)

    @REALS
    def test_reals_are_immutable(self, real):
        x = real(1.0)
        for name in real.__slots__:
            with pytest.raises(AttributeError):
                setattr(x, name, 0.0)

    @COMPLEXES
    def test_complexes_are_immutable(self, cplx):
        z = cplx(1 + 2j)
        for name in ("real", "imag"):
            part = getattr(z, name)
            with pytest.raises(AttributeError):
                setattr(z, name, -part)
        assert z.to_complex() == 1 + 2j


class TestPicklingAndCopying:
    @REALS
    def test_reals_round_trip_bit_for_bit(self, real):
        for x in specials(real) + [real.convert("0.1")]:
            for back in (pickle.loads(pickle.dumps(x)), copy.copy(x),
                         copy.deepcopy(x)):
                assert type(back) is real
                assert bits(back.components()) == bits(x.components())

    @COMPLEXES
    def test_complexes_round_trip_bit_for_bit(self, cplx):
        values = specials(cplx.real_type)
        for z in [cplx(a, b) for a, b in zip(values, values[::-1])]:
            for back in (pickle.loads(pickle.dumps(z)), copy.copy(z),
                         copy.deepcopy(z)):
                assert type(back) is cplx
                assert type(back.real) is type(back.imag) is cplx.real_type
                assert bits(back.components()) == bits(z.components())


class TestPrinting:
    @REALS
    def test_repr_shows_the_exact_components(self, real):
        x = real.convert("0.1")
        assert repr(x) == \
            f"{real.__name__}({', '.join(map(repr, x.components()))})"
        assert repr(raw(real, math.inf, math.nan)).startswith(
            f"{real.__name__}(inf, nan")

    @COMPLEXES
    def test_complex_repr_shows_the_exact_parts(self, cplx):
        z = cplx(cplx.real_type.convert("0.1"), -2.0)
        assert repr(z) == f"{cplx.__name__}({z.real!r}, {z.imag!r})"
        assert repr(z.real.components()[1]) in repr(z)

    @REALS
    def test_str_is_a_decimal_string(self, real):
        digits = 16 * real.width
        assert str(real(1.5)) == "1.5" + "0" * (digits - 2) + "e+00"
        assert str(real.convert("-0.1")) == \
            "-1." + "0" * (digits - 1) + "e-01"
        assert str(real(0.0)) == "0." + "0" * (digits - 1) + "e+00"
        assert real.convert("0.1").to_decimal_string(5) == "1.0000e-01"
        assert str(raw(real, math.inf)) == "inf"

    @REALS
    def test_int_truncates(self, real):
        assert int(real(2.5)) == 2
        assert int(real(-2.5)) == -2
        assert int(real.convert(BIG)) == BIG
        assert float(real.convert(BIG)) == float(BIG)


class TestOrdering:
    @REALS
    def test_trailing_components_order_the_values(self, real):
        one = real(1.0)
        above, below = one + real.eps, one - real.eps
        assert below < one < above
        assert above > one > below
        assert below <= one <= above and above >= one >= below
        assert abs(-above) == above and abs(below) == below

    @REALS
    def test_signed_zeros_compare_equal(self, real):
        zero, minus_zero = raw(real, 0.0), raw(real, -0.0, -0.0)
        assert zero == minus_zero and not zero != minus_zero
        assert zero <= minus_zero and zero >= minus_zero
        assert not (zero < minus_zero or zero > minus_zero)
        assert not minus_zero.is_negative() and not minus_zero.is_positive()
        assert raw(real, 0.0, -1e-300) < zero

    @REALS
    def test_nan_compares_false_except_under_ne(self, real):
        nan = raw(real, math.nan)
        one = real(1.0)
        assert nan != nan and not nan == nan
        for a, b in ((nan, nan), (nan, one), (one, nan)):
            assert not (a < b or a <= b or a > b or a >= b)
        assert nan.is_nan() and not nan.is_finite()

    @COMPLEXES
    def test_complex_equality(self, cplx):
        assert cplx(1 + 2j) == 1 + 2j == cplx(1.0, 2.0)
        assert cplx(1.0) == 1 and cplx(1.0) != 2
        assert hash(cplx(1 + 2j)) == hash(cplx(1.0, 2.0))
        nan = cplx(math.nan)
        assert nan != nan and not nan == nan


class TestRealAgainstComplex:
    """A real equals a Python ``complex``, a ``ComplexDD`` or a
    ``ComplexQD`` exactly when the imaginary part is zero (either sign) and
    the real parts are equal; ``!=`` is the negation of ``==`` and a NaN
    part compares unequal; ordering a real against a complex raises."""

    ONES = [DoubleDouble(1.0), QuadDouble(1.0), 1.0, 1, ComplexDD(1.0),
            ComplexQD(1.0), 1 + 0j]
    ONE_IDS = ["dd", "qd", "float", "int", "cdd", "cqd", "complex"]

    @pytest.mark.parametrize("a", ONES, ids=ONE_IDS)
    @pytest.mark.parametrize("b", ONES, ids=ONE_IDS)
    def test_equal_ones_are_equal_both_ways(self, a, b):
        assert a == b and b == a
        assert not (a != b or b != a)

    def test_a_set_of_the_ones_has_one_member_in_every_order(self):
        for order in itertools.permutations(self.ONES):
            assert len(set(order)) == 1, order

    @REALS
    @COMPLEXES
    def test_a_signed_zero_imaginary_part(self, real, cplx):
        x = real(2.5)
        for zero in (raw(cplx.real_type, 0.0), raw(cplx.real_type, -0.0, -0.0)):
            for z in (cplx(2.5, zero), complex(2.5, zero.to_float())):
                assert x == z and z == x and not (x != z or z != x)

    @REALS
    @COMPLEXES
    def test_a_nonzero_imaginary_or_unequal_real_part(self, real, cplx):
        x = real(2.5)
        others = [cplx(2.5, 1e-300), complex(2.5, -1e-300), cplx(-2.5),
                  cplx(2.5, raw(cplx.real_type, 0.0, 1e-300)),
                  cplx(cplx.real_type(2.5) + cplx.real_type.eps)]
        for z in others:
            assert x != z and z != x and not (x == z or z == x), z

    @REALS
    @COMPLEXES
    def test_a_nan_part_compares_unequal(self, real, cplx):
        nan = raw(real, math.nan)
        for x, z in ((real(1.0), cplx(1.0, raw(cplx.real_type, math.nan))),
                     (real(1.0), complex(1.0, math.nan)),
                     (nan, cplx(raw(cplx.real_type, math.nan))),
                     (nan, complex(math.nan, 0.0))):
            assert x != z and z != x and not (x == z or z == x)

    @REALS
    @COMPLEXES
    def test_ordering_a_real_against_a_complex_raises(self, real, cplx):
        for z in (cplx(1.0), 1 + 0j):
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                with pytest.raises(TypeError):
                    op(real(1.0), z)
                with pytest.raises(TypeError):
                    op(z, real(1.0))


class TestMagnitudes:
    """``sqrt`` of +inf is +inf, and a complex modulus overflows or
    underflows only when its value does."""

    @staticmethod
    def infinity(real) -> list:
        return bits((math.inf,) + (0.0,) * (real.width - 1))

    @REALS
    def test_sqrt_of_infinity(self, real):
        for x in (real(math.inf), raw(real, math.inf)):
            assert bits(x.sqrt().components()) == self.infinity(real)
        assert real(4.0).sqrt() == real(2.0) and not real(0.0).sqrt()

    @COMPLEXES
    @pytest.mark.parametrize("value", [complex(1e200, 1e200),
                                       complex(1e-200, 1e-200),
                                       complex(3e307, -4e307),
                                       complex(-1e-170, 1e-160),
                                       complex(5e-324, 0.0)])
    def test_a_modulus_out_of_range_of_its_square(self, cplx, value):
        modulus = abs(cplx(value))
        assert math.isclose(modulus.to_float(), abs(value), rel_tol=1e-15)

    @COMPLEXES
    @pytest.mark.parametrize("exponent", [600, 601, -600, -601])
    def test_a_scaled_modulus_is_exact(self, cplx, exponent):
        scale = 2.0 ** exponent
        assert abs(cplx(3 * scale, 4 * scale)) == cplx.real_type(5 * scale)

    @COMPLEXES
    def test_an_infinite_part_gives_infinity(self, cplx):
        nan = raw(cplx.real_type, math.nan)
        for z in (cplx(complex(math.inf, 0.0)), cplx(nan, -math.inf),
                  cplx(1.7e308, 1.7e308)):
            assert bits(abs(z).components()) == self.infinity(cplx.real_type)
        assert abs(cplx(nan, 1.0)).is_nan()

    @COMPLEXES
    def test_a_square_in_range_keeps_its_root(self, cplx):
        for value in (3 + 4j, complex(0.1, -1e-300), 1e150 - 2e150j,
                      complex(2.0 ** -500, 0.0), 0j):
            z = cplx(value) * cplx(1.0, 1e-20)
            assert bits(abs(z).components()) == \
                bits(z.abs2().sqrt().components())


class TestHashing:
    """Equal values hash equal: across the precisions, with the Python
    numbers they equal, and over signed zeros.  A finite real hashes its
    exact value, a non-finite one its leading component; a complex
    combines its parts' hashes as ``complex`` does."""

    NUMBERS = [1.0, -2.5, 0.1, 2.0 ** -1074, 1e300, -7.0]

    @pytest.mark.parametrize("value", NUMBERS)
    def test_reals_hash_as_the_float_they_equal(self, value):
        for real in (DoubleDouble, QuadDouble):
            x = real(value)
            assert x == value and hash(x) == hash(value)
        assert hash(DoubleDouble(value)) == hash(QuadDouble(value))

    def test_integers(self):
        for real in (DoubleDouble, QuadDouble):
            assert hash(real(3)) == hash(3)
            assert hash(real.convert(BIG)) == hash(BIG)

    @pytest.mark.parametrize("value", [1 + 2j, -0.5 - 3j, complex(0.1, -1e-300),
                                       complex(1e300, 2.0 ** -1074), 4.0 + 0j])
    def test_complexes_hash_as_the_complex_they_equal(self, value):
        for cplx in (ComplexDD, ComplexQD):
            z = cplx(value)
            assert z == value and hash(z) == hash(value)

    def test_a_real_complex_hashes_as_its_real_part(self):
        for cplx, real in ((ComplexDD, DoubleDouble), (ComplexQD, QuadDouble)):
            assert cplx(2.5) == real(2.5) and hash(cplx(2.5)) == \
                hash(real(2.5)) == hash(2.5)

    def test_signed_zeros(self):
        for real in (DoubleDouble, QuadDouble):
            zero, minus_zero = raw(real, 0.0), raw(real, -0.0, -0.0)
            assert hash(zero) == hash(minus_zero) == hash(0.0)
        for cplx in (ComplexDD, ComplexQD):
            assert hash(cplx(complex(-0.0, -0.0))) == hash(cplx(0.0)) == 0

    def test_a_nonzero_low_part_hashes_the_exact_value(self):
        low = DoubleDouble(1.0, 1e-20)
        wide = QuadDouble.convert(low)
        assert low == wide and hash(low) == hash(wide) == \
            hash(low.to_fraction())
        assert hash(low) != hash(1.0)
        z, w = ComplexDD(low, -low), ComplexQD(wide, -wide)
        assert z == w and hash(z) == hash(w)

    def test_non_finite_values_hash_their_leading_component(self):
        for real in (DoubleDouble, QuadDouble):
            assert hash(raw(real, math.inf)) == hash(math.inf)
            assert hash(raw(real, -math.inf, -0.0)) == hash(-math.inf)
        assert hash(ComplexQD(complex(math.inf, 1.0))) == \
            hash(complex(math.inf, 1.0))

    def test_sets_and_dict_keys(self):
        assert len({DoubleDouble(1.0), QuadDouble(1.0), 1.0, 1}) == 1
        assert len({ComplexDD(1 + 2j), ComplexQD(1 + 2j), 1 + 2j}) == 1
        low = DoubleDouble(1.0, 1e-20)
        assert len({low, QuadDouble.convert(low), DoubleDouble(1.0)}) == 2
        table = {QuadDouble(0.5): "half", ComplexQD(3j): "three i"}
        assert table[DoubleDouble(0.5)] == table[0.5] == "half"
        assert table[ComplexDD(3j)] == table[3j] == "three i"
