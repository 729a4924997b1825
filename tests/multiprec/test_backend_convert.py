"""Tests for convert_batch: moving (n, B) lane arrays between arithmetics.

Widening conversions (d -> dd -> qd) must be exact plane embeddings -- the
property the warm-restarted escalation relies on: a checkpoint captured at a
cheap rung seeds the wider rung with bit-for-bit the same values.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.multiprec.backend import (
    COMPLEX128_BACKEND,
    COMPLEX_DD_BACKEND,
    COMPLEX_QD_BACKEND,
    convert_batch,
)
from repro.multiprec.ddarray import ComplexDDArray, DDArray
from repro.multiprec.qdarray import ComplexQDArray, QDArray


def lanes_complex128(seed=3, shape=(3, 4)):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(
        np.complex128)


def dd_with_low_planes(shape=(2, 3)):
    """A ComplexDDArray whose lo planes are non-trivial."""
    hi = np.linspace(1.0, 2.0, num=shape[0] * shape[1]).reshape(shape)
    lo = np.full(shape, 1e-20)
    return ComplexDDArray(DDArray(hi, lo), DDArray(-hi, -lo))


class TestWidening:
    def test_d_to_dd_is_exact(self):
        z = lanes_complex128()
        wide = convert_batch(z, COMPLEX128_BACKEND, COMPLEX_DD_BACKEND)
        assert isinstance(wide, ComplexDDArray)
        assert np.array_equal(wide.real.hi, z.real)
        assert np.array_equal(wide.imag.hi, z.imag)
        assert not wide.real.lo.any() and not wide.imag.lo.any()

    def test_d_to_qd_is_exact(self):
        z = lanes_complex128()
        wide = convert_batch(z, COMPLEX128_BACKEND, COMPLEX_QD_BACKEND)
        assert isinstance(wide, ComplexQDArray)
        assert np.array_equal(wide.real.c0, z.real)
        assert not (wide.real.c1.any() or wide.real.c2.any()
                    or wide.real.c3.any())

    @pytest.mark.parametrize("target", [COMPLEX_DD_BACKEND,
                                        COMPLEX_QD_BACKEND], ids=["dd", "qd"])
    def test_d_widening_keeps_every_bit(self, target):
        """Signed zeros and infinities widen bit for bit, without a
        warning: each double becomes its part's leading plane over +0.0
        planes (a renormalising embedding gives +0.0 and (inf, nan))."""
        z = np.array([[complex(-0.0, -0.0), complex(np.inf, 1.0),
                       complex(-np.inf, -0.0)]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wide = convert_batch(z, COMPLEX128_BACKEND, target)
        pad = (0.0,) * (target.planes_per_scalar // 2 - 1)
        want = [[(x.real, *pad, x.imag, *pad)] for x in z[0]]
        got = np.array(target.lane_planes(wide), dtype=np.float64)
        assert got.view(np.uint64).tolist() == \
            np.array(want, dtype=np.float64).view(np.uint64).tolist()

    def test_dd_to_qd_plane_widening_preserves_both_planes(self):
        dd = dd_with_low_planes()
        wide = convert_batch(dd, COMPLEX_DD_BACKEND, COMPLEX_QD_BACKEND)
        assert isinstance(wide, ComplexQDArray)
        assert np.array_equal(wide.real.c0, dd.real.hi)
        assert np.array_equal(wide.real.c1, dd.real.lo)
        assert np.array_equal(wide.imag.c0, dd.imag.hi)
        assert np.array_equal(wide.imag.c1, dd.imag.lo)
        assert not wide.real.c2.any() and not wide.real.c3.any()

    def test_dd_to_qd_matches_scalar_widening(self):
        """The batch widening is the vectorised QuadDouble.from_double_double."""
        from repro.multiprec.numeric import ComplexQD
        from repro.multiprec.quad_double import QuadDouble

        dd = dd_with_low_planes()
        wide = convert_batch(dd, COMPLEX_DD_BACKEND, COMPLEX_QD_BACKEND)
        for wide_lane, dd_lane in zip(COMPLEX_QD_BACKEND.lane_planes(wide),
                                      COMPLEX_DD_BACKEND.lane_planes(dd)):
            for got, planes in zip(wide_lane, dd_lane):
                src = COMPLEX_DD_BACKEND.scalar_from_planes(planes)
                want = ComplexQD(QuadDouble.from_double_double(src.real),
                                 QuadDouble.from_double_double(src.imag))
                assert COMPLEX_QD_BACKEND.scalar_from_planes(got) == want


class TestIdentityAndNarrowing:
    def test_same_context_copies(self):
        z = lanes_complex128()
        out = convert_batch(z, COMPLEX128_BACKEND, COMPLEX128_BACKEND)
        assert np.array_equal(out, z)
        out[0, 0] = 0  # a copy, not a view
        assert z[0, 0] != 0

    def test_dd_to_d_rounds(self):
        dd = dd_with_low_planes()
        narrow = convert_batch(dd, COMPLEX_DD_BACKEND, COMPLEX128_BACKEND)
        assert narrow.dtype == np.complex128
        assert np.array_equal(narrow, dd.to_complex128())

    def test_qd_to_dd_keeps_leading_planes(self):
        qd = ComplexQDArray(QDArray(np.ones((2, 2)), np.full((2, 2), 1e-20)),
                            QDArray(np.zeros((2, 2))))
        narrow = convert_batch(qd, COMPLEX_QD_BACKEND, COMPLEX_DD_BACKEND)
        assert isinstance(narrow, ComplexDDArray)
        assert np.array_equal(narrow.real.hi, qd.real.c0)
        assert np.array_equal(narrow.real.lo, qd.real.c1)


class TestRoundTripThroughCheckpoints:
    def test_widen_then_narrow_is_identity_on_d_values(self):
        z = lanes_complex128(seed=11)
        qd = convert_batch(z, COMPLEX128_BACKEND, COMPLEX_QD_BACKEND)
        back = convert_batch(qd, COMPLEX_QD_BACKEND, COMPLEX128_BACKEND)
        assert np.array_equal(back, z)
