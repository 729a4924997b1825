"""Tests for the per-lane-pivoted batched linear solver.

Every behaviour is pinned on the three built-in backends and on both
routes: the compiled ``solve_d`` / ``solve_dd`` / ``solve_qd`` kernel, and
the Python elimination with the kernels forced off.  The differential
suite then holds the kernel to the Python elimination bit for bit, under
the NaN contract of ``compiled._same_bits`` (NaN positions match, a NaN's
sign and payload may not), and checks when the kernel declines.  The
Newton update (``newton=NewtonUpdate(...)``, the ``newton_d`` /
``newton_dd`` / ``newton_qd`` kernels) gets the same treatment.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.errors import DivisionByZeroError
from repro.multiprec import compiled
from repro.multiprec.backend import (COMPLEX128_BACKEND, COMPLEX_DD_BACKEND,
                                     COMPLEX_QD_BACKEND)
from repro.multiprec.ddarray import ComplexDDArray
from repro.multiprec.qdarray import ComplexQDArray
from repro.tracking import batched_solve
from repro.tracking.batch_linsolve import NewtonUpdate

BACKENDS = [COMPLEX128_BACKEND, COMPLEX_DD_BACKEND, COMPLEX_QD_BACKEND]
by_backend = pytest.mark.parametrize("backend", BACKENDS,
                                     ids=lambda b: b.name)


def _rows(values, backend):
    arr = np.asarray(values, dtype=np.complex128)
    if backend is COMPLEX128_BACKEND:
        return arr
    if backend is COMPLEX_DD_BACKEND:
        return ComplexDDArray.from_complex128(arr)
    return ComplexQDArray.from_complex128(arr)


def _native_or_skip(backend):
    if compiled.KERNELS is None or backend.name not in compiled.SOLVE_CONTEXTS:
        pytest.skip("the compiled solve does not run on this host")


@pytest.fixture(params=["native", "python"])
def route(request, monkeypatch):
    """Run the test through the compiled solve, or with the kernels off."""
    if request.param == "python":
        monkeypatch.setattr(compiled, "KERNELS", None)
    return request.param


@by_backend
class TestBatchedSolve:
    def test_matches_numpy_lane_by_lane(self, backend, route):
        rng = np.random.default_rng(42)
        n, lanes = 3, 5
        matrices = rng.normal(size=(lanes, n, n)) + 1j * rng.normal(size=(lanes, n, n))
        rhs = rng.normal(size=(lanes, n)) + 1j * rng.normal(size=(lanes, n))
        matrix = [[_rows(matrices[:, i, j], backend) for j in range(n)]
                  for i in range(n)]
        solution, singular = batched_solve(matrix,
                                           [_rows(rhs[:, i], backend) for i in range(n)],
                                           backend)
        assert solution.shape == (n, lanes)
        assert not singular.any()
        for lane in range(lanes):
            expected = np.linalg.solve(matrices[lane], rhs[lane])
            got = np.array([backend.to_complex128(solution[i])[lane]
                            for i in range(n)])
            assert np.allclose(got, expected, rtol=1e-10)

    def test_exact_zero_lane_is_masked_not_raised(self, backend, route):
        matrix = [[_rows([1.0, 0.0], backend), _rows([0.0, 0.0], backend)],
                  [_rows([0.0, 0.0], backend), _rows([1.0, 0.0], backend)]]
        rhs = [_rows([2.0, 2.0], backend), _rows([3.0, 3.0], backend)]
        solution, singular = batched_solve(matrix, rhs, backend)
        assert singular.tolist() == [False, True]
        assert backend.to_complex128(solution[0])[0] == pytest.approx(2.0)

    @pytest.mark.parametrize("tiny", [1e-170, 1.2e-162 + 1.2e-162j],
                             ids=["underflowed-square", "hypot-boundary"])
    def test_denormal_pivot_lane_is_masked_not_raised(self, backend, route,
                                                      tiny):
        # Such pivots are nonzero, but squaring their components underflows:
        # complex double-double division would raise DivisionByZeroError
        # (the hypot-boundary case has |p|^2 denormal-nonzero while the
        # component squares are exact zeros).  The solver must retire only
        # that lane (the "one bad path cannot stall its batch" contract).
        matrix = [[_rows([2.0, tiny], backend), _rows([0.0, 0.0], backend)],
                  [_rows([0.0, 0.0], backend), _rows([2.0, tiny], backend)]]
        rhs = [_rows([4.0, 1.0], backend), _rows([6.0, 1.0], backend)]
        solution, singular = batched_solve(matrix, rhs, backend)
        assert singular.tolist() == [False, True]
        assert backend.to_complex128(solution[0])[0] == pytest.approx(2.0)
        assert backend.to_complex128(solution[1])[0] == pytest.approx(3.0)

    def test_inactive_lanes_never_reported_singular(self, backend, route):
        matrix = [[_rows([1.0, 0.0], backend)]]
        rhs = [_rows([1.0, 1.0], backend)]
        solution, singular = batched_solve(matrix, rhs, backend,
                                           active=np.array([True, False]))
        assert singular.tolist() == [False, False]
        assert backend.to_complex128(solution[0])[0] == pytest.approx(1.0)

    def test_a_nan_candidate_wins_the_pivot(self, backend, route):
        # np.argmax's rule: a NaN magnitude anywhere among a lane's
        # candidates wins the pivot.  Lane 0 pivots on its NaN entry, so
        # its zero entry is never a pivot and the lane is not singular;
        # lane 1, the same system without the NaN, pivots on zero.
        solution, singular = batched_solve(*nan_pivot_system(backend),
                                           backend)
        assert singular.tolist() == [False, True]
        assert np.isnan(backend.to_complex128(solution)[:, 0]).all()

    @pytest.mark.parametrize("active", [[True], [True] * 3, [[True, True]]],
                             ids=["short", "long", "2-D"])
    def test_an_active_mask_must_cover_every_lane(self, backend, route,
                                                  active):
        # Both routes refuse it alike: the kernel declined such a mask and
        # the Python elimination then broadcast a length-1 mask silently.
        matrix = [[_rows([1.0, 0.0], backend)]]
        with pytest.raises(ValueError, match="active mask"):
            batched_solve(matrix, [_rows([1.0, 1.0], backend)], backend,
                          active=np.array(active))

    def test_a_newton_update_takes_no_active_mask(self, backend, route):
        matrix = [[_rows([1.0, 2.0], backend)]]
        step = NewtonUpdate(_rows([[0.0, 0.0]], backend), 1e-12)
        with pytest.raises(ValueError, match="active mask"):
            batched_solve(matrix, [_rows([1.0, 1.0], backend)], backend,
                          active=np.ones(2, dtype=bool), newton=step)
        with pytest.raises(ValueError, match="one equation"):
            batched_solve([], [], backend, newton=step)

    def test_a_newton_update(self, backend, route):
        # Lane 0 is done (|f| <= tolerance), lane 1 moves by -f / J, lane 2
        # is singular.  Only lane 1 moves; the residual and update norms
        # are the lanes' |f| and |dx|.
        matrix = [[_rows([2.0, 4.0, 0.0], backend)]]
        values = [_rows([1e-13, 2.0 - 2.0j, 1.0], backend)]
        step = NewtonUpdate(_rows([[1.0, 1.0, 1.0]], backend), 1e-12)
        dx, singular = batched_solve(matrix, values, backend, newton=step)
        assert singular.tolist() == [False, False, True]
        got = backend.to_complex128(step.points)[0]
        assert got.tolist() == [1.0, 0.5 + 0.5j, 1.0]
        assert step.residual.tolist() == [1e-13, abs(2.0 - 2.0j), 1.0]
        assert step.update[1] == abs(0.5 - 0.5j)
        assert backend.to_complex128(dx)[0, 1] == -0.5 + 0.5j


def nan_pivot_system(backend):
    nan = complex(np.nan, 0.0)
    matrix = [[_rows([0.0, 0.0], backend), _rows([1.0, 1.0], backend)],
              [_rows([nan, 0.0], backend), _rows([1.0, 1.0], backend)]]
    return matrix, [_rows([1.0, 1.0], backend), _rows([2.0, 2.0], backend)]


# ----------------------------------------------------------------------
# the compiled solve against the Python elimination
# ----------------------------------------------------------------------
class KernelSpy:
    """The loaded kernels, recording what every solve and Newton update
    call returned."""

    def __init__(self, kernels):
        self._kernels = kernels
        self.solves = []
        self.updates = []

    def __getattr__(self, name):
        kernel = getattr(self._kernels, name)
        calls = {"solve": self.solves,
                 "newton": self.updates}.get(name.partition("_")[0])
        if calls is None:
            return kernel

        def recorded(*args):
            result = kernel(*args)
            calls.append(result)
            return result
        return recorded


def solve_both_ways(monkeypatch, matrix, rhs, backend, active=None):
    """``(compiled, python, spy)``: the solve with the kernels spied on,
    the same solve with the kernels off, and the spy."""
    spy = KernelSpy(compiled.KERNELS)
    with monkeypatch.context() as patch:
        patch.setattr(compiled, "KERNELS", spy)
        got = batched_solve(matrix, rhs, backend, active=active)
    with monkeypatch.context() as patch:
        patch.setattr(compiled, "KERNELS", None)
        want = batched_solve(matrix, rhs, backend, active=active)
    return got, want, spy


def assert_same_solve(got, want, backend):
    assert np.array_equal(got[1], want[1]), "singular lanes differ"
    planes = backend.component_planes
    for a, b in zip(planes(got[0]), planes(want[0])):
        assert compiled._same_bits(a, b), "solution bits differ"


def system(backend, values, n):
    """An ``n x n`` matrix and rhs from ``n*n + n`` complex lane rows."""
    rows = [_rows(v, backend) for v in values]
    return [rows[i * n:(i + 1) * n] for i in range(n)], rows[n * n:]


def random_values(rng, n, lanes):
    return rng.normal(size=(n * n + n, lanes)) \
        + 1j * rng.normal(size=(n * n + n, lanes))


@by_backend
class TestCompiledMatchesPython:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_random_systems(self, backend, monkeypatch, n):
        _native_or_skip(backend)
        rng = np.random.default_rng(100 + n)
        for lanes in (1, int(rng.integers(2, 33)), 32):
            matrix, rhs = system(backend, random_values(rng, n, lanes), n)
            # Thirds: dd/qd entries with nonzero low components.
            matrix = [[entry / 3.0 for entry in row] for row in matrix]
            got, want, spy = solve_both_ways(monkeypatch, matrix, rhs,
                                             backend)
            assert spy.solves == [None], "the compiled solve declined"
            assert_same_solve(got, want, backend)

    def test_zero_and_tiny_pivot_lanes(self, backend, monkeypatch):
        _native_or_skip(backend)
        values = random_values(np.random.default_rng(7), 3, 6)
        values[[0, 3, 6], 1] = 0.0                       # exact-zero column
        values[[0, 3, 6], 2] *= 1e-170                   # underflowed square
        values[[0, 3, 6], 3] = 1.2e-162 + 1.2e-162j      # hypot boundary
        values[[1, 4, 7], 4] = 0.0                       # dead second pivot
        got, want, spy = solve_both_ways(
            monkeypatch, *system(backend, values, 3), backend)
        assert spy.solves == [None]
        assert_same_solve(got, want, backend)
        assert got[1].tolist() == [False, True, True, True, True, False]

    def test_inf_and_nan_lanes(self, backend, monkeypatch):
        _native_or_skip(backend)
        values = random_values(np.random.default_rng(8), 3, 7)
        values[0, 1] = complex(np.inf, 0.0)
        values[4, 2] = complex(1.0, -np.inf)
        values[0, 3] = complex(np.nan, 1.0)
        values[3, 4] = complex(0.0, np.nan)              # NaN below the diagonal
        values[7, 5] = complex(np.nan, np.nan)           # NaN in the last column
        values[9, 6] = complex(np.inf, np.nan)           # in the right-hand side
        with np.errstate(all="ignore"):
            matrix, rhs = system(backend, values, 3)
        got, want, spy = solve_both_ways(monkeypatch, matrix, rhs, backend)
        assert spy.solves == [None]
        assert_same_solve(got, want, backend)
        assert np.isnan(backend.to_complex128(got[0])[:, 4]).all()

    def test_the_nan_pivot_rule(self, backend, monkeypatch):
        _native_or_skip(backend)
        got, want, spy = solve_both_ways(
            monkeypatch, *nan_pivot_system(backend), backend)
        assert spy.solves == [None]
        assert_same_solve(got, want, backend)
        assert got[1].tolist() == [False, True]

    def test_the_solution_lands_like_the_stacked_python_rows(
            self, backend, monkeypatch):
        # -5e-324j / 3j is a qd zero with negative components, which the
        # QDArray constructor behind backend.stack renormalises to +0.
        _native_or_skip(backend)
        values = [[3j, 3j], [-5e-324j, 1.0]]
        got, want, spy = solve_both_ways(
            monkeypatch, *system(backend, values, 1), backend)
        assert spy.solves == [None]
        assert_same_solve(got, want, backend)

    def test_inactive_lanes(self, backend, monkeypatch):
        _native_or_skip(backend)
        values = random_values(np.random.default_rng(9), 2, 5)
        values[[0, 2], 1] = 0.0
        values[[0, 2], 3] = 0.0
        active = np.array([True, False, True, True, False])
        got, want, spy = solve_both_ways(
            monkeypatch, *system(backend, values, 2), backend, active=active)
        assert spy.solves == [None]
        assert_same_solve(got, want, backend)
        assert got[1].tolist() == [False, False, False, True, False]

    def test_rows_of_a_lane_gather(self, backend, monkeypatch):
        # The corrector solves on rows the plan returns, but any caller may
        # hand in rows of a column-major gather x[:, idx]: strided planes.
        _native_or_skip(backend)
        n = 3
        full = _rows(random_values(np.random.default_rng(10), n, 9), backend)
        gathered = full[:, np.array([8, 1, 4, 0, 6])]
        rows = [gathered[i] for i in range(n * n + n)]
        matrix = [rows[i * n:(i + 1) * n] for i in range(n)]
        got, want, spy = solve_both_ways(monkeypatch, matrix, rows[n * n:],
                                         backend)
        assert spy.solves == [None]
        assert_same_solve(got, want, backend)

    def test_a_reversed_row(self, backend, monkeypatch):
        # NumPy takes the magnitude of a reversed complex128 row with
        # hypot, not the vectorised formula: the d kernel declines such a
        # row, the dd/qd kernels (whose magnitudes come from a fresh
        # to_complex128 copy) take it.
        _native_or_skip(backend)
        matrix, rhs = system(backend, random_values(
            np.random.default_rng(11), 2, 6), 2)
        matrix[1][0] = matrix[1][0][::-1]
        got, want, spy = solve_both_ways(monkeypatch, matrix, rhs, backend)
        declined = backend is COMPLEX128_BACKEND
        assert spy.solves == [NotImplemented if declined else None]
        assert_same_solve(got, want, backend)

    def test_above_the_kernel_bound_falls_back(self, backend, monkeypatch):
        _native_or_skip(backend)
        n = compiled.KERNELS.SOLVE_MAX_N + 1
        rng = np.random.default_rng(12)
        values = random_values(rng, n, 3)
        matrix, rhs = system(backend, values, n)
        spy = KernelSpy(compiled.KERNELS)
        monkeypatch.setattr(compiled, "KERNELS", spy)
        solution, singular = batched_solve(matrix, rhs, backend)
        assert spy.solves == [NotImplemented]
        assert not singular.any()
        a = values[:n * n].reshape(n, n, 3)
        for lane in range(3):
            expected = np.linalg.solve(a[:, :, lane], values[n * n:, lane])
            got = backend.to_complex128(solution)[:, lane]
            assert np.allclose(got, expected, rtol=1e-8)


@by_backend
def test_patched_and_foreign_backends_run_the_python_elimination(
        backend, monkeypatch):
    # The TapeRunner rule: only a built-in backend type with no method
    # replaced on the instance runs the kernel.
    _native_or_skip(backend)
    values = random_values(np.random.default_rng(15), 2, 4)
    want = batched_solve(*system(backend, values, 2), backend)
    calls = []
    patched = type(backend)()
    patched.isub_mul = lambda acc, f, v: calls.append(1) or \
        backend.isub_mul(acc, f, v)
    foreign = type("Foreign", (type(backend),), {})()
    spy = KernelSpy(compiled.KERNELS)
    monkeypatch.setattr(compiled, "KERNELS", spy)
    for other in (patched, foreign):
        assert_same_solve(batched_solve(*system(backend, values, 2), other),
                          want, backend)
    assert spy.solves == [] and calls


@pytest.mark.parametrize("backend", BACKENDS[1:], ids=lambda b: b.name)
def test_zero_denominator_declines_to_the_python_error(backend, monkeypatch):
    # A pivot whose hardware magnitude is 1 but whose unnormalised
    # components square to an exact zero (dd: 1 - 1/2, qd: 1 - 1): the
    # division meets a zero denominator, the kernel declines, and the
    # Python elimination raises.
    _native_or_skip(backend)
    one, zero = np.ones(2), np.zeros(2)
    if backend is COMPLEX_DD_BACKEND:
        pivot = ComplexDDArray.from_planes((one, -0.5 * one, zero, zero))
    else:
        pivot = ComplexQDArray.from_planes((one, -one, zero, zero,
                                            zero, zero, zero, zero))
    spy = KernelSpy(compiled.KERNELS)
    monkeypatch.setattr(compiled, "KERNELS", spy)
    with pytest.raises(DivisionByZeroError):
        batched_solve([[pivot]], [_rows([1.0, 2.0], backend)], backend)
    assert spy.solves == [NotImplemented]


# ----------------------------------------------------------------------
# the compiled Newton update against its Python route
# ----------------------------------------------------------------------
def update_both_ways(monkeypatch, matrix, values, points, tolerance,
                     backend):
    """``(compiled, python, spy)``: the Newton update with the kernels
    spied on and with the kernels off, each on a fresh iterate
    ``points()``, as ``(request, dx, singular)``."""
    outcomes = []
    spy = KernelSpy(compiled.KERNELS)
    for kernels in (spy, None):
        with monkeypatch.context() as patch:
            patch.setattr(compiled, "KERNELS", kernels)
            step = NewtonUpdate(points(), tolerance)
            outcomes.append((step, *batched_solve(matrix, values, backend,
                                                  newton=step)))
    return outcomes[0], outcomes[1], spy


def assert_same_update(got, want, backend):
    (got_step, got_dx, got_singular) = got
    (want_step, want_dx, want_singular) = want
    assert np.array_equal(got_singular, want_singular), "singular lanes differ"
    assert compiled._same_bits(got_step.residual, want_step.residual)
    assert compiled._same_bits(got_step.update, want_step.update)
    planes = backend.component_planes
    for a, b in zip(planes(got_dx), planes(want_dx)):
        assert compiled._same_bits(a, b), "update bits differ"
    for a, b in zip(planes(got_step.points), planes(want_step.points)):
        assert compiled._same_bits(a, b), "iterate bits differ"


def iterate(backend, rng, n, lanes, gather=False):
    """A factory of fresh ``(n, lanes)`` iterates: C-contiguous copies, or
    the column-major lane gathers ``x[:, idx]`` of the corrector."""
    full = _rows(rng.normal(size=(n, 2 * lanes))
                 + 1j * rng.normal(size=(n, 2 * lanes)), backend)
    idx = rng.permutation(2 * lanes)[:lanes]
    if gather:
        return lambda: full[:, idx]
    return lambda: backend.copy(full[:, :lanes])


def residual_norms(values, n):
    """The lanes' |f|_inf over the complex128 value rows."""
    return np.abs(values[n * n:]).max(axis=0)


@by_backend
class TestNewtonUpdateMatchesPython:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_random_systems(self, backend, monkeypatch, n):
        _native_or_skip(backend)
        rng = np.random.default_rng(200 + n)
        for lanes in (1, int(rng.integers(2, 33)), 32):
            values = random_values(rng, n, lanes)
            matrix, f = system(backend, values, n)
            matrix = [[entry / 3.0 for entry in row] for row in matrix]
            # One lane's residual is the tolerance exactly: that lane is
            # done, and the lanes above it move.
            tolerance = float(residual_norms(values, n)[
                rng.integers(lanes)])
            got, want, spy = update_both_ways(
                monkeypatch, matrix, f, iterate(backend, rng, n, lanes),
                tolerance, backend)
            assert spy.updates == [None], "the compiled update declined"
            assert_same_update(got, want, backend)
            assert (got[0].residual == tolerance).any()

    def test_every_lane_done(self, backend, monkeypatch):
        _native_or_skip(backend)
        rng = np.random.default_rng(21)
        values = random_values(rng, 3, 7)
        values[[0, 3, 6], 2] = 0.0  # a singular lane, but done
        points = iterate(backend, rng, 3, 7)
        got, want, spy = update_both_ways(
            monkeypatch, *system(backend, values, 3), points,
            float(residual_norms(values, 3).max()), backend)
        assert spy.updates == [None]
        assert_same_update(got, want, backend)
        assert not got[2].any()
        for a, b in zip(backend.component_planes(got[0].points),
                        backend.component_planes(points())):
            assert compiled._same_bits(a, b), "a done lane moved"

    def test_singular_and_non_finite_lanes(self, backend, monkeypatch):
        _native_or_skip(backend)
        rng = np.random.default_rng(22)
        values = random_values(rng, 3, 10)
        values[[0, 3, 6], 1] = 0.0                       # exact-zero column
        values[[0, 3, 6], 2] *= 1e-170                   # underflowed square
        values[0, 3] = complex(np.inf, 0.0)              # inf in J
        values[4, 4] = complex(np.nan, 1.0)              # NaN in J
        values[9, 5] = complex(np.inf, 0.0)              # inf residual
        values[10, 6] = complex(0.0, np.nan)             # NaN residual
        values[[0, 3, 6], 7] = 0.0                       # singular, but done
        values[9:, 7] = 1e-9
        values[9:, 8] = 0.0                              # an exact root
        with np.errstate(all="ignore"):
            matrix, f = system(backend, values, 3)
        got, want, spy = update_both_ways(
            monkeypatch, matrix, f, iterate(backend, rng, 3, 10), 1e-6,
            backend)
        assert spy.updates == [None]
        assert_same_update(got, want, backend)
        assert np.flatnonzero(got[2]).tolist() == [1, 2]
        assert np.isnan(got[0].residual[6]) and got[0].residual[5] == np.inf
        done = got[0].residual <= 1e-6
        assert np.flatnonzero(done).tolist() == [7, 8]

    def test_a_lane_gather(self, backend, monkeypatch):
        # The corrector's iterate is a column-major gather x[:, idx], and
        # any caller may hand in gathered rows too.
        _native_or_skip(backend)
        n, rng = 3, np.random.default_rng(23)
        full = _rows(random_values(rng, n, 9), backend)
        gathered = full[:, np.array([8, 1, 4, 0, 6])]
        rows = [gathered[i] for i in range(n * n + n)]
        matrix = [rows[i * n:(i + 1) * n] for i in range(n)]
        got, want, spy = update_both_ways(
            monkeypatch, matrix, rows[n * n:],
            iterate(backend, rng, n, 5, gather=True), 1.0, backend)
        assert spy.updates == [None]
        assert_same_update(got, want, backend)

    def test_above_the_kernel_bound_declines(self, backend, monkeypatch):
        _native_or_skip(backend)
        n = compiled.KERNELS.SOLVE_MAX_N + 1
        rng = np.random.default_rng(24)
        got, want, spy = update_both_ways(
            monkeypatch, *system(backend, random_values(rng, n, 3), n),
            iterate(backend, rng, n, 3), 1e-3, backend)
        assert spy.updates == [NotImplemented]
        assert_same_update(got, want, backend)


@pytest.mark.parametrize("backend", BACKENDS[1:], ids=lambda b: b.name)
def test_a_zero_denominator_leaves_the_iterate_to_the_python_error(
        backend, monkeypatch):
    # Lane 0 solves and would move; lane 1 meets a zero denominator.  The
    # kernel declines without having moved lane 0, and the Python route
    # raises before its update.
    _native_or_skip(backend)
    one, zero = np.ones(2), np.zeros(2)
    if backend is COMPLEX_DD_BACKEND:
        pivot = ComplexDDArray.from_planes((one, np.array([0.0, -0.5]),
                                            zero, zero))
    else:
        pivot = ComplexQDArray.from_planes((one, np.array([0.0, -1.0]), zero,
                                            zero, zero, zero, zero, zero))
    points = _rows([[1.0, 1.0]], backend)
    step = NewtonUpdate(backend.copy(points), 1e-12)
    spy = KernelSpy(compiled.KERNELS)
    monkeypatch.setattr(compiled, "KERNELS", spy)
    with pytest.raises(DivisionByZeroError):
        batched_solve([[pivot]], [_rows([1.0, 2.0], backend)], backend,
                      newton=step)
    assert spy.updates == [NotImplemented]
    for a, b in zip(backend.component_planes(step.points),
                    backend.component_planes(points)):
        assert compiled._same_bits(a, b)


class TestNewtonKernelArguments:
    """``newton_d`` validates its arguments as ``solve_d`` does, raises on
    a malformed iterate or norm output, and declines when the iterate or
    a norm output shares memory with another argument."""

    @staticmethod
    def _call(rows=None, solution=None, singular=None, x=None,
              residual=None, update=None, tolerance=1e-8, n=2, lanes=3):
        _native_or_skip(COMPLEX128_BACKEND)
        if rows is None:
            rows = list(random_values(np.random.default_rng(16), n, lanes))
        if solution is None:
            solution = np.empty((n, lanes), np.complex128)
        if singular is None:
            singular = np.empty(lanes, dtype=bool)
        if x is None:
            x = (np.zeros((n, lanes), np.complex128),)
        if residual is None:
            residual = np.empty(lanes)
        if update is None:
            update = np.empty(lanes)
        return compiled.KERNELS.newton_d(rows, solution, singular, x,
                                         residual, update, tolerance)

    def test_a_fitting_call_updates(self):
        x = np.zeros((2, 3), np.complex128, order="F")
        assert self._call(x=(x,)) is None
        assert x.any()

    def test_malformed_arguments_raise(self):
        plane = np.zeros((2, 3), np.complex128)
        readonly = plane.copy()
        readonly.flags.writeable = False
        with pytest.raises(ValueError, match="newton x"):
            self._call(x=(np.zeros((2, 4), np.complex128),))
        with pytest.raises(ValueError, match="newton x"):
            self._call(x=(plane, plane.copy()))
        with pytest.raises(TypeError, match="newton x"):
            self._call(x=(np.zeros((2, 3)),))
        with pytest.raises(ValueError, match="read-only"):
            self._call(x=(readonly,))
        with pytest.raises(ValueError, match="newton residual"):
            self._call(residual=np.empty(4))
        with pytest.raises(TypeError, match="newton update"):
            self._call(update=np.empty(3, np.float32))
        with pytest.raises(TypeError):
            self._call(tolerance="tight")
        with pytest.raises(ValueError, match="solve singular"):
            self._call(singular=np.empty(4, dtype=bool))
        with pytest.raises(TypeError, match="7 arguments"):
            compiled.KERNELS.newton_d([], None)

    def test_overlaps_and_bounds_decline(self):
        rows = list(random_values(np.random.default_rng(3), 2, 3))
        x = np.zeros((2, 3), np.complex128)
        solution = np.empty((2, 3), np.complex128)
        norms = np.empty((2, 3))
        bound = compiled.KERNELS.SOLVE_MAX_N + 1
        for kwargs in (dict(rows=rows[:5] + [x[1]], x=(x,)),
                       dict(x=(solution,), solution=solution),
                       dict(x=(x,), residual=x.view(np.float64)[0, :3]),
                       dict(rows=rows,
                            residual=rows[0].view(np.float64)[:3]),
                       dict(residual=norms[0], update=norms[0]),
                       dict(solution=solution,
                            update=solution.view(np.float64)[1, 2:5]),
                       dict(rows=[np.zeros(3, np.complex128)] * (
                           bound * bound + bound),
                            x=(np.zeros((bound, 3), np.complex128),),
                            n=bound)):
            assert self._call(**kwargs) is NotImplemented, kwargs


# ----------------------------------------------------------------------
# the load-time probe
# ----------------------------------------------------------------------
def _skewed(reference):
    def skewed(*args):
        result = np.array(reference(*args))
        result.view(np.float64)[5] = np.nextafter(
            result.view(np.float64)[5], np.inf)
        return result
    return skewed


def _probe(**references):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        contexts = compiled.solve_contexts(compiled.KERNELS,
                                           compiled.TAPE_CONTEXTS,
                                           **references)
    return contexts, [w.message for w in caught]


class TestSolveProbe:
    def test_a_division_mismatch_declines_d(self, monkeypatch):
        _native_or_skip(COMPLEX128_BACKEND)
        contexts, messages = _probe(divide=_skewed(np.divide))
        assert [type(m) for m in messages] == [RuntimeWarning]
        assert "np.divide(x, y)" in str(messages[0])
        assert contexts == {"dd", "qd"}

        values = random_values(np.random.default_rng(13), 3, 8)
        native = batched_solve(*system(COMPLEX128_BACKEND, values, 3),
                               COMPLEX128_BACKEND)
        monkeypatch.setattr(compiled, "SOLVE_CONTEXTS", contexts)
        spy = KernelSpy(compiled.KERNELS)
        monkeypatch.setattr(compiled, "KERNELS", spy)
        fallback = batched_solve(*system(COMPLEX128_BACKEND, values, 3),
                                 COMPLEX128_BACKEND)
        assert spy.solves == [], "the declined d solve still ran natively"
        assert_same_solve(fallback, native, COMPLEX128_BACKEND)

    def test_a_magnitude_mismatch_declines_every_context(self):
        _native_or_skip(COMPLEX128_BACKEND)
        contexts, messages = _probe(absolute=_skewed(np.abs))
        assert [type(m) for m in messages] == [RuntimeWarning]
        assert "np.abs(x)" in str(messages[0])
        assert contexts == frozenset()

    def test_a_declined_d_tape_declines_the_d_solve(self):
        _native_or_skip(COMPLEX128_BACKEND)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            contexts = compiled.solve_contexts(compiled.KERNELS,
                                               frozenset({"dd", "qd"}))
        assert contexts == {"dd", "qd"}


class TestKernelArguments:
    """``solve_d`` validates every argument: it raises on a malformed
    output or row count and declines every other misfit."""

    @staticmethod
    def _call(rows=None, active=None, solution=None, singular=None, n=2,
              lanes=3):
        _native_or_skip(COMPLEX128_BACKEND)
        rng = np.random.default_rng(14)
        if rows is None:
            rows = list(random_values(rng, n, lanes))
        if solution is None:
            solution = np.empty((n, lanes), np.complex128)
        if singular is None:
            singular = np.empty(lanes, dtype=bool)
        return compiled.KERNELS.solve_d(rows, active, solution, singular)

    def test_a_fitting_call_solves(self):
        assert self._call() is None

    def test_malformed_outputs_and_row_counts_raise(self):
        with pytest.raises(ValueError, match="planes"):
            self._call(rows=list(random_values(np.random.default_rng(1),
                                               2, 3))[:-1])
        with pytest.raises(ValueError, match="singular"):
            self._call(singular=np.empty(4, dtype=bool))
        with pytest.raises(ValueError, match="solution"):
            self._call(solution=np.empty((2, 3, 1), np.complex128))
        with pytest.raises(TypeError, match="solution"):
            self._call(solution=np.empty((2, 3)))

    def test_misfits_decline(self):
        rows = list(random_values(np.random.default_rng(2), 2, 3))
        short = rows[:5] + [rows[5][:2]]
        real = rows[:5] + [rows[5].real.copy()]
        bound = compiled.KERNELS.SOLVE_MAX_N + 1
        buffer = np.empty((3, 3), np.complex128)
        overlapping = rows[:5] + [buffer[1]]
        for kwargs in (dict(rows=short), dict(rows=real),
                       dict(rows=rows[:5] + [rows[5][::-1]]),
                       dict(active=np.ones(4, dtype=bool)),
                       dict(active=np.ones(3)),
                       dict(rows=overlapping, solution=buffer[:2]),
                       dict(rows=[], n=0),
                       dict(rows=[np.zeros(3, np.complex128)] * (
                           bound * bound + bound), n=bound)):
            assert self._call(**kwargs) is NotImplemented, kwargs
