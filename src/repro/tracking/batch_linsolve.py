"""Batched dense linear solves: one small system per lane, vectorised.

Newton's corrector inside the batched tracker must solve ``J_b dx_b = -f_b``
for every path ``b`` of the batch, where every lane has its *own* Jacobian.
The batch stores the ``B`` matrices entry-wise: ``matrix[i][j]`` is a ``(B,)``
batch array holding entry ``(i, j)`` of all lanes at once (the structure of
arrays the simulated device would hold in global memory).

The algorithm is Gaussian elimination with per-lane partial pivoting:

* pivot *selection* works on double-rounded magnitudes, exactly like the
  scalar solver in :mod:`repro.tracking.linsolve` -- a control decision that
  may differ per lane.  It follows ``np.argmax``: the first maximum wins,
  and a NaN magnitude anywhere among a lane's candidates wins outright
  (the first NaN), so a poisoned lane stays poisoned -- its NaNs are caught
  by the corrector's convergence test, while the healthy lanes are
  unaffected;
* the per-lane row swaps are realised as masked selects
  (:meth:`~repro.multiprec.backend.ComplexBatchBackend.where`), so no data is
  gathered or scattered between lanes;
* lanes whose pivot is zero *or too tiny to divide by* (``|pivot|^2``
  underflows, which is exactly when the complex double-double division
  would raise :class:`~repro.errors.DivisionByZeroError`) are flagged
  *singular* and their pivot is replaced by one so the remaining lanes keep
  eliminating undisturbed -- the batched analogue of
  :class:`~repro.errors.SingularMatrixError`, reported as a mask instead of
  an exception so one bad path cannot stall its batch.

A :class:`NewtonUpdate` request finishes the batched corrector's
iteration in the same call: the per-lane residual norm of the values
``f`` and its convergence test, the right-hand side ``-f``, the solve on
the lanes that are not done, the update norm, the masked update
``x += dx`` on the lanes that are neither done nor singular, and the
number of lanes the update stopped (:func:`newton_stops`), so that the
corrector touches its lane bookkeeping only when some lane stopped.  With
the evaluation, an iteration is then two calls.

For the built-in backends the whole elimination runs as one call of the
compiled ``solve_d`` / ``solve_dd`` / ``solve_qd`` kernel, and a Newton
update as one call of ``newton_d`` / ``newton_dd`` / ``newton_qd``
(:mod:`repro.multiprec.compiled`), where each lane eliminates its own
system and a row swap is an index swap.  The kernels replay the Python
routes below bit for bit; those stay as their fallback and test oracle
and run when no kernels are loaded, the backend is substituted or patched
on the instance, the context is not in
:data:`~repro.multiprec.compiled.SOLVE_CONTEXTS`, or the kernel declines
the call (an entry layout it does not take, ``n`` above its bound, a
Newton iterate or norm output that shares memory with another argument,
a dd/qd zero denominator -- which the Python elimination then raises).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..multiprec import compiled
from ..multiprec.backend import (COMPLEX128_BACKEND, COMPLEX_DD_BACKEND,
                                 COMPLEX_QD_BACKEND, ComplexBatchBackend,
                                 masked_lane_errstate)
from ..multiprec.ddarray import ComplexDDArray
from ..multiprec.qdarray import ComplexQDArray

__all__ = ["NewtonUpdate", "batched_solve", "lane_norms", "newton_stops"]


@dataclass
class NewtonUpdate:
    """A request to finish one batched Newton iteration in
    :func:`batched_solve`.

    Passed as ``batched_solve(jacobian, values, backend, newton=request)``,
    with the evaluation's values ``f`` where the plain call takes the
    right-hand side.  Per lane ``b``, the call then computes the residual
    ``|f_b|_inf``, solves ``J_b dx_b = -f_b``, computes the update
    ``|dx_b|_inf`` and adds ``dx_b`` to ``x_b`` where the lane is neither
    done (residual ``<= tolerance``) nor singular.  Only lanes that are not
    done are reported singular.  Norms are infinity norms over
    double-rounded magnitudes; a NaN anywhere in a lane's rows makes its
    norm NaN.

    Attributes
    ----------
    points:
        The ``(n, B)`` iterate ``x``.  After the call it holds the updated
        iterate.  Read it back from the request: a backend without an
        in-place masked add returns a new array.
    tolerance:
        The residual tolerance of the convergence test.
    residual / update:
        Set by the call: the ``(B,)`` float64 residual and update norms.
    stopped:
        Set by the call: how many lanes the update stopped
        (:func:`newton_stops`).  Zero means every lane goes on iterating.
    """

    points: object
    tolerance: float
    residual: Optional[np.ndarray] = None
    update: Optional[np.ndarray] = None
    stopped: Optional[int] = None


def newton_stops(residual, update, singular, tolerance: float):
    """The lanes a Newton update stops: done (``residual <= tolerance``),
    singular, or moved by an update ``<= tolerance`` (the small-update
    exit).  A NaN norm passes neither test, so a NaN lane goes on
    iterating.  The ``newton_d`` / ``newton_dd`` / ``newton_qd`` kernels
    count the same lanes."""
    return (residual <= tolerance) | singular | (update <= tolerance)


def lane_norms(rows, backend: ComplexBatchBackend) -> np.ndarray:
    """Per-lane infinity norms over ``rows`` (a sequence of ``(B,)`` rows
    or one ``(n, B)`` batch array): ``np.maximum`` folded over the
    double-rounded magnitudes, so a NaN magnitude makes the lane's norm
    NaN."""
    norms = backend.magnitude(rows[0])
    for i in range(1, len(rows)):
        norms = np.maximum(norms, backend.magnitude(rows[i]))
    return norms


def batched_solve(matrix: Sequence[Sequence], rhs: Sequence,
                  backend: ComplexBatchBackend,
                  active: Optional[np.ndarray] = None,
                  copy: bool = True, *,
                  newton: Optional[NewtonUpdate] = None
                  ) -> Tuple[object, np.ndarray]:
    """Solve ``A_b x_b = rhs_b`` for every lane ``b``.

    Parameters
    ----------
    matrix:
        ``n x n`` nested sequence of ``(B,)`` batch arrays (consumed, not
        modified: the function works on a copy unless ``copy=False``).
    rhs:
        Length-``n`` sequence of ``(B,)`` batch arrays.  With ``newton``
        it holds the values ``f``, not ``-f``: the call solves for
        ``-f`` itself.
    backend:
        The batch array backend of the entries.
    active:
        Optional ``(B,)`` bool mask; inactive lanes are never reported
        singular and their (meaningless) results should be discarded.
        Not taken with ``newton``, whose inactive lanes are the done ones.
    copy:
        The Python elimination updates rows in place through the backend
        (:meth:`~repro.multiprec.backend.ComplexBatchBackend.isub_mul`), so
        by default every entry is deep-copied up front.  Callers that pass
        freshly built, never-reused matrices (the batched corrector and the
        tangent predictor) set ``copy=False`` and donate their entries.
        The compiled kernels never write the entries.
    newton:
        A :class:`NewtonUpdate` request: finish a Newton iteration around
        the solve, filling in the request (see there).

    Returns
    -------
    (solution, singular):
        ``solution`` is one ``(n, B)`` batch array, ``solution[i]`` the
        lanes' ``x_i`` (with ``newton``, the update ``dx``); ``singular`` a
        ``(B,)`` bool mask of lanes that met a zero pivot.

    Raises
    ------
    ValueError
        When the matrix is not square, ``rhs`` does not match it,
        ``active`` does not hold one entry per lane, or ``newton`` comes
        with an ``active`` mask or an empty system.
    """
    n = len(matrix)
    square = len(rhs) == n
    for row in matrix:
        if len(row) != n:
            square = False
            break
    if not square:
        raise ValueError("batched_solve expects a square matrix and matching rhs")
    if active is not None:
        if newton is not None:
            raise ValueError("a Newton update takes its active lanes from "
                             "its residual test, not from an active mask")
        active = np.asarray(active, dtype=bool)
        if n and active.shape != np.shape(backend.magnitude(rhs[0])):
            raise ValueError(f"batched_solve expects a (B,) active mask, one "
                             f"entry per lane; got shape {active.shape}")
    if newton is not None and not n:
        raise ValueError("a Newton update needs at least one equation")
    native = _solve_natively(matrix, rhs, backend, active, newton)
    if native is not None:
        return native
    if newton is not None:
        return _newton_update(matrix, rhs, backend, newton, copy)
    return _eliminate(matrix, rhs, backend, active, copy)


def _newton_update(matrix, values, backend: ComplexBatchBackend,
                   newton: NewtonUpdate, copy: bool):
    """The Newton update without the kernels: the corrector's sequence."""
    with masked_lane_errstate():
        residual = lane_norms(values, backend)
        done = residual <= newton.tolerance
        dx, singular = _eliminate(matrix, [-value for value in values],
                                  backend, ~done, copy)
        update = lane_norms(dx, backend)
        # Rebind: the base-class iadd_masked returns a new array.
        newton.points = backend.iadd_masked(newton.points, dx,
                                            ~done & ~singular)
    newton.residual = residual
    newton.update = update
    newton.stopped = int(np.count_nonzero(
        newton_stops(residual, update, singular, newton.tolerance)))
    return dx, singular


def _eliminate(matrix, rhs, backend: ComplexBatchBackend, active, copy: bool):
    """The Python elimination (see the module docstring)."""
    n = len(matrix)
    # Dead lanes legitimately carry inf/NaN through the arithmetic, so the
    # whole solve runs inside the masked-lane errstate scope instead of
    # spraying RuntimeWarnings.
    with masked_lane_errstate():
        if copy:
            a = [[backend.copy(entry) for entry in row] for row in matrix]
            b = [backend.copy(entry) for entry in rhs]
        else:
            a = [list(row) for row in matrix]
            b = list(rhs)
        lanes = np.shape(backend.magnitude(b[0]))[0] if n else 0
        singular = np.zeros(lanes, dtype=bool)
        considered = np.ones(lanes, dtype=bool) if active is None \
            else active
        ones = backend.ones((lanes,))

        for col in range(n):
            # Per-lane partial pivoting on double-rounded magnitudes.
            magnitudes = np.stack([backend.magnitude(a[r][col]) for r in range(col, n)])
            choice = np.argmax(magnitudes, axis=0)  # (B,) offset of the pivot row

            # Realise the per-lane swap of rows `col` and `col + choice` as one
            # masked select per candidate row: each lane is touched exactly once.
            for r in range(col + 1, n):
                swap = choice == (r - col)
                if not swap.any():
                    continue
                for j in range(n):
                    upper, lower = a[col][j], a[r][j]
                    a[col][j] = backend.where(swap, lower, upper)
                    a[r][j] = backend.where(swap, upper, lower)
                upper, lower = b[col], b[r]
                b[col] = backend.where(swap, lower, upper)
                b[r] = backend.where(swap, upper, lower)

            pivot = a[col][col]
            dead = _undividable(backend.magnitude(pivot))
            singular |= dead & considered
            safe_pivot = backend.where(dead, ones, pivot)

            for row in range(col + 1, n):
                factor = a[row][col] / safe_pivot
                for j in range(col + 1, n):
                    a[row][j] = backend.isub_mul(a[row][j], factor, a[col][j])
                b[row] = backend.isub_mul(b[row], factor, b[col])

        # Back substitution with the (sanitised) upper factor.
        x = [None] * n
        for i in reversed(range(n)):
            acc = b[i]
            for j in range(i + 1, n):
                acc = backend.isub_mul(acc, a[i][j], x[j])
            diagonal = a[i][i]
            dead = _undividable(backend.magnitude(diagonal))
            singular |= dead & considered
            x[i] = acc / backend.where(dead, ones, diagonal)
    return (backend.stack(x) if n else backend.zeros((0, 0))), singular


def _undividable(magnitudes: np.ndarray) -> np.ndarray:
    """Lanes whose pivot cannot safely be divided by.

    Complex division computes ``|pivot|^2`` as its denominator.  The
    double-double array type squares the real and imaginary components
    *separately*, so any pivot whose squared magnitude is not a normal
    double risks an exact-zero denominator there (``hypot`` rounds once,
    the component squares underflow earlier) -- and
    :class:`~repro.errors.DivisionByZeroError` out of one lane would abort
    the whole batch.  Such pivots (|p| below ~1.5e-154) are numerically
    singular for any tracking purpose, so the whole underflow region is
    flagged.  NaN magnitudes compare false and stay unflagged: the NaN
    propagates within its own lane only.
    """
    return magnitudes * magnitudes < np.finfo(np.float64).tiny


# ----------------------------------------------------------------------
# the compiled route
# ----------------------------------------------------------------------
def _solution_d(n: int, lanes: int):
    out = np.empty((n, lanes), np.complex128)
    return out, out


#: Per built-in backend type: the solve and Newton kernels, the entry type
#: they read, and the solution buffer they write with that buffer's (n, B)
#: batch-array view.
_NATIVE = {
    type(COMPLEX128_BACKEND): ("solve_d", "newton_d", np.ndarray,
                               _solution_d),
    type(COMPLEX_DD_BACKEND): ("solve_dd", "newton_dd", ComplexDDArray,
                               ComplexDDArray.buffered),
    type(COMPLEX_QD_BACKEND): ("solve_qd", "newton_qd", ComplexQDArray,
                               ComplexQDArray.buffered),
}


def _solve_natively(matrix, rhs, backend: ComplexBatchBackend, active,
                    newton: Optional[NewtonUpdate]):
    """``(solution, singular)`` from the compiled kernel, or None when the
    Python route must run (see the module docstring)."""
    native = _NATIVE.get(type(backend))
    if (native is None or compiled.KERNELS is None or vars(backend)
            or backend.name not in compiled.SOLVE_CONTEXTS or not rhs):
        return None
    solve_kernel, newton_kernel, entry_type, allocate = native
    if type(rhs[0]) is not entry_type or len(rhs[0].shape) != 1:
        return None
    lanes = rhs[0].shape[0]
    entries = [entry for row in matrix for entry in row]
    entries.extend(rhs)
    if entry_type is np.ndarray:
        planes = entries  # the kernel checks each plane's layout
    elif any(type(entry) is not entry_type for entry in entries):
        return None
    else:
        planes = [plane for entry in entries
                  for plane in backend.component_planes(entry)]
    out, solution = allocate(len(rhs), lanes)
    singular = np.empty(lanes, dtype=bool)
    if newton is None:
        status = getattr(compiled.KERNELS, solve_kernel)(planes, active,
                                                         out, singular)
    elif type(newton.points) is not entry_type:
        return None
    else:
        residual, update = np.empty(lanes), np.empty(lanes)
        status = getattr(compiled.KERNELS, newton_kernel)(
            planes, out, singular, backend.component_planes(newton.points),
            residual, update, newton.tolerance)
        if status is not NotImplemented:
            newton.residual, newton.update = residual, update
            newton.stopped = status
    if status is NotImplemented:
        return None
    return solution, singular
