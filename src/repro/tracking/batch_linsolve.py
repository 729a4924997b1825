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

For the built-in backends the whole elimination runs as one call of the
compiled ``solve_d`` / ``solve_dd`` / ``solve_qd`` kernel
(:mod:`repro.multiprec.compiled`), where each lane eliminates its own
system and a row swap is an index swap.  The kernels replay the Python
elimination below bit for bit; it stays as their fallback and test oracle
and runs when no kernels are loaded, the backend is third-party or patched
on the instance, the context is not in
:data:`~repro.multiprec.compiled.SOLVE_CONTEXTS`, or the kernel declines
the call (an entry layout it does not take, ``n`` above its bound, a dd/qd
zero denominator -- which the Python elimination then raises).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..multiprec import compiled
from ..multiprec.backend import (COMPLEX128_BACKEND, COMPLEX_DD_BACKEND,
                                 COMPLEX_QD_BACKEND, ComplexBatchBackend,
                                 masked_lane_errstate)
from ..multiprec.ddarray import ComplexDDArray, complex_dd_from_planes
from ..multiprec.qdarray import ComplexQDArray, complex_qd_from_planes

__all__ = ["batched_solve"]


def batched_solve(matrix: Sequence[Sequence], rhs: Sequence,
                  backend: ComplexBatchBackend,
                  active: Optional[np.ndarray] = None,
                  copy: bool = True
                  ) -> Tuple[object, np.ndarray]:
    """Solve ``A_b x_b = rhs_b`` for every lane ``b``.

    Parameters
    ----------
    matrix:
        ``n x n`` nested sequence of ``(B,)`` batch arrays (consumed, not
        modified: the function works on a copy unless ``copy=False``).
    rhs:
        Length-``n`` sequence of ``(B,)`` batch arrays.
    backend:
        The batch array backend of the entries.
    active:
        Optional ``(B,)`` bool mask; inactive lanes are never reported
        singular and their (meaningless) results should be discarded.
    copy:
        The Python elimination updates rows in place through the backend
        (:meth:`~repro.multiprec.backend.ComplexBatchBackend.isub_mul`), so
        by default every entry is deep-copied up front.  Callers that pass
        freshly built, never-reused matrices (the batched corrector and the
        tangent predictor) set ``copy=False`` and donate their entries.
        The compiled kernels never write the entries.

    Returns
    -------
    (solution, singular):
        ``solution`` is one ``(n, B)`` batch array, ``solution[i]`` the
        lanes' ``x_i``; ``singular`` a ``(B,)`` bool mask of lanes that met
        a zero pivot.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("batched_solve expects a square matrix and matching rhs")
    native = _solve_natively(matrix, rhs, backend, active)
    if native is not None:
        return native

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
            else np.asarray(active, dtype=bool)
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


def _solution_dd(n: int, lanes: int):
    out = np.empty((4, n, lanes))
    return out, complex_dd_from_planes(out)


def _solution_qd(n: int, lanes: int):
    out = np.empty((8, n, lanes))
    return out, complex_qd_from_planes(out)


#: Per built-in backend type: the kernel, the entry type it reads, and the
#: solution buffer it writes with that buffer's (n, B) batch-array view.
_NATIVE = {
    type(COMPLEX128_BACKEND): ("solve_d", np.ndarray, _solution_d),
    type(COMPLEX_DD_BACKEND): ("solve_dd", ComplexDDArray, _solution_dd),
    type(COMPLEX_QD_BACKEND): ("solve_qd", ComplexQDArray, _solution_qd),
}


def _solve_natively(matrix, rhs, backend: ComplexBatchBackend, active):
    """``(solution, singular)`` from the compiled kernel, or None when the
    Python elimination must run (see the module docstring)."""
    native = _NATIVE.get(type(backend))
    if (native is None or compiled.KERNELS is None or vars(backend)
            or backend.name not in compiled.SOLVE_CONTEXTS or not rhs):
        return None
    kernel, entry_type, allocate = native
    entries = [entry for row in matrix for entry in row]
    entries.extend(rhs)
    if any(type(entry) is not entry_type for entry in entries):
        return None
    shape = entries[0].shape
    if len(shape) != 1:
        return None
    planes = entries if entry_type is np.ndarray else \
        [plane for entry in entries
         for plane in backend.component_planes(entry)]
    out, solution = allocate(len(rhs), shape[0])
    singular = np.empty(shape[0], dtype=bool)
    if active is not None:
        active = np.asarray(active, dtype=bool)
    if getattr(compiled.KERNELS, kernel)(planes, active, out,
                                         singular) is NotImplemented:
        return None
    return solution, singular
