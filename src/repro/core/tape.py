"""Compiled plans as instruction tapes: one native call per evaluation.

A compiled :class:`~repro.core.evalplan.EvaluationPlan` or
:class:`~repro.core.evalplan.HomotopyPlan` is a fixed op graph: power
ladders, Speelpenning sweeps, accumulation schedules and (for a homotopy)
the gamma blend and ``dh/dt``.  :func:`lower` flattens that graph once, at
compile time, into a :class:`Tape` -- a list of instructions over numbered
*lane slots*, each slot holding one complex lane vector of the batch:

========  ===========================================================
``COPY``  ``dst = a``  (``a`` a slot or a constant row)
``ZERO``  ``dst = 0``
``MUL``   ``dst = a * b`` (operand order as the plan forms the product)
``ADD``   ``dst += a``
``ADDMUL`` ``dst += a * b``
``SUBMUL`` ``dst -= a * b``
``POW``   ``dst = a ** e``
``WEIGHTS`` ``dst = gamma (1 - t)``, slot ``a = t`` (the blend weights)
========  ===========================================================

Slots ``0 .. n-1`` are the input rows; a negative operand names a constant.
The tape is backend independent and shared through the homotopy compile
cache; gamma and the per-lane ``t`` are bound per plan instance and per
call, since the cache key leaves gamma out.

Execution (:class:`TapeRunner`, one per plan instance) tries, in order:

1. the **native tape**: the whole program in one call of
   ``tape_d`` / ``tape_dd`` / ``tape_qd`` from the compiled kernels, over a
   plan-owned slot buffer.  It needs the kernels, a built-in backend whose
   arithmetic methods are not replaced, and the context in
   :data:`repro.multiprec.compiled.TAPE_CONTEXTS` (``d`` only where the
   load-time probe showed the tape rounds like NumPy).  Products keep the
   operand order the backend uses, and constants are embedded by the
   backends' own coercions (the plane arrays' ``mul_operand`` for
   multipliers, ``backend.full`` for constant rows);
2. the **Python tape loop**: the same instructions through the backend's
   ``*_into`` / ``iadd*`` methods -- the route of substituted or patched
   backends, of hosts without a compiler and of a declined ``d`` probe.

Both routes give the same bits (NaN sign bits aside, see
``docs/compiled_kernels.md``).  The slot buffer belongs to the plan
instance: it is sized on the first execution for a lane count, re-sized
only when the lane count changes, and the value / Jacobian / ``dh/dt`` rows
an execution returns are views into it, valid (and freely mutable) until
the plan's next execution overwrites them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..multiprec import compiled
from ..multiprec.backend import (
    COMPLEX128_BACKEND,
    COMPLEX_DD_BACKEND,
    COMPLEX_QD_BACKEND,
    ComplexBatchBackend,
)
from ..multiprec.compiled import (ADD, ADDMUL, COPY, MUL, POW, SUBMUL,
                                  WEIGHTS, ZERO)

__all__ = ["Tape", "TapeRunner", "lower"]

#: The largest power the d tape lowers: np.power runs its integer ladder
#: only below 100 and a general complex power beyond.
_D_MAX_POWER = 99


# ----------------------------------------------------------------------
# the tape and its lowering
# ----------------------------------------------------------------------
class Tape:
    """One compiled plan as instructions over numbered lane slots.

    ``ops`` holds ``(op, dst, a, b)`` records (``b`` is the exponent of a
    ``POW``); ``consts`` the ``(kind, value)`` constants, kind ``"scalar"``
    (a multiplier), ``"full"`` (a constant row), ``"gamma"`` or
    ``"gamma_raw"`` (bound per plan instance).  ``values``, ``jacobian`` and
    ``t_derivative`` name the output slots (``t_derivative`` is None for a
    single system).  Read-only after :func:`lower` but for the per-context
    native programs built on first use, so plan instances sharing it may
    run from different threads.
    """

    def __init__(self, ops, consts, inputs: int, slots: int,
                 scratch: Optional[int], values, jacobian, t_derivative):
        self.ops: Tuple[Tuple[int, int, int, int], ...] = tuple(ops)
        self.consts: Tuple[Tuple[str, object], ...] = tuple(consts)
        self.inputs = inputs
        self.slots = slots
        self.scratch = scratch
        self.values: Tuple[int, ...] = tuple(values)
        self.jacobian: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(row) for row in jacobian)
        self.t_derivative = (None if t_derivative is None
                             else tuple(t_derivative))
        self._native: Dict[str, object] = {}

    def __len__(self) -> int:
        return len(self.ops)

    def native(self, context: "_Native"):
        """``(program, consts)`` of this tape for one context's kernel, or
        None when the context cannot run it (a d power beyond the ladder).

        Lowering is deterministic, so threads racing on a first use at
        worst lower twice; ``setdefault`` keeps one result."""
        if context.name not in self._native:
            self._native.setdefault(context.name, context.lower(self))
        return self._native[context.name]


class _Builder:
    """Slot allocation, constant pooling and instruction emission."""

    def __init__(self, inputs: int):
        self.ops: List[Tuple[int, int, int, int]] = []
        self.slots = inputs
        self.consts: List[Tuple[str, object]] = []
        self._pool: Dict[tuple, int] = {}
        self.scratch: Optional[int] = None

    def slot(self) -> int:
        self.slots += 1
        return self.slots - 1

    def const(self, kind: str, value=None) -> int:
        # Keyed by the bit patterns: 0.0 and -0.0 embed differently.
        key = (kind,) if value is None else (kind, value.real.hex(),
                                            value.imag.hex())
        index = self._pool.get(key)
        if index is None:
            index = self._pool[key] = len(self.consts)
            self.consts.append((kind, value))
        return -1 - index

    def emit(self, op: int, dst: int, a: int = 0, b: int = 0) -> int:
        self.ops.append((op, dst, a, b))
        return dst


def _lower_sweep(build: _Builder, rows: List[int]) -> List[Optional[int]]:
    """The gradient slots of one Speelpenning sweep, multiplied exactly as
    :func:`~repro.polynomials.speelpenning.speelpenning_gradient` does."""
    k = len(rows)
    if k == 1:
        return [None]  # the constant 1; the compiler never reads it
    if k == 2:
        return [rows[1], rows[0]]
    forward = [None, rows[0]] + [None] * (k - 2)
    for r in range(1, k - 1):
        forward[r + 1] = build.emit(MUL, build.slot(), forward[r], rows[r])
    gradient: List[Optional[int]] = [None] * k
    gradient[k - 1] = forward[k - 1]
    backward = rows[k - 1]
    gradient[k - 2] = build.emit(MUL, build.slot(), forward[k - 2], backward)
    for r in range(1, k - 2):
        backward = build.emit(MUL, build.slot(), backward, rows[k - 1 - r])
        gradient[k - 2 - r] = build.emit(MUL, build.slot(), forward[k - 2 - r],
                                         backward)
    gradient[0] = build.emit(MUL, build.slot(), backward, rows[1])
    return gradient


def lower(specs, systems, dimension: int, jac_union=None) -> Tape:
    """Lower a compiled plan to a :class:`Tape`.

    ``specs`` and ``systems`` (the per-system ``_PolySchedule`` lists, start
    before target for a homotopy) come from the plan compiler; with
    ``jac_union`` the tape ends in the homotopy blend and ``dh/dt``.
    """
    build = _Builder(dimension)
    planes: List[Optional[int]] = [None] * len(specs)
    sweeps: Dict[int, List[Optional[int]]] = {}

    def atom(operand) -> int:
        kind, payload = operand
        return planes[payload] if kind == "plane" else build.const(kind,
                                                                   payload)

    for pid, spec in enumerate(specs):
        kind = spec[0]
        if kind == "row":
            planes[pid] = spec[1]
        elif kind == "power":
            if build.scratch is None:
                build.scratch = build.slot()
            planes[pid] = build.emit(POW, build.slot(), planes[spec[1]],
                                     spec[2])
        elif kind == "sweep":
            sweeps[pid] = _lower_sweep(build, [planes[r] for r in spec[1]])
        elif kind == "grad":
            planes[pid] = sweeps[spec[1]][spec[2]]
        elif kind == "chain":
            powers = spec[1]
            slot = build.emit(MUL, build.slot(), planes[powers[0]],
                              planes[powers[1]])
            for power in powers[2:]:
                build.emit(MUL, slot, slot, planes[power])
            planes[pid] = slot
        else:  # "mul"
            planes[pid] = build.emit(MUL, build.slot(), atom(spec[1]),
                                     atom(spec[2]))

    def accumulate(entries) -> int:
        acc = build.slot()
        if not entries:
            return build.emit(ZERO, acc)
        for entry in entries:
            kind = entry[0]
            if kind in ("seed", "seed_copy"):
                source = (atom(entry[1]) if kind == "seed"
                          else planes[entry[1]])
                build.emit(COPY, acc, source)
            elif kind == "seed_mul":
                build.emit(MUL, acc, atom(entry[1]), atom(entry[2]))
            elif kind == "add":
                build.emit(ADD, acc, atom(entry[1]))
            else:  # "add_mul"
                build.emit(ADDMUL, acc, atom(entry[1]), atom(entry[2]))
        return acc

    accumulated = []
    for schedules in systems:
        values = [accumulate(s.value) for s in schedules]
        rows = [{p: accumulate(entries) for p, entries in s.jacobian.items()}
                for s in schedules]
        accumulated.append((values, rows))

    def zero() -> int:
        # A structurally zero entry gets its own slot, re-zeroed every
        # execution: the batched solver writes into returned rows.
        return build.emit(ZERO, build.slot())

    n = dimension
    if jac_union is None:
        (values, rows), = accumulated
        jacobian = [[row[j] if j in row else zero() for j in range(n)]
                    for row in rows]
        return Tape(build.ops, build.consts, n, build.slots, build.scratch,
                    values, jacobian, None)

    (g_values, g_rows), (f_values, f_rows) = accumulated
    weight_g, weight_f = build.slot(), build.slot()
    build.emit(WEIGHTS, weight_g, weight_f, build.const("gamma_raw"))
    # h = weight_g * g + weight_f * f, then dh/dt = f - g * gamma in place
    # in the target accumulators (no longer read after the value blend).
    values = []
    for i in range(n):
        h = build.emit(MUL, build.slot(), g_values[i], weight_g)
        values.append(build.emit(ADDMUL, h, f_values[i], weight_f))
    gamma = build.const("gamma")
    for i in range(n):
        build.emit(SUBMUL, f_values[i], g_values[i], gamma)
    jacobian = []
    for i in range(n):
        entries = {}
        for j, has_g, has_f in jac_union[i]:
            if has_g:
                entry = build.emit(MUL, build.slot(), g_rows[i][j], weight_g)
                if has_f:
                    build.emit(ADDMUL, entry, f_rows[i][j], weight_f)
            else:
                entry = build.emit(MUL, build.slot(), f_rows[i][j], weight_f)
            entries[j] = entry
        jacobian.append([entries[j] if j in entries else zero()
                         for j in range(n)])
    return Tape(build.ops, build.consts, n, build.slots, build.scratch,
                values, jacobian, f_values)


# ----------------------------------------------------------------------
# native programs, one per built-in context
# ----------------------------------------------------------------------
class _Native:
    """How one built-in context runs tapes natively: its kernel, its slot
    layout, and its backend's constant embeddings."""

    def __init__(self, backend: ComplexBatchBackend, width: int):
        self.backend = backend
        self.name = backend.name
        self.kernel = f"tape_{backend.name}"
        self.width = width
        self.array_type = backend.array_type

    def _embed(self, array) -> List[float]:
        if self.width == 2:
            return [array[0].real, array[0].imag]
        return [float(p[0]) for p in self.backend.component_planes(array)]

    def scalar(self, value: complex) -> List[float]:
        """A multiplier as the backend coerces the scalar operand of a
        product (dd/qd: the plane array's ``mul_operand``)."""
        if self.width == 2:
            return [value.real, value.imag]
        return self._embed(self.backend.zeros((1,)).mul_operand(value))

    def full(self, value: complex) -> List[float]:
        """A constant row as ``backend.full`` builds it."""
        return self._embed(self.backend.full((1,), value))

    def allocate(self, slots: int, lanes: int) -> np.ndarray:
        if self.width == 2:
            return np.zeros((slots, lanes), np.complex128)
        return np.zeros((slots, self.width, lanes))

    def view(self, buffer: np.ndarray, s: int):
        """Slot ``s`` of the slot buffer as a backend array."""
        if self.width == 2:
            return buffer[s]
        return self.array_type.from_planes(buffer[s])

    def planes(self, points):
        """The point planes the kernel reads, or None for foreign arrays."""
        if type(points) is not self.array_type:
            return None
        if self.width == 2:
            return (points,) if points.dtype == np.complex128 else None
        return self.backend.component_planes(points)

    def lower(self, tape: Tape):
        """The tape as an int32 program plus its constant table, with the
        backend's operand order: NumPy multiplies ``a * b`` as written,
        the dd/qd arrays always multiply the array by the scalar.  dd/qd
        powers unroll into the ``__pow__`` ladder; d powers run
        ``np.power``'s own (or ``np.square`` for 2)."""
        program = []
        d = self.width == 2
        for op, dst, a, b in tape.ops:
            if op == POW:
                if d:
                    if b > _D_MAX_POWER:
                        return None
                    program.append((MUL, dst, a, a) if b == 2
                                   else (POW, dst, a, b))
                    continue
                program.extend(_ladder(dst, a, b, tape.scratch))
                continue
            if op in (MUL, ADDMUL) and not d and a < 0:
                a, b = b, a
            program.append((op, dst, a, b))
        table = np.zeros((len(tape.consts), self.width))
        for index, (kind, value) in enumerate(tape.consts):
            if kind == "scalar":
                table[index] = self.scalar(complex(value))
            elif kind == "full":
                table[index] = self.full(complex(value))
        return (np.array(program, np.int32).reshape(-1, 4),
                table.reshape(-1))

    def bind(self, tape: Tape, table: np.ndarray,
             gamma: Optional[complex]) -> np.ndarray:
        """The constant table with one plan instance's gamma filled in."""
        if gamma is None:
            return table
        table = table.reshape(-1, self.width).copy()
        for index, (kind, _) in enumerate(tape.consts):
            if kind == "gamma":
                table[index] = self.scalar(gamma)
            elif kind == "gamma_raw":
                table[index, :2] = gamma.real, gamma.imag
        return table.reshape(-1)


def _ladder(dst: int, base: int, exponent: int, square: int) -> List[tuple]:
    """``base ** exponent`` as the dd/qd ``__pow__`` binary ladder, the
    running square in ``square``.  The ladder's leading ``one * square``
    lands as a copy and its final unused squaring is skipped."""
    ops = [(COPY, square, base, 0)]
    started = False
    e = int(exponent)
    while e:
        if e & 1:
            ops.append((MUL, dst, dst, square) if started
                       else (COPY, dst, square, 0))
            started = True
        e >>= 1
        if e:
            ops.append((MUL, square, square, square))
    return ops


_NATIVE = {
    type(COMPLEX128_BACKEND): _Native(COMPLEX128_BACKEND, 2),
    type(COMPLEX_DD_BACKEND): _Native(COMPLEX_DD_BACKEND, 4),
    type(COMPLEX_QD_BACKEND): _Native(COMPLEX_QD_BACKEND, 8),
}


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
class _Sized:
    """A tape's storage for one lane count: the native slot buffer (built-in
    backends) and, built on first use, the per-slot arrays of the Python
    loop and the native route's output rows."""

    def __init__(self, tape: Tape, backend: ComplexBatchBackend,
                 native: Optional[_Native], lanes: int):
        self.lanes = lanes
        self.native = native
        self.buffer = (None if native is None
                       else native.allocate(tape.slots, lanes))
        self._tape = tape
        self._backend = backend
        self._arrays: Optional[List] = None
        self._outputs = None
        self.rows: Dict[object, object] = {}

    def arrays(self) -> List:
        """One backend array per slot (views of the buffer when there is
        one); the Python loop rebinds entries in a copy of this list."""
        if self._arrays is None:
            if self.buffer is not None:
                view = self.native.view
                self._arrays = [view(self.buffer, s)
                                for s in range(self._tape.slots)]
            else:
                self._arrays = [self._backend.zeros((self.lanes,))
                                for _ in range(self._tape.slots)]
        return list(self._arrays)

    def outputs(self):
        """The output rows as views of the native buffer (built once)."""
        if self._outputs is None:
            view = self.native.view
            self._outputs = _collect(self._tape,
                                     lambda s: view(self.buffer, s))
        values, jacobian, t_derivative = self._outputs
        return (list(values), [list(row) for row in jacobian],
                None if t_derivative is None else list(t_derivative))

    def row(self, value: complex):
        """The constant row ``backend.full((lanes,), value)`` (cached)."""
        key = (value.real.hex(), value.imag.hex())
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = self._backend.full((self.lanes,), value)
        return row


def _collect(tape: Tape, get):
    values = [get(s) for s in tape.values]
    jacobian = [[get(s) for s in row] for row in tape.jacobian]
    t_derivative = (None if tape.t_derivative is None
                    else [get(s) for s in tape.t_derivative])
    return values, jacobian, t_derivative


class TapeRunner:
    """Runs one plan instance's tape: native call first, else the Python
    loop (see the module docstring).  The runner owns the slot buffer,
    re-sized with the lane count; :attr:`resizes` counts the re-sizes."""

    def __init__(self, tape: Tape, backend: ComplexBatchBackend,
                 gamma: Optional[complex] = None):
        self.tape = tape
        self.backend = backend
        self.gamma = gamma
        self.resizes = 0
        self._sized: Optional[_Sized] = None
        self._bound: Dict[str, object] = {}

    def _native(self) -> Optional[_Native]:
        """The backend's native context when its tape may run natively
        right now (re-checked per call: tests swap these at run time)."""
        if compiled.KERNELS is None:
            return None
        backend = self.backend
        native = _NATIVE.get(type(backend))
        if (native is None or vars(backend)
                or native.name not in compiled.TAPE_CONTEXTS):
            return None
        return native

    def _program(self, native: _Native):
        """``(program, consts)`` with this instance's gamma, or None."""
        bound = self._bound.get(native.name)
        if bound is None:
            lowered = self.tape.native(native)
            bound = False if lowered is None else (
                lowered[0], native.bind(self.tape, lowered[1], self.gamma))
            self._bound[native.name] = bound
        return bound or None

    def run(self, points, t: Optional[np.ndarray] = None):
        """Execute at an ``(n, B)`` lane batch and, for a homotopy, the
        ``(B,)`` float64 parameters ``t``; returns ``(values, jacobian,
        t_derivative)`` rows (``t_derivative`` None for a single system),
        owned by this runner until its next execution."""
        lanes = points.shape[1]
        sized = self._sized
        if sized is None or sized.lanes != lanes:
            if sized is not None:
                self.resizes += 1
            sized = self._sized = _Sized(self.tape, self.backend,
                                         _NATIVE.get(type(self.backend)),
                                         lanes)
        native = self._native()
        if native is not None:
            program = self._program(native)
            planes = native.planes(points)
            if program is not None and planes is not None:
                kernel = getattr(compiled.KERNELS, native.kernel)
                if kernel(*program, sized.buffer, t, *planes) is None:
                    return sized.outputs()
        return self._run_python(sized, points, t)

    def _run_python(self, sized: _Sized, points, t):
        backend = self.backend
        tape = self.tape
        slots = sized.arrays()
        for p in range(tape.inputs):
            slots[p] = points[p]
        consts = [sized.row(value) if kind == "full"
                  else self.gamma if kind == "gamma" else value
                  for kind, value in tape.consts]
        for op, dst, a, b in tape.ops:
            x = slots[a] if a >= 0 else consts[-1 - a]
            if op == MUL:
                y = slots[b] if b >= 0 else consts[-1 - b]
                slots[dst] = backend.mul_into(slots[dst], x, y)
            elif op == ADDMUL:
                y = slots[b] if b >= 0 else consts[-1 - b]
                slots[dst] = backend.iadd_mul(slots[dst], x, y)
            elif op == ADD:
                slots[dst] = backend.iadd(slots[dst], x)
            elif op == COPY:
                slots[dst] = (backend.copy_into(slots[dst], x) if a >= 0
                              else backend.full_into(
                                  slots[dst], tape.consts[-1 - a][1]))
            elif op == SUBMUL:
                y = slots[b] if b >= 0 else consts[-1 - b]
                slots[dst] = backend.isub_mul(slots[dst], x, y)
            elif op == ZERO:
                slots[dst] = backend.zero_into(slots[dst])
            elif op == POW:
                slots[dst] = self._pow_into(slots, dst, x, b)
            else:  # WEIGHTS
                weights = self.gamma * (1.0 - t).astype(np.complex128)
                slots[dst] = backend.embed_complex128(weights)
                slots[a] = backend.embed_complex128(t.astype(np.complex128))
        return _collect(tape, slots.__getitem__)

    def _pow_into(self, slots: List, dst: int, base, exponent: int):
        """``base ** exponent`` into ``slots[dst]``, replaying ``**``.

        NumPy arrays run ``np.power`` (``np.square`` for 2, as
        ``ndarray.__pow__`` does); the multiprecision arrays run the
        :func:`_ladder` steps through ``copy_into`` / ``mul_into``.
        """
        backend = self.backend
        out = slots[dst]
        if isinstance(out, np.ndarray):
            if exponent == 2:
                return np.square(base, out=out)
            return np.power(base, exponent, out=out)
        slots[self.tape.scratch] = backend.copy_into(
            slots[self.tape.scratch], base)
        for op, target, a, b in _ladder(dst, -1, exponent,
                                        self.tape.scratch)[1:]:
            if op == COPY:
                slots[target] = backend.copy_into(slots[target], slots[a])
            else:
                slots[target] = backend.mul_into(slots[target], slots[a],
                                                 slots[b])
        return slots[dst]
