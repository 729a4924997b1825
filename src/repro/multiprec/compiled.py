"""Build, cache and load the compiled dd/qd plane kernels.

The array types in :mod:`repro.multiprec.ddarray` and
:mod:`repro.multiprec.qdarray` run their element-wise arithmetic through
the C kernels in ``_kernels.c``: each kernel replays, lane by lane, the
exact floating-point sequence of the one Python copy of the dd and qd
arithmetic (the sequences of :mod:`repro.multiprec.double_double` and
:mod:`repro.multiprec.quad_double`, composed into complex by
:func:`repro.multiprec.scalar.complex_chains`), which the scalar types run
on floats and the array types, as their reference chains, on planes.

On first import the source is compiled with the system ``gcc`` into a
CPython extension under the user cache directory (``$XDG_CACHE_HOME`` or
``~/.cache``), keyed by a hash of the source, the compiler flags, the
extension ABI tag and the platform, so later imports -- in any checkout of
the same source -- only load the cached file.  The build writes to a
temporary file, flushes it to disk and renames it into place, so concurrent
first imports cannot load a half-written extension.  A cached file that
fails to load (truncated by a crash, or built on a host with another C
library) is rebuilt once in place.  If the compiler is missing or the
build fails, one :class:`RuntimeWarning` is emitted, :data:`KERNELS` is
``None`` and the array types run the reference chains on NumPy planes
instead: slower, with the same results.

The extension also runs whole evaluation plans lowered to instruction
tapes (:mod:`repro.core.tape`), one call per evaluation.  The ``d`` tape
must round exactly like NumPy's ``complex128`` loops, so at load it is run
once on a fixed probe set against ``np.multiply``, ``np.square`` and
``np.power``; :data:`TAPE_CONTEXTS` names the contexts whose tapes may run
natively, and a host where any probe bit differs keeps ``d`` on the Python
tape loop after one :class:`RuntimeWarning`.

The extension's batched linear solves (``solve_d`` / ``solve_dd`` /
``solve_qd``) replay the Python elimination of
:mod:`repro.tracking.batch_linsolve`: they pivot on ``np.abs`` magnitudes
in every context and, in ``d``, divide like ``np.divide`` and multiply
like the ``d`` tape.  The same load-time probe checks ``np.divide`` and
``np.abs`` on the row layouts the solves accept; :data:`SOLVE_CONTEXTS`
names the contexts whose solves may run natively.  The Newton updates
(``newton_d`` / ``newton_dd`` / ``newton_qd``) wrap a solve in the
corrector's residual and update norms, a negation and a masked add: no
rounding the probe has not checked, so they run for the same contexts.

:func:`run` calls one kernel on a tuple of planes and :func:`apply` runs an
op through its kernel or else its reference chain; this module defines no
arithmetic of its own.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import subprocess
import sysconfig
import tempfile
import warnings
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = ["FLAGS", "KERNELS", "SOLVE_CONTEXTS", "SOURCE", "TAPE_CONTEXTS",
           "apply", "cache_dir", "load_kernels", "run", "solve_contexts",
           "tape_contexts"]

SOURCE = Path(__file__).with_name("_kernels.c")

#: No contraction into fused multiply-adds and no reassociation: the
#: kernels must round exactly where the scalar sequences round.
FLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")

_SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]


def cache_dir() -> Path:
    """Where built kernels are cached (under the user cache directory)."""
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "repro-kernels"


def _cache_key(code: bytes) -> str:
    digest = hashlib.sha256(code)
    for part in (*FLAGS, _SUFFIX, sysconfig.get_platform()):
        digest.update(b"\0" + part.encode())
    return digest.hexdigest()[:20]


def _build(code: bytes, target: Path) -> None:
    """Compile ``code`` into ``target``, renamed into place atomically."""
    target.parent.mkdir(parents=True, exist_ok=True)
    handle, partial = tempfile.mkstemp(dir=target.parent, suffix=".part")
    os.close(handle)
    try:
        include = sysconfig.get_paths()["include"]
        done = subprocess.run(
            ["gcc", *FLAGS, f"-I{include}", "-x", "c", "-", "-o", partial],
            input=code, capture_output=True, timeout=300)
        if done.returncode != 0:
            raise RuntimeError(done.stderr.decode(errors="replace").strip())
        with open(partial, "rb") as built:
            os.fsync(built.fileno())
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def _load(target: Path):
    spec = importlib.util.spec_from_file_location(
        f"{__package__}._kernels", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_kernels(source: Path = SOURCE,
                 directory: Optional[Path] = None):
    """The compiled kernel module, built first on a cache miss.

    A cached file that does not load is rebuilt once over itself.  Returns
    ``None`` after one :class:`RuntimeWarning` when the kernels cannot be
    built or loaded; callers then use the reference chains.
    """
    try:
        code = Path(source).read_bytes()
        target = (Path(directory) if directory is not None else cache_dir()) \
            / f"_kernels-{_cache_key(code)}{_SUFFIX}"
        if target.exists():
            try:
                return _load(target)
            except ImportError:
                pass  # truncated, or built against another C library
        _build(code, target)
        return _load(target)
    except (OSError, RuntimeError, ImportError,
            subprocess.SubprocessError) as exc:
        warnings.warn(f"compiled dd/qd kernels unavailable, using the NumPy "
                      f"reference chains: {exc}", RuntimeWarning, stacklevel=2)
        return None


#: The loaded kernel module, or ``None`` when it could not be built.
KERNELS = load_kernels()

#: Tape opcodes, as numbered in ``_kernels.c``.
COPY, ZERO, MUL, ADD, ADDMUL, SUBMUL, POW, WEIGHTS = range(8)

#: The integer powers the d probe checks (np.power runs its own ladder).
_PROBE_EXPONENTS = (1, 3, 4, 5, 6, 7, 8, 13, 99)


def _probe_points() -> np.ndarray:
    """A fixed (2, lanes) complex128 probe batch: random magnitudes over
    many binades plus inf, NaN, +-0, subnormal and > 2^996 components."""
    rng = np.random.default_rng(20120521)
    special = np.array([0.0, -0.0, 1.0, -1.5, np.inf, -np.inf, np.nan,
                        5e-324, -2.5e-308, 1.5 * 2.0 ** 996, -1e300, 3e-300])
    size = 64
    parts = [rng.normal(size=(4, size)) * np.exp2(rng.integers(-30, 30,
                                                                (4, size)))]
    grid = np.array(np.meshgrid(special, special)).reshape(2, -1)
    parts.append(np.concatenate([grid, grid[::-1]]))
    planes = np.concatenate(parts, axis=1)
    points = np.empty((2, planes.shape[1]), np.complex128, order="F")
    points.real = planes[0::2]  # strided rows, like the gather x[:, idx]
    points.imag = planes[1::2]
    return points


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Bit equality of two complex128 arrays under the NaN contract: NaN
    positions must match, a NaN's sign and payload may differ."""
    a = np.ascontiguousarray(got).view(np.float64)
    b = np.ascontiguousarray(want).view(np.float64)
    nan = np.isnan(a)
    return bool(np.array_equal(nan, np.isnan(b))
                and np.array_equal(a.view(np.int64)[~nan],
                                   b.view(np.int64)[~nan]))


def _probe_d_tape(kernels, multiply, square, power) -> Optional[str]:
    """Run the d tape against the NumPy references; the first mismatch."""
    points = _probe_points()
    x, y = points
    scalar = complex(0.6, -0.8)
    program = [(MUL, 2, 0, 1), (MUL, 3, -1, 1), (MUL, 4, 0, -1),
               (MUL, 5, 0, 0)]
    program += [(POW, 6 + i, 0, e) for i, e in enumerate(_PROBE_EXPONENTS)]
    slots = np.zeros((len(program) + 2, points.shape[1]), np.complex128)
    kernels.tape_d(np.array(program, np.int32),
                   np.array([scalar.real, scalar.imag]), slots, None, points)
    # The Python tape loop and the linear solve also multiply contiguous
    # rows, which NumPy runs through another loop than strided ones.
    xc, yc = np.ascontiguousarray(x), np.ascontiguousarray(y)
    with np.errstate(all="ignore"):
        references = [(2, "np.multiply(x, y)", multiply(x, y)),
                      (2, "np.multiply(x, y) on contiguous rows",
                       multiply(xc, yc)),
                      (3, "np.multiply(scalar, y)", multiply(scalar, y)),
                      (4, "np.multiply(x, scalar)", multiply(x, scalar)),
                      (5, "np.square(x)", square(x))]
        references += [(6 + i, f"np.power(x, {e})", power(x, e))
                       for i, e in enumerate(_PROBE_EXPONENTS)]
    for slot, name, want in references:
        if not _same_bits(slots[slot], want):
            return name
    return None


def tape_contexts(kernels, multiply=np.multiply, square=np.square,
                  power=np.power) -> frozenset:
    """The contexts whose plan tapes may run in ``kernels``.

    dd and qd always may; d only when its tape matches the NumPy references
    bit for bit on the probe set, else one :class:`RuntimeWarning` names the
    first reference that differs.
    """
    if kernels is None:
        return frozenset()
    mismatch = _probe_d_tape(kernels, multiply, square, power)
    if mismatch is None:
        return frozenset(("d", "dd", "qd"))
    warnings.warn(f"compiled d tape declined: it does not round like "
                  f"{mismatch} on this host; d plans run their tape in "
                  f"Python", RuntimeWarning, stacklevel=2)
    return frozenset(("dd", "qd"))


#: Contexts whose compiled plan tapes run natively (see tape_contexts).
TAPE_CONTEXTS = tape_contexts(KERNELS)


def _probe_solve(kernels, divide, absolute):
    """Run the solves' d division and pivot magnitude against the NumPy
    references on strided and contiguous rows: the first mismatch of
    each, or None."""
    x, y = _probe_points()
    parts = (np.empty(x.shape), np.empty(x.shape))
    magnitude = np.empty(x.shape)
    kernels.cd_div(*parts, x.real, x.imag, y.real, y.imag)
    kernels.cd_abs(magnitude, x.real, x.imag)
    quotient = np.empty(x.shape, np.complex128)
    quotient.real, quotient.imag = parts
    xc, yc = np.ascontiguousarray(x), np.ascontiguousarray(y)
    with np.errstate(all="ignore"):
        division = _first_mismatch(quotient, [
            ("np.divide(x, y)", divide(x, yc)),
            ("np.divide(x, y) on contiguous rows", divide(xc, yc))])
        pivot = _first_mismatch(magnitude, [
            ("np.abs(x)", absolute(x)),
            ("np.abs(x) on contiguous rows", absolute(xc))])
    return division, pivot


def _first_mismatch(got: np.ndarray, references) -> Optional[str]:
    for name, want in references:
        if not _same_bits(got, want):
            return name
    return None


def solve_contexts(kernels, tapes: frozenset, divide=np.divide,
                   absolute=np.abs) -> frozenset:
    """The contexts whose batched linear solves may run in ``kernels``.

    Every solve pivots on magnitudes that must round like ``np.abs`` (dd
    and qd take them on ``to_complex128()``); d also divides like
    ``np.divide`` and multiplies like its tape, so it needs ``"d"`` in
    ``tapes``.  A probe mismatch emits one :class:`RuntimeWarning` naming
    the first reference that differs: ``np.abs`` keeps every solve in
    Python, ``np.divide`` the d solve.
    """
    if kernels is None:
        return frozenset()
    division, pivot = _probe_solve(kernels, divide, absolute)
    if pivot is not None:
        warnings.warn(f"compiled linear solves declined: pivot magnitudes "
                      f"do not round like {pivot} on this host; every "
                      f"batched solve runs the Python elimination",
                      RuntimeWarning, stacklevel=2)
        return frozenset()
    if division is not None:
        warnings.warn(f"compiled d solve declined: it does not round like "
                      f"{division} on this host; d batched solves run the "
                      f"Python elimination", RuntimeWarning, stacklevel=2)
        return frozenset(("dd", "qd"))
    return frozenset(("dd", "qd")) | (tapes & {"d"})


#: Contexts whose batched linear solves run natively (see solve_contexts).
SOLVE_CONTEXTS = solve_contexts(KERNELS, TAPE_CONTEXTS)


def run(kernel: str, planes) -> Optional[int]:
    """Run ``kernel`` over ``planes`` (outputs first, see ``_kernels.c``).

    Returns the number of zero-denominator lanes, or ``None`` when no
    kernels are loaded or the planes do not fit the kernel's layout rules
    (the caller then runs the reference chain).
    """
    kernels = KERNELS
    if kernels is None:
        return None
    zeros = getattr(kernels, kernel)(*planes)
    return None if zeros is NotImplemented else zeros


def apply(kernel: str, reference, x: tuple, y: tuple, out=None) -> tuple:
    """``reference(x, y)`` on two plane tuples, through ``kernel`` when it
    runs; landed in ``out`` (which may alias ``x`` or ``y``) when given.

    A kernel that reports zero-denominator lanes hands over to the
    reference chain too, which raises the division error.
    """
    target = out if out is not None else \
        tuple(np.empty(x[0].shape) for _ in x)
    if run(kernel, target + x + y) == 0:
        return target
    planes = reference(x, y)
    if out is None:
        return planes
    for dst, src in zip(out, planes):
        np.copyto(dst, src)
    return out
