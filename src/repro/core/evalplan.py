"""Compiled evaluation plans: the per-system schedule, built once.

The paper's premise (section 3) is that the polynomial system is *fixed* for
the whole run -- 100,000 evaluations of one system inside a path tracker --
so everything that depends only on the system's shape should be decided
once, not rediscovered on every predictor/corrector call.  The walk-the-terms
evaluator (:class:`~repro.core.batch.VectorisedBatchEvaluator.evaluate`)
re-derives three things per call that never change:

1. **powers** -- ``x^(a-1)`` is recomputed per *term*, although every term
   of every polynomial draws from the same per-variable power ladder;
2. **Speelpenning sweeps** -- the forward/backward gradient sweep runs per
   *monomial*, although monomials frequently share their support (the same
   variables occurring, possibly with different exponents), and a homotopy
   evaluates *two* systems whose supports overlap heavily (a total-degree
   start system reuses the target's variables);
3. **blended temporaries** -- the convex homotopy blend
   ``gamma (1-t) g + t f`` materialises ``n^2 + 2n`` fresh arrays per call,
   two weighted products and an addition for every Jacobian entry, including
   the structurally zero ones.

An :class:`EvaluationPlan` compiles one :class:`~repro.polynomials.system.
PolynomialSystem` -- and a :class:`HomotopyPlan` compiles a start+target
*pair* -- into a static schedule executed per batch:

* per-variable **power tables** built once per evaluation with the *same
  multiply chain* as the walk path (the binary ``**`` ladder), so every
  term's powers are bit-for-bit identical and computed once per variable
  and exponent instead of once per term;
* **deduplicated supports**: each unique Speelpenning sweep runs once and
  its gradient/product planes are shared by every consuming term across all
  polynomials and (for :class:`HomotopyPlan`) across both systems; the
  derived common-factor, monomial-value and scaled-gradient planes are
  deduplicated the same way, keyed by their exact operands;
* a precomputed **accumulation schedule** that lands ``coeff*cf*product``
  and the scaled gradient contributions directly into the value/Jacobian
  accumulators through the in-place backend kernels
  (:meth:`~repro.multiprec.backend.ComplexBatchBackend.iadd` /
  :meth:`~repro.multiprec.backend.ComplexBatchBackend.iadd_mul`), preserving
  the walk path's per-accumulator operand order exactly;
* for :class:`HomotopyPlan`, the homotopy blend and ``dh/dt = f - gamma g``
  fused into the same pass: per-system accumulators are combined entry-wise
  with ``iadd_mul`` / ``isub_mul``, structurally zero Jacobian entries skip
  their weighted products entirely, and ``dh/dt`` lands in place in the
  target accumulators -- no blended temporaries.

Because every shared plane carries bit-identical values and every
accumulator receives the identical sequence of identical addends, the
single-system plan reproduces the walk path *bit for bit* (including the
inf/NaN propagation of masked dead lanes).  The homotopy plan is bit-for-bit
on the value rows and the t-derivative and on every Jacobian entry where
both systems contribute; entries touched by only one system skip the walk
path's multiplication of a zeros row by the other weight (equal under
``==``, differing at most in the sign of a signed zero).

Both plans expose compile-time operation counts (:class:`PlanOpCounts`, in
multiprecision-multiplication units: a ``**e`` counts as its dd/qd binary
multiply chain) next to the matching counts of the walk path, which is how
``BENCH_eval_plan.json`` and the ``tests/bench`` acceptance tests assert the
plan never schedules more work than the walk and wins >= 1.5x on workloads
with shared supports.

Executions run the schedule lowered once more to an instruction tape
(:mod:`repro.core.tape`): one native call per evaluation where the compiled
kernels serve the backend, else a Python loop over the same instructions.
The tape is the only way a plan executes.  The walk stays as the
differential reference: tests and the plan-vs-walk bench select it per
instance (a :class:`~repro.core.batch.VectorisedBatchEvaluator`, or a
:class:`~repro.tracking.homotopy.BatchHomotopy` with ``use_plan=False``).

The one piece of module state is the bounded homotopy compile cache, which
shares compile artifacts between plan instances over the same system pair.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..multiprec.backend import ComplexBatchBackend, backend_for_context
from ..multiprec.numeric import DOUBLE, NumericContext
from ..polynomials.system import PolynomialSystem
from .tape import TapeRunner, lower

__all__ = [
    "EvaluationPlan",
    "HomotopyPlan",
    "PlanExecutionStats",
    "PlanOpCounts",
    "checked_lane_parameters",
    "homotopy_compile_cache_stats",
    "homotopy_walk_op_counts",
    "pow_chain_multiplications",
    "require_lane_batch",
    "require_lane_parameters",
    "walk_op_counts",
]


# ----------------------------------------------------------------------
# the homotopy compile cache (family-keyed plan reuse)
# ----------------------------------------------------------------------
#: How many compiled (start, target) pairs the cache keeps (LRU).  Serving
#: workloads cycle through a handful of family schemas; a runaway stream of
#: distinct systems must not pin compile artifacts forever.
_COMPILE_CACHE_LIMIT = 32

_COMPILE_CACHE: "OrderedDict[tuple, dict]" = OrderedDict()
_COMPILE_CACHE_LOCK = threading.Lock()
_COMPILE_CACHE_STATS = {"hits": 0, "misses": 0}


def _system_signature(system: PolynomialSystem) -> tuple:
    """A hashable identity of a system's full coefficient structure.

    Coefficients are part of the key because the compiler bakes them into
    the schedules as ``("scalar", coeff)`` operands -- two systems with the
    same support but different coefficients compile to different plans.
    """
    return (system.dimension,
            tuple(tuple((complex(c), m.positions, m.exponents)
                        for c, m in poly.terms)
                  for poly in system))


def homotopy_compile_cache_stats() -> Dict[str, int]:
    """Hit/miss counters plus the current entry count of the compile cache."""
    with _COMPILE_CACHE_LOCK:
        return {"hits": _COMPILE_CACHE_STATS["hits"],
                "misses": _COMPILE_CACHE_STATS["misses"],
                "entries": len(_COMPILE_CACHE)}


def clear_homotopy_compile_cache() -> None:
    """Drop every cached compile and reset the hit/miss counters."""
    with _COMPILE_CACHE_LOCK:
        _COMPILE_CACHE.clear()
        _COMPILE_CACHE_STATS["hits"] = 0
        _COMPILE_CACHE_STATS["misses"] = 0


def require_lane_batch(points, dimension: int) -> None:
    """Reject inputs that are not an ``(n, B)`` lane batch.

    The batched evaluators index ``points[p]`` per variable and read the
    lane count off ``shape[1]``; a 1-D array (a single point passed where a
    batch is expected) used to be silently misread as ``B = n`` lanes of a
    0-d system.  Raise instead, naming the expected layout.

    Raises
    ------
    ConfigurationError
        When ``points`` has no 2-D shape or its leading axis is not the
        system dimension.
    """
    shape = getattr(points, "shape", None)
    if shape is None or len(shape) != 2:
        raise ConfigurationError(
            f"batched evaluation expects an (n, B) lane batch with "
            f"n = {dimension} (one column per point); got "
            f"{'no array' if shape is None else f'shape {tuple(shape)}'} -- "
            f"pack points with backend.from_points(list_of_points)"
        )
    if int(shape[0]) != int(dimension):
        raise ConfigurationError(
            f"lane batch has {int(shape[0])} rows but the system dimension "
            f"is {dimension}; expected shape ({dimension}, B)"
        )


class _CheckedParameters(np.ndarray):
    """Continuation parameters that passed the range check.  Any subset or
    broadcast of them (``t[lanes]``) is still in range, so
    :func:`require_lane_parameters` does not check them again."""


def _in_unit_interval(t) -> np.ndarray:
    """``t`` as float64, every value in ``[0, 1]``."""
    t = np.asarray(t, dtype=np.float64)
    # Written so NaN fails too, as in the scalar Homotopy.evaluate_at.
    if not ((t >= 0.0) & (t <= 1.0)).all():
        raise ConfigurationError(
            "all continuation parameters must lie in [0, 1]")
    return t


def checked_lane_parameters(t) -> np.ndarray:
    """A float64 copy of ``t``, range-checked once for many evaluations.

    The copy, its lane subsets and its broadcasts pass
    :func:`require_lane_parameters` without a second range check (the
    frozen ``t`` of :meth:`repro.tracking.homotopy.BatchHomotopy.at`).

    Raises
    ------
    ConfigurationError
        When any ``t`` lies outside ``[0, 1]`` or is NaN.
    """
    return _in_unit_interval(np.array(t, dtype=np.float64)).view(
        _CheckedParameters)


def require_lane_parameters(t, lanes: int) -> np.ndarray:
    """The continuation parameters ``t`` of a homotopy evaluation as one
    float64 value per lane.

    The one check of both homotopy routes, the plan and the walk: a scalar
    ``t`` broadcasts to every lane.  Parameters from
    :func:`checked_lane_parameters` skip the range check and come back as
    a plain ndarray view.

    Raises
    ------
    ConfigurationError
        When any ``t`` lies outside ``[0, 1]`` or is NaN, or ``t`` does not
        broadcast to ``lanes`` values.
    """
    if type(t) is _CheckedParameters:
        t = t.view(np.ndarray)
    else:
        t = _in_unit_interval(t)
    if t.shape == (lanes,):
        return t
    try:
        return np.broadcast_to(t, (lanes,))
    except ValueError:
        raise ConfigurationError(
            f"continuation parameters of shape {t.shape} do not broadcast "
            f"to the {lanes} lanes of the batch") from None


# ----------------------------------------------------------------------
# operation counting (multiprecision-multiplication units)
# ----------------------------------------------------------------------
def pow_chain_multiplications(exponent: int) -> int:
    """Multiplications of the ``**`` binary ladder for ``x ** exponent``.

    This replays the loop of ``DDArray.__pow__`` / ``QDArray.__pow__``:
    one multiply per set bit (into the running result, which starts at the
    ones array) and one squaring per loop round -- including the final,
    unused squaring, which the walk path pays too.  ``x ** 0`` is free.
    The ``d`` backend evaluates ``**`` as a single ``np.power`` ufunc; the
    counts here are in the multiprecision-chain units the dd/qd rungs
    actually execute, the currency of the plan-vs-walk comparisons.
    """
    muls = 0
    e = int(exponent)
    while e:
        if e & 1:
            muls += 1
        muls += 1  # base = base * base, unconditionally
        e >>= 1
    return muls


@dataclass(frozen=True)
class PlanOpCounts:
    """Batch-array operations of one evaluation (complex mul/add units).

    One unit is one vectorised complex batch-array operation over the ``B``
    lanes; each costs a fixed number of multiprecision component operations
    in the dd/qd rungs.  Powers are counted as their binary multiply chains
    (:func:`pow_chain_multiplications`).
    """

    multiplications: int = 0
    additions: int = 0

    @property
    def total(self) -> int:
        return self.multiplications + self.additions

    def __add__(self, other: "PlanOpCounts") -> "PlanOpCounts":
        return PlanOpCounts(self.multiplications + other.multiplications,
                            self.additions + other.additions)

    def as_dict(self) -> Dict[str, int]:
        return {"multiplications": self.multiplications,
                "additions": self.additions,
                "total": self.total}


@dataclass
class PlanExecutionStats:
    """Run-time counters of one plan's tape executions."""

    executions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"executions": self.executions}


def walk_op_counts(system: PolynomialSystem) -> PlanOpCounts:
    """Operation count of one walk-the-terms batched evaluation.

    Mirrors :meth:`repro.core.batch.VectorisedBatchEvaluator.evaluate`
    exactly: powers, common factors, Speelpenning sweeps and coefficient
    products are re-derived per term, with no sharing.
    """
    muls = 0
    adds = 0
    for poly in system:
        value_terms = 0
        row_contributions: Dict[int, int] = {}
        for _, mono in poly.terms:
            k = len(mono.positions)
            if value_terms:
                adds += 1  # iadd into the value accumulator
            value_terms += 1
            if k == 0:
                continue
            n_gt1 = sum(1 for e in mono.exponents if e > 1)
            muls += sum(pow_chain_multiplications(e - 1)
                        for e in mono.exponents if e > 1)
            muls += max(0, n_gt1 - 1)            # common-factor chain
            muls += max(0, 3 * k - 6)            # Speelpenning sweep
            if k >= 2:
                muls += 1                        # product = grad[-1] * last
            if n_gt1:
                muls += 1                        # monomial_value = cf * prod
            muls += 1                            # term_value = coeff * mv
            for p in mono.positions:
                if k == 1:
                    muls += 1 if n_gt1 else 0    # common * scale (or full)
                else:
                    muls += (1 if n_gt1 else 0)  # base = common * grad_j
                    muls += 1                    # scale * base
                if row_contributions.get(p):
                    adds += 1                    # iadd into the row entry
                row_contributions[p] = row_contributions.get(p, 0) + 1
    return PlanOpCounts(muls, adds)


def homotopy_walk_op_counts(start_system: PolynomialSystem,
                            target_system: PolynomialSystem) -> PlanOpCounts:
    """Operation count of one walk-path batched homotopy evaluation.

    Two independent system walks plus the dense blend of
    :meth:`repro.tracking.homotopy.BatchHomotopy.evaluate_batch`: every
    value row and every Jacobian entry (including structural zeros) pays
    two weighted products and an addition, and each ``dh/dt`` row one
    product and one subtraction.
    """
    n = target_system.dimension
    blend = PlanOpCounts(
        multiplications=2 * (n * n + n) + n,
        additions=(n * n + n) + n,
    )
    return (walk_op_counts(start_system) + walk_op_counts(target_system)
            + blend)


# ----------------------------------------------------------------------
# the compiler
# ----------------------------------------------------------------------
# Operand atoms of schedule entries: ("plane", pid) refers to a shared
# plane; ("scalar", z) is a Python complex weight; ("full", z) materialises
# a constant batch row on use (what the walk's ``backend.full`` does).

@dataclass
class _PolySchedule:
    """Accumulation schedule of one polynomial: value + sparse Jacobian row."""

    value: List[tuple] = field(default_factory=list)
    jacobian: Dict[int, List[tuple]] = field(default_factory=dict)


class _MulOp:
    """One pending ``a * b`` accumulation, dedup-keyed on its exact operands."""

    __slots__ = ("key", "a", "b")

    def __init__(self, key: tuple, a: tuple, b: tuple):
        self.key = key
        self.a = a
        self.b = b


class _Compiler:
    """Builds the shared plane list and per-polynomial schedules.

    Plane specs are emitted in dependency order (a spec only references
    earlier pids), deduplicated by a structural key, so executing the spec
    list top to bottom computes every shared plane exactly once.  Term-level
    products (``coeff * monomial_value`` and the scaled gradient
    contributions) are kept abstract during compilation; :meth:`finalize`
    materialises the multi-consumer ones as shared planes and inlines the
    rest into their accumulator's ``seed_mul`` / ``add_mul`` entry.
    """

    def __init__(self) -> None:
        self.specs: List[tuple] = []
        self._index: Dict[tuple, int] = {}
        self._pending: List[Tuple[List, _PolySchedule]] = []
        self._consumers: Dict[tuple, int] = {}
        self.terms = 0
        self.constant_terms = 0
        self.supports: set = set()
        self.monomials: set = set()

    # -- plane emission -------------------------------------------------
    def _emit(self, key: tuple, spec: tuple) -> int:
        pid = self._index.get(key)
        if pid is None:
            pid = len(self.specs)
            self.specs.append(spec)
            self._index[key] = pid
        return pid

    def _row(self, p: int) -> int:
        return self._emit(("row", p), ("row", p))

    def _power(self, p: int, e: int) -> int:
        return self._emit(("power", p, e), ("power", self._row(p), e))

    def _sweep(self, positions: Tuple[int, ...]) -> int:
        rows = tuple(self._row(p) for p in positions)
        return self._emit(("sweep", positions), ("sweep", rows))

    def _grad(self, positions: Tuple[int, ...], j: int) -> int:
        sid = self._sweep(positions)
        return self._emit(("grad", positions, j), ("grad", sid, j))

    def _product(self, positions: Tuple[int, ...]) -> int:
        k = len(positions)
        if k == 1:
            return self._row(positions[0])
        last = self._grad(positions, k - 1)
        return self._emit(("product", positions),
                          ("mul", ("plane", last),
                           ("plane", self._row(positions[-1]))))

    def _common(self, positions, exponents) -> Optional[int]:
        # Keyed by the power planes themselves, not the full monomial:
        # x0^3*x1 and x0^3*x2 share one common-factor chain.  A single
        # power *is* the common factor -- no chain plane needed.
        powers = tuple(self._power(p, e - 1)
                       for p, e in zip(positions, exponents) if e > 1)
        if not powers:
            return None
        if len(powers) == 1:
            return powers[0]
        return self._emit(("common", powers), ("chain", powers))

    def _monomial_value(self, positions, exponents) -> int:
        common = self._common(positions, exponents)
        product = self._product(positions)
        if common is None:
            return product
        return self._emit(("mvalue", positions, exponents),
                          ("mul", ("plane", common), ("plane", product)))

    def _base(self, positions, exponents, j: int) -> int:
        common = self._common(positions, exponents)
        grad = self._grad(positions, j)
        if common is None:
            return grad
        return self._emit(("base", positions, exponents, j),
                          ("mul", ("plane", common), ("plane", grad)))

    # -- term registration ----------------------------------------------
    def compile_system(self, system: PolynomialSystem) -> List[_PolySchedule]:
        """Register one system's terms; schedules fill in at finalize()."""
        schedules: List[_PolySchedule] = []
        for poly in system:
            value_ops: List = []
            jac_ops: Dict[int, List] = {}
            for coeff, mono in poly.terms:
                coeff = complex(coeff)
                positions, exponents = mono.positions, mono.exponents
                k = len(positions)
                self.terms += 1
                if k == 0:
                    self.constant_terms += 1
                    value_ops.append(("full", coeff))
                    continue
                self.supports.add(positions)
                self.monomials.add((positions, exponents))

                mv = self._monomial_value(positions, exponents)
                op = _MulOp(("term", coeff, positions, exponents),
                            ("scalar", coeff), ("plane", mv))
                self._consumers[op.key] = self._consumers.get(op.key, 0) + 1
                value_ops.append(op)

                common = self._common(positions, exponents)
                for j, (p, exponent) in enumerate(zip(positions, exponents)):
                    scale = coeff * exponent
                    if k == 1:
                        if common is None:
                            jac_ops.setdefault(p, []).append(("full", scale))
                            continue
                        # walk order: common * scale
                        op = _MulOp(("jterm1", scale, positions, exponents),
                                    ("plane", common), ("scalar", scale))
                    else:
                        base = self._base(positions, exponents, j)
                        # walk order: scale * base
                        op = _MulOp(("jterm", scale, positions, exponents, j),
                                    ("scalar", scale), ("plane", base))
                    self._consumers[op.key] = self._consumers.get(op.key, 0) + 1
                    jac_ops.setdefault(p, []).append(op)

            schedule = _PolySchedule()
            self._pending.append(((value_ops, jac_ops), schedule))
            schedules.append(schedule)
        return schedules

    # -- finalization ----------------------------------------------------
    @staticmethod
    def _scalar_plane(op: _MulOp) -> Optional[Tuple[complex, tuple]]:
        """The (scalar, plane-atom) split of a term op; every op has one."""
        if op.a[0] == "scalar":
            return op.a[1], op.b
        if op.b[0] == "scalar":
            return op.b[1], op.a
        return None

    def finalize(self) -> None:
        """Materialise multi-consumer term planes and build the schedules.

        Scale-factor product sharing: every pending op is ``scalar *
        plane``.  When one plane is consumed under two or more *distinct*
        scalars (the same monomial entering different polynomials, or a
        start and a target system, with different coefficients), no
        per-scalar product plane is materialised for it at all -- every
        consumer applies its own scale at accumulation time through the
        ``iadd_mul`` kernels, exactly the multiply the walk path performs,
        so the plane is shared across all the scales.  Planes consumed
        under a single scalar keep the PR 5 behaviour (materialise when
        multi-consumer, inline otherwise).
        """
        plane_scalars: Dict[tuple, set] = {}
        for (value_ops, jac_ops), _ in self._pending:
            for op in self._iter_mul_ops(value_ops, jac_ops):
                scalar_plane = self._scalar_plane(op)
                if scalar_plane is not None:
                    scalar, plane = scalar_plane
                    plane_scalars.setdefault(plane, set()).add(scalar)
        self._scale_shared_planes = {plane for plane, scalars
                                     in plane_scalars.items()
                                     if len(scalars) >= 2}
        self.scale_shared_products = 0

        shared: Dict[tuple, int] = {}
        for (value_ops, jac_ops), _ in self._pending:
            for op in self._iter_mul_ops(value_ops, jac_ops):
                self._share(op, shared)
        self.shared_term_planes = sum(1 for pid in shared.values()
                                      if pid is not None)
        for (value_ops, jac_ops), schedule in self._pending:
            schedule.value = self._entries(value_ops, shared)
            schedule.jacobian = {p: self._entries(ops, shared)
                                 for p, ops in jac_ops.items()}
        self._pending = []

    @staticmethod
    def _iter_mul_ops(value_ops, jac_ops):
        for op in value_ops:
            if isinstance(op, _MulOp):
                yield op
        for ops in jac_ops.values():
            for op in ops:
                if isinstance(op, _MulOp):
                    yield op

    def _share(self, op: _MulOp, shared: Dict[tuple, int]) -> None:
        if op.key in shared or self._consumers[op.key] < 2:
            return
        scalar_plane = self._scalar_plane(op)
        if scalar_plane is not None \
                and scalar_plane[1] in self._scale_shared_planes:
            # Scale-shared: consumers multiply the bare plane by their own
            # scalar inside the accumulate instead of copying/adding a
            # materialised product -- mark suppressed so _entries inlines.
            shared[op.key] = None
            self.scale_shared_products += 1
            return
        shared[op.key] = self._emit(("shared",) + op.key,
                                    ("mul", op.a, op.b))

    @staticmethod
    def _entries(ops: Sequence, shared: Dict[tuple, int]) -> List[tuple]:
        entries: List[tuple] = []
        for position, op in enumerate(ops):
            first = position == 0
            if not isinstance(op, _MulOp):  # ("full", z)
                entries.append(("seed" if first else "add", op))
                continue
            pid = shared.get(op.key)
            if pid is not None:
                entries.append(("seed_copy", pid) if first
                               else ("add", ("plane", pid)))
            else:
                entries.append(("seed_mul" if first else "add_mul",
                                op.a, op.b))
        return entries

    # -- compile-time statistics ----------------------------------------
    def statistics(self) -> Dict[str, int]:
        kinds: Dict[str, int] = {}
        for key in self._index:
            kinds[key[0]] = kinds.get(key[0], 0) + 1
        return {
            "terms": self.terms,
            "constant_terms": self.constant_terms,
            "unique_supports": len(self.supports),
            "unique_monomials": len(self.monomials),
            "power_table_entries": kinds.get("power", 0),
            "unique_sweeps": kinds.get("sweep", 0),
            "shared_term_planes": getattr(self, "shared_term_planes", 0),
            "scale_shared_products": getattr(self, "scale_shared_products", 0),
            "planes": len(self.specs),
        }

    def op_counts(self, schedules: Sequence[List[_PolySchedule]]) -> PlanOpCounts:
        """Array-op tally of the compiled plan (planes + accumulation)."""
        muls = 0
        adds = 0
        for spec in self.specs:
            kind = spec[0]
            if kind == "power":
                muls += pow_chain_multiplications(spec[2])
            elif kind == "sweep":
                k = len(spec[1])
                muls += max(0, 3 * k - 6)
            elif kind == "chain":
                muls += len(spec[1]) - 1
            elif kind == "mul":
                muls += 1
        for system_schedules in schedules:
            for schedule in system_schedules:
                for entries in [schedule.value] + list(schedule.jacobian.values()):
                    for entry in entries:
                        if entry[0] in ("seed_mul", "add_mul"):
                            muls += 1
                        if entry[0].startswith("add"):
                            adds += 1
        return PlanOpCounts(muls, adds)


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
class _PlanExecutor:
    """Shared execution machinery of the single-system and homotopy plans.

    A plan executes as its instruction tape (:mod:`repro.core.tape`), run
    in one native call per evaluation, or through the backend's ``*_into``
    methods where no native tape applies.  Every row lands in a slot buffer
    the plan's runner owns, sized for a lane count and re-sized only when
    the lane count changes.  Returned rows stay plan-owned: valid, and
    freely mutable (the batched linear solver writes into them), until the
    next execution of the same plan, which rewrites every row it returns.
    """

    backend: ComplexBatchBackend

    def _init_execution_state(self, tape, gamma=None) -> None:
        self._runner = TapeRunner(tape, self.backend, gamma)
        self.exec_stats = PlanExecutionStats()

    @property
    def tape(self):
        """The compiled :class:`~repro.core.tape.Tape` this plan runs."""
        return self._runner.tape

    @property
    def resizes(self) -> int:
        """How often the slot buffer was re-sized for a new lane count."""
        return self._runner.resizes


class EvaluationPlan(_PlanExecutor):
    """A compiled single-system evaluation schedule.

    Executing the plan is bit-for-bit identical to the walk path of
    :class:`~repro.core.batch.VectorisedBatchEvaluator` -- same power
    chains, same sweep, same accumulation order -- while computing every
    shared plane once.

    Attributes
    ----------
    op_counts / walk_counts:
        :class:`PlanOpCounts` of the compiled schedule and of the reference
        walk, per batched evaluation.
    statistics:
        Compile-time sharing statistics (unique sweeps, power-table
        entries, shared term planes, ...).
    """

    def __init__(self, system: PolynomialSystem, *,
                 backend: Optional[ComplexBatchBackend] = None,
                 context: NumericContext = DOUBLE):
        if not system.is_square():
            raise ConfigurationError("an evaluation plan needs a square system")
        self.system = system
        self.backend = backend or backend_for_context(context)
        self.dimension = system.dimension
        compiler = _Compiler()
        schedules = compiler.compile_system(system)
        compiler.finalize()
        self.op_counts = compiler.op_counts([schedules])
        self.walk_counts = walk_op_counts(system)
        self.statistics = compiler.statistics()
        self._init_execution_state(lower(compiler.specs, [schedules],
                                         self.dimension))

    def execute(self, points) -> Tuple[List, List[List]]:
        """Evaluate at an ``(n, B)`` lane batch; returns (values, jacobian).

        The returned rows are plan-owned: valid and freely mutable until
        this plan's next ``execute`` call, which overwrites them.
        """
        require_lane_batch(points, self.dimension)
        values, jacobian, _ = self._runner.run(points)
        self.exec_stats.executions += 1
        return values, jacobian


class HomotopyPlan(_PlanExecutor):
    """A compiled start+target schedule with the fused gamma-trick blend.

    Supports, power tables and term planes are deduplicated across *both*
    systems (a total-degree start system shares most of its monomials with
    the target), and the blend runs entry-wise over the sparse union of the
    two Jacobian structures with in-place weighted accumulates.

    ``op_counts`` / ``walk_counts`` price one batched homotopy evaluation
    (both system passes plus the blend) for the plan and the walk path.
    """

    def __init__(self, start_system: PolynomialSystem,
                 target_system: PolynomialSystem, *,
                 gamma: Optional[complex] = None,
                 backend: Optional[ComplexBatchBackend] = None,
                 context: NumericContext = DOUBLE):
        if start_system.dimension != target_system.dimension:
            raise ConfigurationError("start and target systems must share a dimension")
        self.start_system = start_system
        self.target_system = target_system
        self.backend = backend or backend_for_context(context)
        self.dimension = target_system.dimension
        self.gamma = None if gamma is None else complex(gamma)

        compiled = self._compile_artifacts(start_system, target_system)
        self.statistics = compiled["statistics"]
        self.op_counts = compiled["op_counts"]
        self.walk_counts = compiled["walk_counts"]
        self._init_execution_state(compiled["tape"], self.gamma)

    @staticmethod
    def _compile_artifacts(start_system: PolynomialSystem,
                           target_system: PolynomialSystem) -> Dict[str, object]:
        """Compile the pair, reusing the family-keyed compile cache.

        The artifacts -- sharing statistics, op counts and the lowered
        tape -- are deterministic in the two systems' coefficient structure
        and are strictly read-only at execution time, so instances may
        share them; everything mutable (the slot buffer, the bound gamma,
        statistics counters) lives in per-instance execution state.  This
        is what lets a parameter-homotopy family compile its member plan
        once and serve every subsequent query from the cache.
        """
        key = (_system_signature(start_system),
               _system_signature(target_system))
        with _COMPILE_CACHE_LOCK:
            cached = _COMPILE_CACHE.get(key)
            if cached is not None:
                _COMPILE_CACHE.move_to_end(key)
                _COMPILE_CACHE_STATS["hits"] += 1
                return cached
            _COMPILE_CACHE_STATS["misses"] += 1

        compiler = _Compiler()
        g_schedules = compiler.compile_system(start_system)
        f_schedules = compiler.compile_system(target_system)
        compiler.finalize()

        # Sparse union of the two Jacobian structures, fixed per system pair.
        n = target_system.dimension
        jac_union: List[List[Tuple[int, bool, bool]]] = []
        for i in range(n):
            g_cols = set(g_schedules[i].jacobian)
            f_cols = set(f_schedules[i].jacobian)
            jac_union.append([(j, j in g_cols, j in f_cols)
                              for j in sorted(g_cols | f_cols)])

        accumulation = compiler.op_counts([g_schedules, f_schedules])
        blend_muls = 2 * n + n  # value rows + dh/dt rows
        blend_adds = n + n
        for union in jac_union:
            for _, has_g, has_f in union:
                blend_muls += 2 if (has_g and has_f) else 1
                blend_adds += 1 if (has_g and has_f) else 0
        compiled = {
            "statistics": compiler.statistics(),
            "op_counts": accumulation + PlanOpCounts(blend_muls, blend_adds),
            "walk_counts": homotopy_walk_op_counts(start_system,
                                                   target_system),
            "tape": lower(compiler.specs, [g_schedules, f_schedules], n,
                          jac_union),
        }
        with _COMPILE_CACHE_LOCK:
            _COMPILE_CACHE[key] = compiled
            _COMPILE_CACHE.move_to_end(key)
            while len(_COMPILE_CACHE) > _COMPILE_CACHE_LIMIT:
                _COMPILE_CACHE.popitem(last=False)
        return compiled

    def execute(self, points, t) -> Tuple[List, List[List], List]:
        """Evaluate ``h``, ``dh/dx``, ``dh/dt`` at per-lane parameters ``t``.

        Returns ``(values, jacobian, t_derivative)`` with the same layout
        as :class:`~repro.tracking.homotopy.BatchHomotopyEvaluation`.

        Raises
        ------
        ConfigurationError
            When the plan has no gamma, ``points`` is not an ``(n, B)``
            lane batch, or ``t`` fails :func:`require_lane_parameters`.
        """
        if self.gamma is None:
            raise ConfigurationError("this HomotopyPlan was compiled without "
                                     "a gamma; pass one at construction")
        require_lane_batch(points, self.dimension)
        t = require_lane_parameters(t, points.shape[1])
        result = self._runner.run(points, t)
        self.exec_stats.executions += 1
        return result
