"""Numeric contexts: a small abstraction over the scalar arithmetic in use.

The paper's kernels are described once and instantiated for "complex double"
and "complex double double" (and the authors plan quad double).  In the
reproduction the evaluation kernels, the CPU references and the path tracker
are all written against a :class:`NumericContext` that supplies:

* construction of scalars from Python complex numbers,
* the additive and multiplicative identities,
* conversion back to ``complex`` for comparison and reporting,
* the *cost factor* of one multiplication relative to a hardware complex
  double multiplication.  The paper's motivating observation ([40]) is that
  this factor is about 8 for double-double; the cost model uses it to predict
  how the GPU offsets the software-arithmetic overhead ("quality up").

Three ready-made contexts are exported: :data:`DOUBLE` (hardware ``complex``),
:data:`DOUBLE_DOUBLE` (:class:`~repro.multiprec.complex_dd.ComplexDD`) and
:data:`QUAD_DOUBLE` (:class:`~repro.multiprec.quad_double.ComplexQD`, also
importable from here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict

from .complex_dd import ComplexDD
from .double_double import DoubleDouble
from .quad_double import ComplexQD, QuadDouble

__all__ = [
    "NumericContext",
    "ComplexQD",
    "DOUBLE",
    "DOUBLE_DOUBLE",
    "QUAD_DOUBLE",
    "CONTEXTS",
    "get_context",
]


@dataclass(frozen=True)
class NumericContext:
    """Description of a scalar arithmetic usable by the evaluators.

    Attributes
    ----------
    name:
        Short identifier, e.g. ``"d"``, ``"dd"``, ``"qd"``.
    description:
        Human-readable name used in reports.
    from_complex:
        Callable converting a Python ``complex`` into the scalar type.
    to_complex:
        Callable converting a scalar back to ``complex`` (rounding).
    zero / one:
        Callables producing the additive and multiplicative identities.
    mul_cost_factor:
        Cost of one multiplication in this arithmetic relative to a hardware
        complex-double multiplication.  Double-double ~8, quad-double ~40
        (software arithmetic; the values follow the paper's discussion and
        the measurements in [40]).
    working_precision:
        Approximate unit roundoff of the arithmetic.
    bytes_per_real:
        Storage size of one real component (8 for double, 16 for double
        double, 32 for quad double); feeds shared-memory budget checks.
    """

    name: str
    description: str
    from_complex: Callable[[complex], Any]
    to_complex: Callable[[Any], complex]
    zero: Callable[[], Any]
    one: Callable[[], Any]
    mul_cost_factor: float
    working_precision: float
    bytes_per_real: int

    def vector(self, values) -> list:
        """Convert an iterable of complex numbers to a list of scalars."""
        return [self.from_complex(complex(v)) for v in values]

    def to_complex_vector(self, values) -> list:
        return [self.to_complex(v) for v in values]


DOUBLE = NumericContext(
    name="d",
    description="hardware complex double (IEEE binary64 pairs)",
    from_complex=lambda z: complex(z),
    to_complex=lambda z: complex(z),
    zero=lambda: 0j,
    one=lambda: 1 + 0j,
    mul_cost_factor=1.0,
    working_precision=2.220446049250313e-16,
    bytes_per_real=8,
)

DOUBLE_DOUBLE = NumericContext(
    name="dd",
    description="complex double double (QD-style software arithmetic)",
    from_complex=ComplexDD.from_complex,
    to_complex=lambda z: z.to_complex(),
    zero=lambda: ComplexDD(0.0),
    one=lambda: ComplexDD(1.0),
    mul_cost_factor=8.0,
    working_precision=DoubleDouble.eps,
    bytes_per_real=16,
)

QUAD_DOUBLE = NumericContext(
    name="qd",
    description="complex quad double (QD-style software arithmetic)",
    from_complex=ComplexQD.from_complex,
    to_complex=lambda z: z.to_complex(),
    zero=lambda: ComplexQD(0.0),
    one=lambda: ComplexQD(1.0),
    mul_cost_factor=40.0,
    working_precision=QuadDouble.eps,
    bytes_per_real=32,
)

CONTEXTS: Dict[str, NumericContext] = {
    ctx.name: ctx for ctx in (DOUBLE, DOUBLE_DOUBLE, QUAD_DOUBLE)
}


def get_context(name: str) -> NumericContext:
    """Look up a numeric context by its short name (``d``, ``dd``, ``qd``)."""
    try:
        return CONTEXTS[name]
    except KeyError:
        raise KeyError(
            f"unknown numeric context {name!r}; available: {sorted(CONTEXTS)}"
        ) from None
