"""Quality-up analysis: trading parallelism for precision.

The introduction of the paper frames the goal as *quality up* (after Akl):
given ``p`` processors (or a GPU), how much extra working precision can be
afforded in roughly the same wall-clock time as a sequential double-precision
run?  The measured ingredients are

* the overhead factor of the software arithmetic (about 8 for double-double,
  about 40 for quad-double relative to hardware doubles -- the paper's [40]
  measured ~8 on their workstation), and
* the speedup the parallel evaluation achieves (the Tables' 7.6 .. 19.6).

This module packages that arithmetic so the benchmarks and examples can print
quality-up tables: :func:`offset_factor` answers "how much of the overhead is
paid for", and :func:`affordable_precision` picks the widest arithmetic whose
overhead is covered by a given speedup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..multiprec.numeric import CONTEXTS, DOUBLE, NumericContext
from ..polynomials.speelpenning import OperationCount

if TYPE_CHECKING:
    from ..gpusim.costmodel import CPUCostModel

__all__ = ["QualityUpEntry", "offset_factor", "affordable_precision", "quality_up_table"]


@dataclass(frozen=True)
class QualityUpEntry:
    """One row of a quality-up table."""

    context_name: str
    description: str
    overhead_factor: float
    speedup: float
    offset: float
    affordable: bool

    def as_dict(self) -> Dict[str, object]:
        return {
            "arithmetic": self.context_name,
            "description": self.description,
            "overhead_factor": self.overhead_factor,
            "speedup": self.speedup,
            "offset_factor": self.offset,
            "affordable_in_sequential_double_time": self.affordable,
        }


def offset_factor(speedup: float, overhead_factor: float) -> float:
    """How much faster than a sequential double run the accelerated
    extended-precision run is: ``speedup / overhead``.

    A value of at least 1.0 means the extra precision is free in wall-clock
    terms -- the quality-up criterion.
    """
    if overhead_factor <= 0:
        raise ValueError("overhead_factor must be positive")
    return speedup / overhead_factor


def _overhead_of(context: NumericContext,
                 cost_model: Optional[CPUCostModel]) -> float:
    """The overhead factor of ``context``: the cost model's calibrated
    software cost factor when a model is given, else the context's nominal
    ``mul_cost_factor``."""
    if cost_model is not None:
        return cost_model.arithmetic_cost_factor(context)
    return context.mul_cost_factor


def affordable_precision(speedup: float,
                         contexts: Optional[Sequence[NumericContext]] = None,
                         cost_model: Optional[CPUCostModel] = None
                         ) -> NumericContext:
    """The widest arithmetic whose overhead the given speedup covers.

    This is what :meth:`repro.tracking.solver.EscalationPolicy.from_speedup`
    consults to pick the starting rung of the d -> dd -> qd ladder.  Pass a
    :class:`~repro.gpusim.costmodel.CPUCostModel` to use its calibrated
    software cost factors instead of the contexts' nominal ones.
    """
    candidates = list(contexts) if contexts is not None else list(CONTEXTS.values())
    best = DOUBLE
    for ctx in sorted(candidates, key=lambda c: _overhead_of(c, cost_model)):
        if offset_factor(speedup, _overhead_of(ctx, cost_model)) >= 1.0:
            best = ctx
    return best


def quality_up_table(speedup: float,
                     contexts: Optional[Sequence[NumericContext]] = None,
                     cost_model: Optional[CPUCostModel] = None
                     ) -> List[QualityUpEntry]:
    """Quality-up rows for every arithmetic at a given parallel speedup."""
    candidates = list(contexts) if contexts is not None else list(CONTEXTS.values())
    rows = []
    for ctx in sorted(candidates, key=lambda c: _overhead_of(c, cost_model)):
        overhead = _overhead_of(ctx, cost_model)
        off = offset_factor(speedup, overhead)
        rows.append(QualityUpEntry(
            context_name=ctx.name,
            description=ctx.description,
            overhead_factor=overhead,
            speedup=speedup,
            offset=off,
            affordable=off >= 1.0,
        ))
    return rows


def measured_overhead_factor(operations: OperationCount,
                             context: NumericContext,
                             cost_model: Optional[CPUCostModel] = None) -> float:
    """Predicted CPU overhead of ``context`` relative to hardware doubles for
    the given operation tally (the paper's 'cost factor ... around 8')."""
    from ..gpusim.costmodel import CPUCostModel

    model = cost_model or CPUCostModel()
    base = model.evaluation_time(operations, DOUBLE)
    extended = model.evaluation_time(operations, context)
    if base == 0:
        return float("inf")
    return extended / base
