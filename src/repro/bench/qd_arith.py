"""Micro + end-to-end benchmark of the compiled dd/qd batch arithmetic.

Two measurements back the compiled plane kernels of
:mod:`repro.multiprec.compiled`:

1. **Per-op micro-bench** (:func:`run_qd_arith_bench`): each hot operation
   is timed through the array types (the compiled kernels) and as the
   NumPy reference chain the array types fall back to without a compiler,
   on the same operands, reporting ns/element and the compiled speedup.
   Both paths are bit-for-bit identical, so this isolates pure execution
   cost.
2. **End-to-end lane throughput** (:func:`run_qd_tracker_bench`): the
   :class:`~repro.tracking.batch_tracker.BatchTracker` tracks a qd batch of
   the cyclic quadratic benchmark system, reporting wall-clock paths/sec
   and lane-evaluations/sec.  The start set is replicated to fill wide
   batches, so per-lane work stays comparable with the historical
   ``BENCH_batch_tracking.json`` qd rows and the speedup over that
   checked-in baseline is reported directly.

Timings take the best of several repetitions.  They are recorded in
``BENCH_qd_arith.json``, whose speedup floors ``tools/check_bench.py``
enforces; no tier-1 test asserts a live timing ratio.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..multiprec import compiled
from ..multiprec.ddarray import ComplexDDArray, DDArray
from ..multiprec.numeric import QUAD_DOUBLE
from ..multiprec.qdarray import ComplexQDArray, QDArray
from ..tracking.batch_tracker import BatchTracker
from ..tracking.start_systems import start_solutions, total_degree_start_system
from .batch_tracking import cyclic_quadratic_system

__all__ = [
    "QDArithRow",
    "QDTrackerRow",
    "baseline_qd_wall_paths_per_second",
    "qd_arith_report",
    "run_qd_arith_bench",
    "run_qd_tracker_bench",
]

#: Batch sizes of the per-op rows: the narrow lane counts the escalation
#: ladder tracks at, and a wide batch.
ARITH_BATCHES = (8, 64, 256)


@dataclass
class QDArithRow:
    """One (operation, batch size) cell of the micro-bench."""

    op: str
    batch: int
    compiled_ns_per_element: float
    reference_ns_per_element: float

    @property
    def speedup(self) -> float:
        if self.compiled_ns_per_element == 0.0:
            return float("inf")
        return self.reference_ns_per_element / self.compiled_ns_per_element

    def as_dict(self) -> Dict[str, object]:
        return {
            "op": self.op,
            "batch": self.batch,
            "compiled_ns_per_elem": self.compiled_ns_per_element,
            "reference_ns_per_elem": self.reference_ns_per_element,
            "speedup": self.speedup,
        }


@dataclass
class QDTrackerRow:
    """One batch size of the end-to-end qd tracking sweep."""

    batch_size: int
    paths_tracked: int
    paths_converged: int
    lane_evaluations: int
    wall_seconds: float

    @property
    def paths_per_second(self) -> float:
        return self.paths_tracked / self.wall_seconds if self.wall_seconds else float("inf")

    @property
    def lane_evaluations_per_second(self) -> float:
        return self.lane_evaluations / self.wall_seconds if self.wall_seconds else float("inf")

    def as_dict(self) -> Dict[str, object]:
        return {
            "batch": self.batch_size,
            "paths": self.paths_tracked,
            "converged": self.paths_converged,
            "lane_evals": self.lane_evaluations,
            "wall_s": self.wall_seconds,
            "paths_per_s_wall": self.paths_per_second,
            "lane_evals_per_s": self.lane_evaluations_per_second,
        }


def _rand_qd(size: int, seed: int) -> QDArray:
    rng = np.random.default_rng(seed)
    full = QDArray.from_float64(rng.normal(size=size))
    for scale in (1e-17, 1e-34, 1e-51):
        full = full + QDArray.from_float64(rng.normal(size=size) * scale)
    return full


def _rand_dd(size: int, seed: int) -> DDArray:
    rng = np.random.default_rng(seed)
    return DDArray(rng.normal(size=size), rng.normal(size=size) * 1e-17)


def _best_seconds(op: Callable[[], object], repeats: int, inner: int) -> float:
    """Best-of-``repeats`` wall seconds per call, each repeat timing
    ``inner`` calls: the one protocol every arm of a bench comparison uses,
    so noise on a loaded box cannot favour either side."""
    best = float("inf")
    for _ in range(repeats):
        began = time.perf_counter()
        for _ in range(inner):
            op()
        best = min(best, (time.perf_counter() - began) / inner)
    return best


def _operations(batch: int) -> Dict[str, Tuple[Callable[[], object],
                                               Callable[[], object]]]:
    """Each op as (array operator, its reference chain on the same planes)."""
    a, b = _rand_qd(batch, 1), _rand_qd(batch, 2)
    ca = ComplexQDArray(_rand_qd(batch, 3), _rand_qd(batch, 4))
    cb = ComplexQDArray(_rand_qd(batch, 5), _rand_qd(batch, 6))
    da, db = _rand_dd(batch, 7), _rand_dd(batch, 8)
    cda = ComplexDDArray(_rand_dd(batch, 9), _rand_dd(batch, 10))
    cdb = ComplexDDArray(_rand_dd(batch, 11), _rand_dd(batch, 12))
    qa, qb = a._components(), b._components()
    pa, pb = ca._planes(), cb._planes()
    ha, hb = da._components(), db._components()
    dpa, dpb = cda._planes(), cdb._planes()
    qd, cqd = QDArray.reference_chains, ComplexQDArray.reference_chains
    dd, cdd = DDArray.reference_chains, ComplexDDArray.reference_chains
    return {
        "qd_add": (lambda: a + b, lambda: qd["add"](qa, qb)),
        "qd_mul": (lambda: a * b, lambda: qd["mul"](qa, qb)),
        "qd_div": (lambda: a / b, lambda: qd["div"](qa, qb)),
        "cqd_mul": (lambda: ca * cb, lambda: cqd["mul"](pa, pb)),
        "cqd_div": (lambda: ca / cb, lambda: cqd["div"](pa, pb)),
        "dd_add": (lambda: da + db, lambda: dd["add"](ha, hb)),
        "dd_mul": (lambda: da * db, lambda: dd["mul"](ha, hb)),
        "cdd_mul": (lambda: cda * cdb, lambda: cdd["mul"](dpa, dpb)),
    }


def run_qd_arith_bench(batch_sizes: Sequence[int] = ARITH_BATCHES,
                       ops: Optional[Sequence[str]] = None,
                       repeats: int = 5) -> List[QDArithRow]:
    """Time each hot operation through the array types (the compiled
    kernels when loaded) and as its NumPy reference chain on the same
    planes; best-of-``repeats``.  With no kernels loaded both columns time
    the reference chains."""
    rows: List[QDArithRow] = []
    for batch in batch_sizes:
        for name, timed in _operations(int(batch)).items():
            if ops is not None and name not in ops:
                continue
            inner = max(3, min(200, 20000 // int(batch)))
            fast, reference = (_best_seconds(op, repeats, inner)
                               for op in timed)
            rows.append(QDArithRow(
                op=name,
                batch=int(batch),
                compiled_ns_per_element=fast / batch * 1e9,
                reference_ns_per_element=reference / batch * 1e9,
            ))
    return rows


def run_qd_tracker_bench(batch_sizes: Sequence[int] = (8, 64),
                         dimension: int = 3) -> List[QDTrackerRow]:
    """Wall-clock qd tracking throughput, start set replicated per batch.

    Every row tracks ``batch_size`` lanes of the same cyclic quadratic
    paths (the ``2^dimension`` distinct start solutions, repeated), so the
    per-lane work profile matches the historical qd rows of
    ``BENCH_batch_tracking.json`` and wall-clock paths/sec are directly
    comparable across batch sizes and PRs.
    """
    target = cyclic_quadratic_system(dimension)
    start = total_degree_start_system(target)
    starts = list(start_solutions(target))

    rows: List[QDTrackerRow] = []
    for batch_size in batch_sizes:
        batch_size = int(batch_size)
        replicated = (starts * ((batch_size + len(starts) - 1) // len(starts)))
        replicated = replicated[:max(batch_size, len(starts))]
        tracker = BatchTracker(start, target, context=QUAD_DOUBLE,
                               batch_size=batch_size)
        began = time.perf_counter()
        outcome = tracker.track_batches(replicated)
        wall = time.perf_counter() - began
        rows.append(QDTrackerRow(
            batch_size=batch_size,
            paths_tracked=len(replicated),
            paths_converged=outcome.paths_converged,
            lane_evaluations=outcome.lane_evaluations,
            wall_seconds=wall,
        ))
    return rows


def baseline_qd_wall_paths_per_second(path="BENCH_batch_tracking.json"
                                      ) -> Optional[float]:
    """Best historical qd wall-clock paths/sec from the checked-in sweep.

    Returns ``None`` when the file (or its qd section) is missing, so the
    report degrades gracefully on fresh checkouts.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
        rows = report["qd"]["rows"]
        return max(row["paths"] / row["wall_s"] for row in rows if row["wall_s"])
    except (OSError, KeyError, ValueError, ZeroDivisionError):
        return None


def qd_arith_report(arith_rows: Sequence[QDArithRow],
                    tracker_rows: Sequence[QDTrackerRow],
                    baseline_path: str = "BENCH_batch_tracking.json") -> Dict:
    """Assemble the ``BENCH_qd_arith.json`` payload.

    ``kernels_loaded`` records whether the per-op rows timed the compiled
    kernels at all (without a compiler both columns are the reference).
    """
    baseline = baseline_qd_wall_paths_per_second(baseline_path)
    wide = [r for r in tracker_rows if r.batch_size >= 64]
    best_wide = max((r.paths_per_second for r in wide), default=None)
    report: Dict = {
        "kernels_loaded": compiled.KERNELS is not None,
        "per_op": [row.as_dict() for row in arith_rows],
        "tracker": [row.as_dict() for row in tracker_rows],
    }
    if baseline is not None:
        report["baseline_qd_paths_per_s_wall"] = baseline
        if best_wide is not None:
            report["wall_speedup_vs_baseline_at_batch_64"] = best_wide / baseline
    return report
