"""Multicore CPU evaluation (the "quality up" context of the paper).

Before moving to the GPU, the authors offset the cost of double-double
arithmetic with multithreaded path tracking on a multicore workstation
([39], [40]): with ``p`` cores the roughly 8-fold overhead of double-double
can be hidden, which they call *quality up*.  This module provides

* :class:`MulticoreEvaluator` -- a work-partitioned evaluator that splits the
  monomials of the system over a pool of workers and merges the partial sums,
  mirroring how the multithreaded CPU code of [40] parallelises evaluation;
* :func:`partition_monomials` -- the static work partition it uses.

The evaluator is functionally exact (its results equal the sequential
reference).  True wall-clock scaling is not the point here -- CPython threads
share the interpreter lock -- so the quality-up *analysis* in
:mod:`repro.tracking.quality_up` uses the calibrated CPU cost model with the
core count as the parallelism parameter, exactly as the paper's argument
does; the evaluator exists so the partition-and-merge path is a real, tested
code path rather than a formula.
"""

from __future__ import annotations

from concurrent.futures import Executor, ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, WorkerExecutionError
from ..multiprec.numeric import DOUBLE, NumericContext
from ..polynomials.evaluation import evaluate_factored
from ..polynomials.polynomial import Polynomial
from ..polynomials.speelpenning import OperationCount
from ..polynomials.system import PolynomialSystem
from .cpu_reference import CPUEvaluation

__all__ = ["MulticoreEvaluator", "partition_monomials"]


def partition_monomials(system: PolynomialSystem, workers: int
                        ) -> List[List[Tuple[int, complex, object]]]:
    """Split all monomials of the system into ``workers`` balanced chunks.

    Every chunk entry is ``(polynomial_index, coefficient, monomial)``; the
    chunks are interleaved (round-robin over the monomial sequence ``Sm``) so
    that chunks have equal sizes up to one monomial even when the system is
    irregular.
    """
    if workers < 1:
        raise ConfigurationError("workers must be at least 1")
    chunks: List[List[Tuple[int, complex, object]]] = [[] for _ in range(workers)]
    index = 0
    for p, poly in enumerate(system):
        for coeff, mono in poly.terms:
            chunks[index % workers].append((p, coeff, mono))
            index += 1
    return chunks


def _evaluate_chunk(chunk, dimension: int, point, context):
    """Evaluate one chunk of monomials: partial system values and Jacobian."""
    # Build a tiny sub-system per hosting polynomial and reuse the factored
    # sequential evaluator; partial sums are merged by the caller.
    values = [context.zero() if context is not None else 0j for _ in range(dimension)]
    jacobian = [[context.zero() if context is not None else 0j for _ in range(dimension)]
                for _ in range(dimension)]
    operations = OperationCount()
    by_poly: dict = {}
    for p, coeff, mono in chunk:
        by_poly.setdefault(p, []).append((coeff, mono))
    for p, terms in by_poly.items():
        partial_system = PolynomialSystem([Polynomial(terms)], dimension=dimension)
        result = evaluate_factored(partial_system, point, context=context)
        values[p] = values[p] + result.values[0]
        operations += result.operations
        for j in range(dimension):
            jacobian[p][j] = jacobian[p][j] + result.jacobian[0][j]
    return values, jacobian, operations


class MulticoreEvaluator:
    """Partition the monomials over a worker pool and merge partial results."""

    def __init__(self, system: PolynomialSystem, *,
                 context: NumericContext = DOUBLE,
                 workers: int = 4,
                 executor: Optional[Executor] = None):
        if workers < 1:
            raise ConfigurationError("workers must be at least 1")
        self.system = system
        self.context = context
        self.workers = int(workers)
        self._executor = executor
        # The system is fixed at construction, so the static work partition
        # is too: computing it per evaluation would re-walk every monomial
        # of every polynomial on the hot path for an identical answer.
        self._chunks = [chunk for chunk
                        in partition_monomials(system, self.workers) if chunk]

    def _gather(self, futures) -> List[tuple]:
        """Collect chunk results, attributing failures to their worker.

        A bare ``future.result()`` error says nothing about *which* chunk
        died; mirror how the kernel launcher surfaces thread coordinates
        (:func:`repro.gpusim.launch.launch_kernel`) by wrapping the
        exception with the worker index and the polynomial indices the
        chunk was hosting.
        """
        partials = []
        for worker, (chunk, future) in enumerate(zip(self._chunks, futures)):
            try:
                partials.append(future.result())
            except WorkerExecutionError:
                raise
            except Exception as exc:
                hosted = sorted({p for p, _, _ in chunk})
                raise WorkerExecutionError(
                    f"multicore evaluation failed in worker {worker} of "
                    f"{len(self._chunks)} (hosting polynomial(s) {hosted}, "
                    f"{len(chunk)} monomial(s)): {exc}"
                ) from exc
        return partials

    def evaluate(self, point: Sequence) -> CPUEvaluation:
        """Evaluate ``f`` and ``J_f``; results equal the sequential reference."""
        import time

        ctx = self.context
        converted = [ctx.from_complex(complex(x)) if isinstance(x, (int, float, complex)) else x
                     for x in point]
        chunks = self._chunks
        n = self.system.dimension

        # The timer covers the whole partition-and-merge path -- the worker
        # evaluations AND the host-side merge loop below -- because that
        # merge is part of what the multicore scheme costs.
        start = time.perf_counter()
        if self._executor is not None:
            futures = [self._executor.submit(_evaluate_chunk, chunk, n, converted, ctx)
                       for chunk in chunks]
            partials = self._gather(futures)
        else:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                futures = [pool.submit(_evaluate_chunk, chunk, n, converted, ctx)
                           for chunk in chunks]
                partials = self._gather(futures)

        values = [ctx.zero() for _ in range(n)]
        jacobian = [[ctx.zero() for _ in range(n)] for _ in range(n)]
        operations = OperationCount()
        for part_values, part_jacobian, part_ops in partials:
            operations += part_ops
            for i in range(n):
                values[i] = values[i] + part_values[i]
                for j in range(n):
                    jacobian[i][j] = jacobian[i][j] + part_jacobian[i][j]
        elapsed = time.perf_counter() - start

        return CPUEvaluation(values=values, jacobian=jacobian,
                             operations=operations, elapsed_seconds=elapsed)
